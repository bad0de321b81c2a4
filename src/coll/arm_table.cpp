// The arm table (yhccl/coll/arm_table.hpp).
#include "yhccl/coll/arm_table.hpp"

#include "yhccl/coll/detail.hpp"

namespace yhccl::coll {

namespace {

namespace md = model::impl;

template <auto F>
md::OpCounts model_of(std::size_t s, const md::OpGeometry& g,
                      const rt::PlanCaps&) {
  return F(s, g);
}

template <auto F>
bool run_reduction(RankCtx& ctx, const CollArgs& c, const CollOpts& o) {
  F(ctx, c.send, c.recv, c.count, c.dtype, c.op, o);
  return true;
}

template <auto F>
bool run_rooted(RankCtx& ctx, const CollArgs& c, const CollOpts& o) {
  F(ctx, c.send, c.recv, c.count, c.dtype, c.op, c.root, o);
  return true;
}

/// A served direct arm falls back on a negative verdict; one the caller
/// named raises.
detail::DirectMiss direct_miss(const CollOpts& o) noexcept {
  return o.algorithm == Algorithm::automatic ? detail::DirectMiss::fall_back
                                             : detail::DirectMiss::raise;
}

// Within a reduction the staged rows come first, in the tuner's candidate
// order; the rows the prior alone serves (fold, direct) follow.
using K = CollKind;
using A = Algorithm;
using N = ArmNeed;
constexpr ArmRow kRows[] = {
    {K::allreduce, A::dpml_two_level, N::none, model_of<md::dpml_allreduce_ops>,
     run_reduction<detail::dpml_two_level_allreduce>},
    {K::allreduce, A::ma_flat, N::none, model_of<md::ma_allreduce_ops>,
     run_reduction<detail::ma_allreduce>},
    {K::allreduce, A::ma_socket_aware, N::socket_topology,
     model_of<md::socket_ma_allreduce_ops>,
     run_reduction<detail::socket_ma_allreduce>},
    {K::allreduce, A::fold, N::fold_stage, model_of<md::fold_allreduce_ops>,
     run_reduction<detail::fold_allreduce>},
    {K::allreduce, A::direct, N::single_copy,
     [](std::size_t s, const md::OpGeometry& g, const rt::PlanCaps& caps) {
       return detail::direct_pushes(s, g.p, caps.cache())
                  ? md::direct_push_allreduce_ops(s, g)
                  : md::xpmem_allreduce_ops(s, g);
     },
     [](RankCtx& ctx, const CollArgs& c, const CollOpts& o) {
       return detail::direct_allreduce(ctx, c.send, c.recv, c.count, c.dtype,
                                       c.op, o, /*xpmem_baseline=*/false,
                                       direct_miss(o));
     }},
    {K::reduce, A::dpml_two_level, N::none, model_of<md::dpml_reduce_ops>,
     run_rooted<detail::dpml_two_level_reduce>},
    {K::reduce, A::ma_flat, N::none, model_of<md::ma_reduce_ops>,
     run_rooted<detail::ma_reduce>},
    {K::reduce, A::ma_socket_aware, N::socket_topology,
     model_of<md::socket_ma_reduce_ops>, run_rooted<detail::socket_ma_reduce>},
    {K::reduce_scatter, A::dpml_two_level, N::none,
     model_of<md::dpml_reduce_scatter_ops>,
     run_reduction<detail::dpml_two_level_reduce_scatter>},
    {K::reduce_scatter, A::ma_flat, N::none,
     model_of<md::ma_reduce_scatter_ops>,
     run_reduction<detail::ma_reduce_scatter>},
    {K::reduce_scatter, A::ma_socket_aware, N::socket_topology,
     model_of<md::socket_ma_reduce_scatter_ops>,
     run_reduction<detail::socket_ma_reduce_scatter>},
    {K::reduce_scatter, A::direct, N::single_copy,
     model_of<md::direct_reduce_scatter_ops>,
     [](RankCtx& ctx, const CollArgs& c, const CollOpts& o) {
       return detail::direct_reduce_scatter(ctx, c.send, c.recv, c.count,
                                            c.dtype, c.op, o, direct_miss(o));
     }},
    {K::broadcast, A::pipelined, N::none, model_of<md::pipelined_broadcast_ops>,
     [](RankCtx& ctx, const CollArgs& c, const CollOpts& o) {
       detail::pipelined_broadcast(ctx, c.recv, c.count, c.dtype, c.root, o);
       return true;
     }},
    {K::allgather, A::pipelined, N::none, model_of<md::pipelined_allgather_ops>,
     [](RankCtx& ctx, const CollArgs& c, const CollOpts& o) {
       detail::pipelined_allgather(ctx, c.send, c.recv, c.count, c.dtype, o);
       return true;
     }},
};

}  // namespace

std::span<const ArmRow> arm_rows() noexcept { return kRows; }

const ArmRow* find_arm(CollKind kind, Algorithm a) noexcept {
  for (const ArmRow& r : kRows)
    if (r.kind == kind && r.algorithm == a) return &r;
  return nullptr;
}

std::string arm_serves_only(Algorithm a) {
  std::string kinds;
  for (const ArmRow& r : kRows)
    if (r.algorithm == a)
      kinds += std::string(kinds.empty() ? "" : "/") + coll_kind_name(r.kind);
  return std::string("the ") + algorithm_name(a) + " algorithm serves " +
         kinds + " only";
}

}  // namespace yhccl::coll
