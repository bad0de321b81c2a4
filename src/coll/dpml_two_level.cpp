// DPML-style data-partitioned parallel reduction, with YHCCL's two-level
// (socket-aware) hierarchy (paper §5.1).
//
// Per round, every rank copies its share of the round into a private
// staging region of shared memory (this full copy-in is exactly the
// redundancy the MA algorithms eliminate — kept faithful here because this
// algorithm is both the small-message fast path and, in flat mode, the
// paper's DPML baseline [13]).  Then:
//   stage 1 (two-level only): each socket's members reduce the staged
//     buffers of their socket into the socket leader's staging region,
//     partitioned by ownership block.
//   stage 2: the owner of each block reduces it across the socket leaders
//     (flat mode: across all p staging regions) and delivers it.
//
// The only synchronization is a handful of node barriers per round — no
// per-step neighbour flags — which is why it wins for small messages where
// the MA pipeline's p-1 synchronizations dominate.
#include <cstdint>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll::detail {

namespace {

enum class Deliver : int { scatter, all, root_only };

struct Groups {
  int m;  ///< number of groups (sockets, or p singletons in flat mode)
  int base[rt::kMaxRanks];
  int size[rt::kMaxRanks];
  int my_group, my_index;
};

Groups make_groups(RankCtx& ctx, bool flat) {
  Groups g{};
  if (flat || ctx.nsockets() == 1) {
    g.m = ctx.nranks();
    for (int i = 0; i < g.m; ++i) {
      g.base[i] = i;
      g.size[i] = 1;
    }
    g.my_group = ctx.rank();
    g.my_index = 0;
  } else {
    const auto& topo = ctx.team().topo();
    g.m = topo.nsockets();
    for (int s = 0; s < g.m; ++s) {
      g.base[s] = topo.socket_base(s);
      g.size[s] = topo.socket_size(s);
    }
    g.my_group = ctx.socket();
    g.my_index = ctx.socket_rank();
  }
  return g;
}

void dpml_core(RankCtx& ctx, const std::byte* send, std::byte* recv,
               const BlockSlicing& S, Datatype d, ReduceOp op,
               const CollOpts& opts, Deliver deliver, int root) {
  const int p = ctx.nranks();
  const auto r = static_cast<std::size_t>(ctx.rank());
  const Groups g = make_groups(ctx, opts.dpml_flat);
  const std::size_t I = S.slice;
  const std::size_t RB = static_cast<std::size_t>(p) * I;  // staged per rank

  ScratchCarver carve(ctx);
  // p staging regions of RB bytes + one node-result region.
  std::byte* staging = carve.take(static_cast<std::size_t>(p) * RB);
  std::byte* node_res = carve.take(RB);
  auto stage_of = [&](int rank) { return staging + rank * RB; };

  const std::size_t C = ctx.cache().available(p);
  const std::size_t W =
      WorkSet::allreduce(S.total, p, g.m, I);  // conservative

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    // Copy-in: my sub-slice of every block, gathered into my staging.
    {
      trace::Span sp(trace::Phase::copy_in);
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, true, C, W, I),
            static_cast<int>(copy::active_isa())));
      for (int b = 0; b < p; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len > 0) {
          sp.add_bytes(len);
          copy::dispatch_copy(opts.policy, stage_of(ctx.rank()) + lb * I,
                              send + S.off(lb, t), len,
                              /*temporal_hint=*/true, C, W);
        }
      }
    }
    ctx.barrier();

    // Stage 1: intra-group reduction into the group leader's staging.
    // The closing barrier must be team-uniform: with heterogeneous socket
    // sizes (e.g. 3 ranks over 2 sockets) a singleton group does no stage-1
    // work but still has to match its peers' barrier, or every later
    // barrier pairs off-by-one and the team deadlocks.
    bool any_multi = false;
    for (int s = 0; s < g.m; ++s) any_multi = any_multi || g.size[s] > 1;
    const int n = g.size[g.my_group];
    if (n > 1) {
      trace::Span sp(trace::Phase::reduce);
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            false, static_cast<int>(copy::active_isa())));
      const int lo = g.my_index * p / n;
      const int hi = (g.my_index + 1) * p / n;
      for (int b = lo; b < hi; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len == 0) continue;
        sp.add_bytes(len);
        const void* srcs[rt::kMaxRanks];
        for (int i = 0; i < n; ++i)
          srcs[i] = stage_of(g.base[g.my_group] + i) + lb * I;
        copy::reduce_out_multi(stage_of(g.base[g.my_group]) + lb * I, srcs,
                               n, len, d, op, /*nt_store=*/false);
      }
    }
    if (any_multi) ctx.barrier();

    // Stage 2: block owners combine the group leaders' partials.
    const std::size_t len_r = S.len(r, t);
    if (len_r > 0) {
      const void* srcs[rt::kMaxRanks];
      for (int x = 0; x < g.m; ++x)
        srcs[x] = stage_of(g.base[x]) + r * I;
      if (deliver == Deliver::scatter) {
        const bool nt = copy::use_nt_store(opts.policy, /*temporal_hint=*/false,
                                           C, W, len_r);
        trace::Span sp(trace::Phase::reduce, len_r);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              nt, static_cast<int>(copy::active_isa())));
        copy::reduce_out_multi(recv + S.off_in_block(t), srcs, g.m, len_r, d,
                               op, nt);
      } else {
        trace::Span sp(trace::Phase::reduce, len_r);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              false, static_cast<int>(copy::active_isa())));
        copy::reduce_out_multi(node_res + r * I, srcs, g.m, len_r, d, op,
                               /*nt_store=*/false);
      }
    }
    ctx.barrier();

    // Copy-out for allreduce / reduce.
    if (deliver != Deliver::scatter) {
      if (deliver == Deliver::all ||
          (deliver == Deliver::root_only && ctx.rank() == root)) {
        trace::Span sp(trace::Phase::copy_out);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              copy::use_nt_store(opts.policy, false, C, W, I),
              static_cast<int>(copy::active_isa())));
        for (int b = 0; b < p; ++b) {
          const auto lb = static_cast<std::size_t>(b);
          const std::size_t len = S.len(lb, t);
          if (len > 0) {
            sp.add_bytes(len);
            copy::dispatch_copy(opts.policy, recv + S.off(lb, t),
                                node_res + lb * I, len,
                                /*temporal_hint=*/false, C, W);
          }
        }
      }
      ctx.barrier();
    }
  }
}

/// Clamp the per-round chunk so (p+1) staging regions of p*I fit scratch.
BlockSlicing dpml_slicing(RankCtx& ctx, std::size_t total,
                          std::size_t block_bytes, const CollOpts& opts) {
  const auto p = static_cast<std::size_t>(ctx.nranks());
  CollOpts o = opts;
  const std::size_t cap = ctx.scratch_bytes() / ((p + 1) * p + 2);
  o.slice_max = std::clamp<std::size_t>(opts.dpml_chunk, kCacheline,
                                        std::max(cap, kCacheline));
  YHCCL_REQUIRE(o.slice_max >= kCacheline,
                "scratch too small for DPML staging");
  return BlockSlicing::with_block(total, block_bytes, o);
}

}  // namespace

void dpml_two_level_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                                   std::size_t count, Datatype d, ReduceOp op,
                                   const CollOpts& opts) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t B = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, B);
    return;
  }
  const std::size_t total = B * static_cast<std::size_t>(p);
  const auto S = dpml_slicing(ctx, total, B, opts);
  dpml_core(ctx, static_cast<const std::byte*>(send),
            static_cast<std::byte*>(recv), S, d, op, opts, Deliver::scatter,
            -1);
}

void dpml_two_level_allreduce(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, total);
    return;
  }
  const std::size_t B = round_up(
      ceil_div(total, static_cast<std::size_t>(p)), kCacheline);
  const auto S = dpml_slicing(ctx, total, std::max(B, kCacheline), opts);
  dpml_core(ctx, static_cast<const std::byte*>(send),
            static_cast<std::byte*>(recv), S, d, op, opts, Deliver::all, -1);
}

void dpml_two_level_reduce(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           int root, const CollOpts& opts) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, total);
    return;
  }
  const std::size_t B = round_up(
      ceil_div(total, static_cast<std::size_t>(p)), kCacheline);
  const auto S = dpml_slicing(ctx, total, std::max(B, kCacheline), opts);
  dpml_core(ctx, static_cast<const std::byte*>(send),
            static_cast<std::byte*>(recv), S, d, op, opts,
            Deliver::root_only, root);
}

}  // namespace yhccl::coll::detail
