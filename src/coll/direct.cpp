// Single-copy allreduce for teams whose ranks share an address space
// (docs/algorithms.md).
//
// The MA allreduce stages every slice through shared memory, which costs
// DAV s(5p-1)..s(5p+1); that staging is only forced when ranks cannot load
// each other's buffers, the paper's process setting.  Thread-backed ranks
// can (XPMEM semantics, as in the hybrid MPI+MPI shared-window
// collectives), so this arm reads its peers' buffers in place:
//   1. every rank publishes its send and recv pointers in its RemoteWindow
//      row, then passes a node barrier;
//   2. rank r reduces block r of every send buffer, in rank order 0..p-1,
//      straight into its own recv with one fused reduce_out_multi;
//   3. a second barrier;
//   4. rank r copies the other p-1 blocks from their owners' recv buffers;
//   5. a trailing barrier: peers may still be reading my buffers.
// DAV per node: (p+1)s for the reductions plus 2(p-1)s for the copies, so
// s(3p-1) (model::impl::xpmem_allreduce_ops).  Both stores follow §4.2
// adaptive NT over W = 2ps.
//
// In place (send == recv) block r of my buffer is both an operand and the
// destination of my reduction; reduce_out_multi allows `out` to alias one
// source exactly, so the rank order, and hence every result bit, is the
// same as out of place.  No other rank writes block r of my buffer before
// barrier 2, and no rank reads it again after.
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/runtime/fault.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll {

namespace detail {

namespace {

constexpr int kSendWindow = 0;  // RemoteWindow registry slots
constexpr int kRecvWindow = 1;

std::uint8_t store_variant(bool nt) noexcept {
  return trace::copy_variant(nt, static_cast<int>(copy::active_isa()));
}

}  // namespace

void direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts, bool nt_reduce) {
  check_reduction_args(ctx, send, count, d, op);
  YHCCL_REQUIRE(ctx.team().shares_address_space(),
                "the direct algorithm needs ranks that share an address "
                "space (a thread team)");
  if (count == 0) return;
  const int p = ctx.nranks();
  const int me = ctx.rank();
  const std::size_t s = count * dtype_size(d);
  trace::CollScope coll_scope(trace_coll_id(CollKind::allreduce), s,
                              trace_alg_id(Algorithm::direct));
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, send, s);
    return;
  }
  // Block b covers [b·B, b·B + B) of the message; a cache-line multiple,
  // so every block holds whole elements.  Trailing blocks may be empty.
  const std::size_t B = std::max(
      round_up(ceil_div(s, static_cast<std::size_t>(p)), kCacheline),
      kCacheline);
  const auto block_len = [&](int b) {
    const std::size_t start = static_cast<std::size_t>(b) * B;
    return start >= s ? std::size_t{0} : std::min(B, s - start);
  };
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = WorkSet::direct_allreduce(s, p);

  ctx.publish_buffer(kSendWindow, send, s);
  ctx.publish_buffer(kRecvWindow, recv, s);
  ctx.barrier();
  const void* srcs[rt::kMaxRanks];
  const std::byte* owner_recv[rt::kMaxRanks];
  const std::size_t off = static_cast<std::size_t>(me) * B;
  for (int q = 0; q < p; ++q) {
    srcs[q] = static_cast<const std::byte*>(
                  ctx.remote_buffer(q, kSendWindow).ptr) +
              off;
    owner_recv[q] =
        static_cast<const std::byte*>(ctx.remote_buffer(q, kRecvWindow).ptr);
  }
  // Abort/injection checks once per block, as the MA arms do per slice:
  // a rank leaves a long reduce or copy phase promptly on a peer's fault.
  rt::fault_point("slice");
  if (const std::size_t len = block_len(me); len > 0) {
    const bool nt = nt_reduce && copy::use_nt_store(opts.policy,
                                                    /*temporal_hint=*/false,
                                                    C, W, len);
    trace::Span sp(trace::Phase::reduce, len);
    if (sp.active()) sp.set_variant(store_variant(nt));
    copy::reduce_out_multi(rb + off, srcs, p, len, d, op, nt);
  }
  ctx.barrier();
  {
    trace::Span sp(trace::Phase::copy_out, s - block_len(me));
    if (sp.active())
      sp.set_variant(store_variant(copy::use_nt_store(
          opts.policy, /*temporal_hint=*/false, C, W, B)));
    for (int b = 0; b < p; ++b) {
      const std::size_t len = block_len(b);
      if (b == me || len == 0) continue;
      rt::fault_point("slice");
      const std::size_t at = static_cast<std::size_t>(b) * B;
      copy::dispatch_copy(opts.policy, rb + at, owner_recv[b] + at, len,
                          /*temporal_hint=*/false, C, W);
    }
  }
  ctx.barrier();  // peers may still be reading my send and recv buffers
}

}  // namespace detail

void direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts) {
  detail::direct_allreduce(ctx, send, recv, count, d, op, opts,
                           /*nt_reduce=*/true);
}

}  // namespace yhccl::coll
