// Single-copy allreduce and reduce_scatter over peers' own buffers
// (docs/algorithms.md §3c).
//
// The MA arms stage every slice through shared memory, which costs DAV
// s(5p-1)..s(5p+1) for allreduce and s(3p+1) for reduce_scatter; that
// staging is only forced when ranks cannot load each other's buffers.
// Thread-backed ranks can (XPMEM semantics), and so can forked ranks
// whose buffers all lie in shared windows — memory the parent mapped
// shared before run() forked them, which every rank sees at the same
// address (the MPI_Win_allocate_shared model of the hybrid MPI+MPI
// shared-window collectives).  Every rank publishes its send and recv
// pointers in its RemoteWindow row and passes a node barrier; a forked
// team then checks every row against the windows frozen at fork
// (window_verdict).  Every rank reads the same rows against the same list,
// so all reach the same verdict: run single-copy, or leave before touching
// any peer's buffer — to the §5.1 staged arm when the plan served direct,
// with an error when the caller named it.  Rank r then owns block r.
//
// reduce_scatter: rank r reduces block r of every send buffer, in rank
// order 0..p-1, into its recv, one fused reduce_out_multi per slice of
// opts.slice_max, then a trailing barrier, since peers may still be
// reading my send buffer.  DAV (p+1)s over the input s, 2 barriers, no
// flags (model::impl::direct_reduce_scatter_ops).
//
// allreduce, phase 2 has two schedules:
//
//   pull (W = 2ps <= p·c''): rank r reduces block r of every send buffer,
//     in rank order 0..p-1, into its own recv with one fused
//     reduce_out_multi; a second barrier; rank r copies the other p-1
//     blocks from their owners' recv buffers; a trailing barrier, since
//     peers may still be reading my buffers.  Stores follow §4.2 adaptive
//     NT over C = c' + p·c''.
//   push (W > p·c''): rank r walks block r in slices of opts.slice_max;
//     each slice is reduced in rank order into its own recv with temporal
//     stores, so it stays in L1/L2, then copied into block r of every
//     peer's recv; one trailing barrier.  The owner never reads a peer's
//     lines back, so they can only be reused from the peers' private
//     caches: the pushes take §4.2's rule over C = p·c''.  The first
//     store into a peer's recv comes after the verdict covered every recv.
//
// Either way DAV per node is (p+1)s for the reductions plus 2(p-1)s for the
// copies, so s(3p-1) (model::impl::xpmem_allreduce_ops); push re-reads its
// slices from L1/L2, so memory traffic drops from s(3p-1) to 2ps, and it
// passes two barriers instead of three.
//
// Only rank r ever reads or writes block r of any buffer, so every
// schedule on either backend gives the same bits.  In place (allreduce:
// send == recv; reduce_scatter: recv == block r of send) my recv is both an
// operand and the destination of my reduction; reduce_out_multi allows
// `out` to alias one source exactly, so the rank order, and hence every
// result bit, is the same as out of place.  Push overwrites a slice of a
// peer's block r only after it reduced that slice.
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

bool overlaps(const rt::RemoteBuf& a, const rt::RemoteBuf& b) noexcept {
  const auto a0 = reinterpret_cast<std::uintptr_t>(a.ptr);
  const auto b0 = reinterpret_cast<std::uintptr_t>(b.ptr);
  return a0 < b0 + b.bytes && b0 < a0 + a.bytes;
}

/// Direct's verdict, taken after its first barrier with every rank's send
/// and recv published: may this call run single-copy?  Thread teams share
/// one address space.  On a forked team every send buffer — and every
/// recv, when peers store into or load from it — must lie in a window
/// frozen at fork, and no rank's recv may overlap its own send anywhere
/// but exactly its own block, at `own_stride`·rank (in place).  All ranks
/// read the same p rows against the same list, so all reach the same
/// verdict.  A negative one returns false under DirectMiss::fall_back and
/// throws the same error on every rank under DirectMiss::raise.
bool window_verdict(RankCtx& ctx, std::size_t own_stride,
                    bool peers_touch_recv, DirectMiss miss) {
  if (ctx.team().caps().shared_address_space()) return true;
  const rt::ShmWindows& win = ctx.team().windows();
  bool ok = true;
  for (int q = 0; q < ctx.nranks() && ok; ++q) {
    const rt::RemoteBuf sb = ctx.remote_buffer(q, kSendWindow);
    const rt::RemoteBuf rb = ctx.remote_buffer(q, kRecvWindow);
    const auto* own = static_cast<const std::byte*>(sb.ptr) +
                      static_cast<std::size_t>(q) * own_stride;
    ok = win.covers(sb.ptr, sb.bytes) &&
         (!peers_touch_recv || win.covers(rb.ptr, rb.bytes)) &&
         (!overlaps(sb, rb) || rb.ptr == own);
  }
  YHCCL_REQUIRE(ok || miss == DirectMiss::fall_back,
                "the direct algorithm needs ranks that share an address "
                "space, or every rank's buffers in shared windows mapped "
                "before run()");
  return ok;
}

}  // namespace

bool direct_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           const CollOpts& opts, DirectMiss miss) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return true;
  const int p = ctx.nranks();
  const int me = ctx.rank();
  const std::size_t B = count * dtype_size(d);
  const std::size_t s = B * static_cast<std::size_t>(p);
  trace::CollScope coll_scope(trace_coll_id(CollKind::reduce_scatter), s,
                              trace_alg_id(Algorithm::direct));
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, send, B);
    return true;
  }
  ctx.publish_buffer(kSendWindow, send, s);
  ctx.publish_buffer(kRecvWindow, recv, B);
  ctx.barrier();
  if (!window_verdict(ctx, B, /*peers_touch_recv=*/false, miss)) return false;

  const std::size_t off = static_cast<std::size_t>(me) * B;
  const void* srcs[rt::kMaxRanks];
  for (int q = 0; q < p; ++q)
    srcs[q] = static_cast<const std::byte*>(
                  ctx.remote_buffer(q, kSendWindow).ptr) +
              off;
  const std::size_t W = WorkSet::direct_reduce_scatter(s, p);
  const std::size_t C = ctx.cache().available(p);
  const std::size_t I =
      std::max(round_up(opts.slice_max, kCacheline), kCacheline);
  const void* slice_srcs[rt::kMaxRanks];
  for (std::size_t at = 0; at < B; at += I) {
    // Abort/injection checks once per slice, as the MA arms do.
    rt::fault_point("slice");
    const std::size_t len = std::min(I, B - at);
    const bool nt = copy::use_nt_store(opts.policy, /*temporal_hint=*/false,
                                       C, W, len);
    trace::Span sp(trace::Phase::reduce, len);
    if (sp.active()) sp.set_variant(store_variant(nt));
    for (int q = 0; q < p; ++q)
      slice_srcs[q] = static_cast<const std::byte*>(srcs[q]) + at;
    copy::reduce_out_multi(rb + at, slice_srcs, p, len, d, op, nt);
  }
  ctx.barrier();  // peers may still be reading my send buffer
  return true;
}

bool direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts, bool xpmem_baseline,
                      DirectMiss miss) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return true;
  const int p = ctx.nranks();
  const int me = ctx.rank();
  const std::size_t s = count * dtype_size(d);
  trace::CollScope coll_scope(trace_coll_id(CollKind::allreduce), s,
                              trace_alg_id(Algorithm::direct));
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, send, s);
    return true;
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
  const std::size_t W = WorkSet::direct_allreduce(s, p);
  const bool push = !xpmem_baseline && direct_pushes(s, p, ctx.cache());

  ctx.publish_buffer(kSendWindow, send, s);
  ctx.publish_buffer(kRecvWindow, recv, s);
  ctx.barrier();
  if (!window_verdict(ctx, 0, /*peers_touch_recv=*/true, miss)) return false;
  const void* srcs[rt::kMaxRanks];
  const std::size_t off = static_cast<std::size_t>(me) * B;
  for (int q = 0; q < p; ++q)
    srcs[q] = static_cast<const std::byte*>(
                  ctx.remote_buffer(q, kSendWindow).ptr) +
              off;
  const std::size_t mine = block_len(me);

  if (push) {
    std::byte* peer_block[rt::kMaxRanks];  // block me of peer (me+k)%p
    for (int k = 1; k < p; ++k)
      peer_block[k] =
          static_cast<std::byte*>(ctx.remote_target((me + k) % p,
                                                    kRecvWindow)) +
          off;
    const std::size_t C = private_caches(p, ctx.cache());
    const std::size_t I =
        std::max(round_up(opts.slice_max, kCacheline), kCacheline);
    const void* slice_srcs[rt::kMaxRanks];
    for (std::size_t at = 0; at < mine; at += I) {
      // Abort/injection checks once per slice, as the MA arms do: a rank
      // leaves a long push phase promptly on a peer's fault.
      rt::fault_point("slice");
      const std::size_t len = std::min(I, mine - at);
      std::byte* out = rb + off + at;
      {
        trace::Span sp(trace::Phase::reduce, len);
        if (sp.active()) sp.set_variant(store_variant(false));
        for (int q = 0; q < p; ++q)
          slice_srcs[q] = static_cast<const std::byte*>(srcs[q]) + at;
        copy::reduce_out_multi(out, slice_srcs, p, len, d, op,
                               /*nt_store=*/false);
      }
      trace::Span sp(trace::Phase::copy_out, len * (p - 1));
      if (sp.active())
        sp.set_variant(store_variant(copy::use_nt_store(
            opts.policy, /*temporal_hint=*/false, C, W, len)));
      for (int k = 1; k < p; ++k)
        copy::dispatch_copy(opts.policy, peer_block[k] + at, out, len,
                            /*temporal_hint=*/false, C, W);
    }
    ctx.barrier();  // every block has landed; peers are done with my buffers
    return true;
  }

  const std::size_t C = ctx.cache().available(p);
  const std::byte* owner_recv[rt::kMaxRanks];
  for (int q = 0; q < p; ++q)
    owner_recv[q] =
        static_cast<const std::byte*>(ctx.remote_buffer(q, kRecvWindow).ptr);
  // Abort/injection checks once per block, as the MA arms do per slice:
  // a rank leaves a long reduce or copy phase promptly on a peer's fault.
  rt::fault_point("slice");
  if (mine > 0) {
    const bool nt = !xpmem_baseline &&
                    copy::use_nt_store(opts.policy, /*temporal_hint=*/false,
                                       C, W, mine);
    trace::Span sp(trace::Phase::reduce, mine);
    if (sp.active()) sp.set_variant(store_variant(nt));
    copy::reduce_out_multi(rb + off, srcs, p, mine, d, op, nt);
  }
  ctx.barrier();
  {
    trace::Span sp(trace::Phase::copy_out, s - mine);
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
  return true;
}

}  // namespace detail

void direct_allreduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op,
                      const CollOpts& opts) {
  detail::direct_allreduce(ctx, send, recv, count, d, op, opts,
                           /*xpmem_baseline=*/false,
                           detail::DirectMiss::raise);
}

void direct_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           const CollOpts& opts) {
  detail::direct_reduce_scatter(ctx, send, recv, count, d, op, opts,
                                detail::DirectMiss::raise);
}

}  // namespace yhccl::coll
