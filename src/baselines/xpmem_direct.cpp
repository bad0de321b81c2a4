// XPMEM-style shared-address-space collectives [Hashmi et al., IPDPS'18 /
// CCGRID'19]: every rank exposes its buffers and peers reduce or copy them
// in place — a true "zero-copy" design.
//
// Two properties the paper highlights are preserved:
//  * data movement uses memmove-threshold copies (NT stores only kick in
//    when a single copy exceeds the libc threshold, which for the
//    per-block copies of all-reduce means messages above ~p * 2 MB — the
//    late crossover visible in Fig. 15);
//  * reductions read remote buffers directly (no staging), which on real
//    multi-socket machines incurs the inter-NUMA traffic the paper calls
//    out.  The virtual topology here has no NUMA penalty, so that effect
//    is modelled in the netsim/DAV analyses instead.
//
// Requires an address space shared with the peers: the thread backend (the
// XPMEM analogue), since fork()ed siblings cannot dereference each other's
// private pointers.  The allreduce is the library's own single-copy arm
// (coll::Algorithm::direct) run with these baseline copy semantics.
#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/copy/reduce_kernels.hpp"

#include <unistd.h>

namespace yhccl::base {

namespace {

constexpr int kSendSlot = 0;
constexpr int kRecvSlot = 1;

/// Resolve a peer's published buffer to a directly-loadable pointer.
const std::byte* mapped(RankCtx& ctx, int peer, int slot) {
  const auto rb = ctx.remote_buffer(peer, slot);
  YHCCL_REQUIRE(rb.pid == getpid(),
                "xpmem baselines need a shared address space "
                "(use ThreadTeam)");
  return static_cast<const std::byte*>(rb.ptr);
}

struct Blocks {
  std::size_t total, B;
  std::size_t len(int b) const {
    const std::size_t start = static_cast<std::size_t>(b) * B;
    return start >= total ? 0 : std::min(B, total - start);
  }
  std::size_t off(int b) const { return static_cast<std::size_t>(b) * B; }
};

Blocks partition(std::size_t total, int p) {
  const std::size_t B = std::max(
      round_up(ceil_div(total, static_cast<std::size_t>(p)), kCacheline),
      kCacheline);
  return Blocks{total, B};
}

/// Reduce block `b` across every rank's send buffer into `dest`.  My own
/// buffer goes first: reduce_out_multi only supports `dest` aliasing
/// srcs[0], which is exactly the in-place (send == recv) case.
void reduce_block_direct(RankCtx& ctx, const Blocks& blk, int b,
                         std::byte* dest, Datatype d, ReduceOp op) {
  const std::size_t len = blk.len(b);
  if (len == 0) return;
  const void* srcs[rt::kMaxRanks];
  srcs[0] = mapped(ctx, ctx.rank(), kSendSlot) + blk.off(b);
  int idx = 1;
  for (int a = 0; a < ctx.nranks(); ++a)
    if (a != ctx.rank()) srcs[idx++] = mapped(ctx, a, kSendSlot) + blk.off(b);
  copy::reduce_out_multi(dest, srcs, ctx.nranks(), len, d, op,
                         /*nt_store=*/false);
}

}  // namespace

void xpmem_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                          std::size_t count, Datatype d, ReduceOp op) {
  coll::detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t B = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, B);
    return;
  }
  const Blocks blk{B * static_cast<std::size_t>(p), B};
  ctx.publish_buffer(kSendSlot, send, blk.total);
  ctx.barrier();
  reduce_block_direct(ctx, blk, ctx.rank(), static_cast<std::byte*>(recv), d,
                      op);
  ctx.barrier();  // peers may still be reading my send buffer
}

void xpmem_allreduce(RankCtx& ctx, const void* send, void* recv,
                     std::size_t count, Datatype d, ReduceOp op) {
  // The library's direct arm with the baseline's semantics: the pull
  // schedule, memmove-threshold gathers and a temporal reduce store.
  coll::CollOpts opts;
  opts.policy = copy::CopyPolicy::memmove_model;
  coll::detail::direct_allreduce(ctx, send, recv, count, d, op, opts,
                                 /*xpmem_baseline=*/true,
                                 coll::detail::DirectMiss::raise);
}

void xpmem_reduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op, int root) {
  coll::detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, total);
    return;
  }
  const Blocks blk = partition(total, p);
  ctx.publish_buffer(kSendSlot, send, total);
  if (ctx.rank() == root) ctx.publish_buffer(kRecvSlot, recv, total);
  ctx.barrier();
  // The block owners reduce straight into the root's receive buffer.
  auto* root_rb = const_cast<std::byte*>(mapped(ctx, root, kRecvSlot));
  reduce_block_direct(ctx, blk, ctx.rank(), root_rb + blk.off(ctx.rank()), d,
                      op);
  ctx.barrier();
}

void xpmem_broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
                     int root) {
  if (count == 0 || ctx.nranks() == 1) return;
  const std::size_t total = count * dtype_size(d);
  if (ctx.rank() == root) ctx.publish_buffer(kSendSlot, buf, total);
  ctx.barrier();
  if (ctx.rank() != root)
    copy::memmove_model_copy(buf, mapped(ctx, root, kSendSlot), total);
  ctx.barrier();
}

void xpmem_allgather(RankCtx& ctx, const void* send, void* recv,
                     std::size_t count, Datatype d) {
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t s = count * dtype_size(d);
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, send, s);
    return;
  }
  ctx.publish_buffer(kSendSlot, send, s);
  ctx.barrier();
  for (int a = 0; a < p; ++a)
    copy::memmove_model_copy(rb + static_cast<std::size_t>(a) * s,
                             a == ctx.rank()
                                 ? static_cast<const std::byte*>(send)
                                 : mapped(ctx, a, kSendSlot),
                             s);
  ctx.barrier();
}

}  // namespace yhccl::base
