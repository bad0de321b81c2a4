// Flat movement-avoiding (MA) sliced reduction (paper §3.2-§3.5, Fig. 5/6).
//
// The message is split into p ownership blocks; each round processes one
// I-sized sub-slice of every block through the optimal reduction schedule:
//
//   step j of rank r works on slice l = (r+1+j) mod p
//     j = 0      copy my sendbuf slice l into shm slot l        (V = 2I)
//     0 < j      reduce my sendbuf slice l into shm slot l      (no copy)
//     j = p-1    l == r: fused final reduce, streamed to the destination
//
// Slot l is touched in rank order l-1, l-2, ..., l+1, l (mod p), so the
// only dependency is on the next-higher rank having finished the previous
// step — enforced with per-rank monotone progress flags (no barriers inside
// the reduce-scatter pipeline, including across rounds).
//
// Per tree this copies exactly one slice: the provably minimal copy volume
// (Theorem 3.1), giving the Table 1 DAV of s*(3p-1) for reduce-scatter.
#include <cstdint>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll::detail {

namespace {

enum class FinalDest : int {
  recv_block,  ///< stream the last reduce into my receive block (scatter)
  shm,         ///< keep the result in shared memory (allreduce/reduce)
};

/// One MA round (steps j = 0..p-1 of round t for this rank).
void ma_round(RankCtx& ctx, const std::byte* send, std::byte* recv_block,
              std::byte* shm, const BlockSlicing& S, std::size_t t,
              Datatype d, ReduceOp op, const CollOpts& opts, std::size_t C,
              std::size_t W, std::uint64_t seq, FinalDest fd) {
  const int p = ctx.nranks();
  const int r = ctx.rank();
  const int right = (r + 1) % p;
  for (int j = 0; j < p; ++j) {
    // Abort/injection check once per slice step: compute-heavy reduce
    // phases leave the team promptly instead of at the next sync point.
    rt::fault_point("slice");
    const auto l = static_cast<std::size_t>((r + 1 + j) % p);
    const std::uint64_t k = t * static_cast<std::size_t>(p) +
                            static_cast<std::size_t>(j);
    if (k > 0) ctx.step_wait(right, rt::RankCtx::step_value(seq, k));
    const std::size_t len = S.len(l, t);
    if (len > 0) {
      std::byte* slot = shm + l * S.slice;
      const std::byte* src = send + S.off(l, t);
      if (j == 0) {
        // The shared slot is re-read by every later step: temporal hint.
        trace::Span sp(trace::Phase::copy_in, len);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              copy::use_nt_store(opts.policy, true, C, W, len),
              static_cast<int>(copy::active_isa())));
        copy::dispatch_copy(opts.policy, slot, src, len,
                            /*temporal_hint=*/true, C, W);
      } else if (j < p - 1 || fd == FinalDest::shm) {
        trace::Span sp(trace::Phase::reduce, len);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              false, static_cast<int>(copy::active_isa())));
        copy::reduce_inplace(slot, src, len, d, op);
      } else {
        // j == p-1 implies l == r: fuse the last reduction with the
        // delivery into my receive block; the result is never re-read by
        // this collective, so the store may stream.
        const bool nt = copy::use_nt_store(opts.policy,
                                           /*temporal_hint=*/false, C, W, len);
        trace::Span sp(trace::Phase::reduce, len);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              nt, static_cast<int>(copy::active_isa())));
        copy::reduce_out(recv_block + S.off_in_block(t), slot, src, len, d,
                         op, nt);
      }
    }
    ctx.step_publish(rt::RankCtx::step_value(seq, k + 1));
  }
}

}  // namespace

void ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                       std::size_t count, Datatype d, ReduceOp op,
                       const CollOpts& opts) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t B = count * dtype_size(d);
  const auto* sb = static_cast<const std::byte*>(send);
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, sb, B);
    return;
  }
  const std::size_t total = B * static_cast<std::size_t>(p);
  const auto S = BlockSlicing::with_block(total, B, opts);
  ScratchCarver carve(ctx);
  std::byte* shm = carve.take(static_cast<std::size_t>(p) * S.slice);
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = WorkSet::reduce_scatter(total, p, S.slice);
  const std::uint64_t seq = ctx.next_seq();

  for (std::size_t t = 0; t < S.nrounds; ++t)
    ma_round(ctx, sb, rb, shm, S, t, d, op, opts, C, W, seq,
             FinalDest::recv_block);
  // Protect shm reuse by the next collective (a laggard's final reduce may
  // still be reading its slot).
  ctx.barrier();
}

void ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op,
                  const CollOpts& opts) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  const auto* sb = static_cast<const std::byte*>(send);
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, sb, total);
    return;
  }
  const auto S = BlockSlicing::partitioned(total, p, opts);
  ScratchCarver carve(ctx);
  std::byte* shm = carve.take(static_cast<std::size_t>(p) * S.slice);
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = WorkSet::allreduce(total, p, 1, S.slice);
  const std::uint64_t seq = ctx.next_seq();

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    ma_round(ctx, sb, nullptr, shm, S, t, d, op, opts, C, W, seq,
             FinalDest::shm);
    ctx.barrier();  // all final reduces of this round done
    // Copy-out (Algorithm 2 lines 14-16): the receive buffer is only read
    // after the collective, so these stores may stream.
    rt::fault_point("slice");
    {
      trace::Span sp(trace::Phase::copy_out);
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, false, C, W, S.slice),
            static_cast<int>(copy::active_isa())));
      for (int b = 0; b < p; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len > 0) {
          sp.add_bytes(len);
          copy::dispatch_copy(opts.policy, rb + S.off(lb, t),
                              shm + lb * S.slice, len,
                              /*temporal_hint=*/false, C, W);
        }
      }
    }
    ctx.barrier();  // shm slots may be overwritten by the next round
  }
}

void ma_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, int root, const CollOpts& opts) {
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  const auto* sb = static_cast<const std::byte*>(send);
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, sb, total);
    return;
  }
  const auto S = BlockSlicing::partitioned(total, p, opts);
  ScratchCarver carve(ctx);
  std::byte* shm = carve.take(static_cast<std::size_t>(p) * S.slice);
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = WorkSet::reduce(total, p, 1, S.slice);
  const std::uint64_t seq = ctx.next_seq();

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    ma_round(ctx, sb, nullptr, shm, S, t, d, op, opts, C, W, seq,
             FinalDest::shm);
    ctx.barrier();
    rt::fault_point("slice");
    if (ctx.rank() == root) {
      trace::Span sp(trace::Phase::copy_out);
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, false, C, W, S.slice),
            static_cast<int>(copy::active_isa())));
      for (int b = 0; b < p; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len > 0) {
          sp.add_bytes(len);
          copy::dispatch_copy(opts.policy, rb + S.off(lb, t),
                              shm + lb * S.slice, len,
                              /*temporal_hint=*/false, C, W);
        }
      }
    }
    ctx.barrier();
  }
}

}  // namespace yhccl::coll::detail
