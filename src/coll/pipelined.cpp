// Pipelined shared-memory broadcast and all-gather with adaptive
// non-temporal stores (paper §4.3, Algorithms 3 and 4).
//
// Classic double-buffered pipeline: while producers fill one I-sized slot,
// consumers drain the other; one node barrier per slice.  The copy into
// shared memory is temporal (read again immediately); the copy into the
// receive buffers is non-temporal whenever the collective's working set
// exceeds the available cache.
#include <cstdint>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll::detail {

namespace {

std::size_t pipeline_slice(std::size_t total, const CollOpts& opts) {
  const std::size_t imax =
      std::max(round_up(opts.slice_max, kCacheline), kCacheline);
  const std::size_t want = round_up(std::max<std::size_t>(total, 1),
                                    kCacheline);
  return std::min(want, imax);
}

}  // namespace

void pipelined_broadcast(RankCtx& ctx, void* buf, std::size_t count,
                         Datatype d, int root, const CollOpts& opts) {
  if (count == 0 || ctx.nranks() == 1) return;
  const int p = ctx.nranks();
  const std::size_t s = count * dtype_size(d);
  const std::size_t I = pipeline_slice(s, opts);
  const std::size_t nsl = ceil_div(s, I);
  ScratchCarver carve(ctx);
  std::byte* shm = carve.take(2 * I);
  auto* b = static_cast<std::byte*>(buf);
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = WorkSet::broadcast(s, p, I);

  auto slice_len = [&](std::size_t k) { return std::min(I, s - k * I); };

  for (std::size_t k = 0; k < nsl; ++k) {
    // One abort/injection check per pipeline stage (slot-copy granularity).
    rt::fault_point("pipeline");
    if (ctx.rank() == root) {
      // Producer side: the slot is consumed right away -> temporal.
      trace::Span sp(trace::Phase::copy_in, slice_len(k));
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, true, C, W, slice_len(k)),
            static_cast<int>(copy::active_isa())));
      copy::dispatch_copy(opts.policy, shm + (k % 2) * I, b + k * I,
                          slice_len(k), /*temporal_hint=*/true, C, W);
    } else if (k >= 1) {
      // Consumer side: receive buffers are used only after the collective.
      trace::Span sp(trace::Phase::copy_out, slice_len(k - 1));
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, false, C, W, slice_len(k - 1)),
            static_cast<int>(copy::active_isa())));
      copy::dispatch_copy(opts.policy, b + (k - 1) * I,
                          shm + ((k - 1) % 2) * I, slice_len(k - 1),
                          /*temporal_hint=*/false, C, W);
    }
    ctx.barrier();
  }
  if (ctx.rank() != root) {
    trace::Span sp(trace::Phase::copy_out, slice_len(nsl - 1));
    if (sp.active())
      sp.set_variant(trace::copy_variant(
          copy::use_nt_store(opts.policy, false, C, W, slice_len(nsl - 1)),
          static_cast<int>(copy::active_isa())));
    copy::dispatch_copy(opts.policy, b + (nsl - 1) * I,
                        shm + ((nsl - 1) % 2) * I, slice_len(nsl - 1),
                        /*temporal_hint=*/false, C, W);
  }
  ctx.barrier();  // protect slot reuse by the next collective
}

void pipelined_allgather(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d,
                         const CollOpts& opts) {
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t s = count * dtype_size(d);
  const auto* sb = static_cast<const std::byte*>(send);
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, sb, s);
    return;
  }
  const std::size_t I = pipeline_slice(s, opts);
  const std::size_t nsl = ceil_div(s, I);
  ScratchCarver carve(ctx);
  std::byte* shm =
      carve.take(2 * static_cast<std::size_t>(p) * I);  // p double buffers
  auto slot = [&](int rank, std::size_t k) {
    return shm + (static_cast<std::size_t>(rank) * 2 + k % 2) * I;
  };
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = WorkSet::allgather(s, p, I);
  auto slice_len = [&](std::size_t k) { return std::min(I, s - k * I); };

  for (std::size_t k = 0; k < nsl; ++k) {
    rt::fault_point("pipeline");
    {
      trace::Span sp(trace::Phase::copy_in, slice_len(k));
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, true, C, W, slice_len(k)),
            static_cast<int>(copy::active_isa())));
      copy::dispatch_copy(opts.policy, slot(ctx.rank(), k), sb + k * I,
                          slice_len(k), /*temporal_hint=*/true, C, W);
    }
    if (k >= 1) {
      const std::size_t lp = slice_len(k - 1);
      trace::Span sp(trace::Phase::copy_out);
      if (sp.active())
        sp.set_variant(trace::copy_variant(
            copy::use_nt_store(opts.policy, false, C, W, lp),
            static_cast<int>(copy::active_isa())));
      for (int a = 0; a < p; ++a) {
        sp.add_bytes(lp);
        copy::dispatch_copy(opts.policy,
                            rb + static_cast<std::size_t>(a) * s + (k - 1) * I,
                            slot(a, k - 1), lp, /*temporal_hint=*/false, C,
                            W);
      }
    }
    ctx.barrier();
  }
  const std::size_t lp = slice_len(nsl - 1);
  {
    trace::Span sp(trace::Phase::copy_out);
    if (sp.active())
      sp.set_variant(trace::copy_variant(
          copy::use_nt_store(opts.policy, false, C, W, lp),
          static_cast<int>(copy::active_isa())));
    for (int a = 0; a < p; ++a) {
      sp.add_bytes(lp);
      copy::dispatch_copy(opts.policy,
                          rb + static_cast<std::size_t>(a) * s + (nsl - 1) * I,
                          slot(a, nsl - 1), lp, /*temporal_hint=*/false, C, W);
    }
  }
  ctx.barrier();
}

}  // namespace yhccl::coll::detail
