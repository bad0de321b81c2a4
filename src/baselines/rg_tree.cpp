// RG [Jain et al., SC'18] — the pipelined k-ary tree reduction on shared
// memory used by Intel MPI's intra-node collectives (paper Fig. 1a).
//
// Every rank owns a double-buffered I-sized slot in shared memory.  Per
// slice, leaves copy their sendbuf slice into their slot; interior nodes
// wait for their children's slots, reduce children + own contribution into
// their slot (the root delivers into its receive buffer).  Copy-ins by the
// children are exactly the redundant movement MA avoids: every non-root
// byte crosses shared memory.
//
// Flow control: a node may overwrite its slot for slice t (same buffer as
// slice t-2) only after its parent has consumed slice t-2, signalled with
// the per-rank progress flags.
#include <cstdint>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/copy/reduce_kernels.hpp"

namespace yhccl::base {

namespace {

struct TreePos {
  int parent = -1;           // real rank of parent (-1 for root)
  int children[16];          // real ranks
  int nchildren = 0;
};

/// Heap-ordered k-ary tree on virtual ids v = (rank - root) mod p.
TreePos tree_position(int rank, int root, int p, int k) {
  TreePos t;
  const int v = (rank - root + p) % p;
  if (v != 0) t.parent = ((v - 1) / k + root) % p;
  for (int i = 0; i < k; ++i) {
    const int c = v * k + 1 + i;
    if (c < p && t.nchildren < 16) t.children[t.nchildren++] = (c + root) % p;
  }
  return t;
}

}  // namespace

void rg_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, int root, const RgOpts& opts) {
  coll::detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t s = count * dtype_size(d);
  const auto* sb = static_cast<const std::byte*>(send);
  auto* rb = static_cast<std::byte*>(recv);
  if (p == 1) {
    copy::t_copy(rb, sb, s);
    return;
  }
  YHCCL_REQUIRE(opts.branch >= 1 && opts.branch <= 16, "rg branch degree");
  const std::size_t I =
      std::max(round_up(std::min(opts.slice, std::max(s, std::size_t{1})),
                        kCacheline),
               kCacheline);
  const std::size_t nsl = ceil_div(s, I);
  coll::detail::ScratchCarver carve(ctx);
  std::byte* shm = carve.take(2 * static_cast<std::size_t>(p) * I);
  auto slot = [&](int rank, std::size_t t) {
    return shm + (static_cast<std::size_t>(rank) * 2 + t % 2) * I;
  };
  const TreePos pos = tree_position(ctx.rank(), root, p, opts.branch);
  const std::uint64_t seq = ctx.next_seq();
  auto sv = [&](std::uint64_t step) { return rt::RankCtx::step_value(seq, step); };

  for (std::size_t t = 0; t < nsl; ++t) {
    const std::size_t len = std::min(I, s - t * I);
    // Flow control: slice t reuses the slice t-2 buffer; the parent must
    // have consumed slice t-2 (its flag reaches t-1) before we overwrite.
    if (pos.parent >= 0 && t >= 2) ctx.step_wait(pos.parent, sv(t - 1));
    if (pos.nchildren == 0) {
      copy::t_copy(slot(ctx.rank(), t), sb + t * I, len);
    } else {
      for (int c = 0; c < pos.nchildren; ++c)
        ctx.step_wait(pos.children[c], sv(t + 1));
      const void* srcs[18];
      srcs[0] = sb + t * I;
      for (int c = 0; c < pos.nchildren; ++c)
        srcs[c + 1] = slot(pos.children[c], t);
      std::byte* dest =
          pos.parent < 0 ? rb + t * I : slot(ctx.rank(), t);
      copy::reduce_out_multi(dest, srcs, pos.nchildren + 1, len, d, op,
                             /*nt_store=*/false);
    }
    ctx.step_publish(sv(t + 1));
  }
  ctx.barrier();  // slots may be reused by the next collective
}

void rg_allreduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op,
                  const RgOpts& opts) {
  // Tree reduce to rank 0 followed by the classic pipelined shared-memory
  // broadcast with memmove-style copies (the configuration the paper
  // attributes to the RG framework).
  rg_reduce(ctx, send, recv, count, d, op, /*root=*/0, opts);
  CollOpts bopts;
  bopts.algorithm = coll::Algorithm::pipelined;
  bopts.policy = copy::CopyPolicy::memmove_model;
  bopts.slice_max = opts.slice;
  coll::broadcast(ctx, recv, count, d, /*root=*/0, bopts);
}

}  // namespace yhccl::base
