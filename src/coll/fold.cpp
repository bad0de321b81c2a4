// One-barrier fold allreduce for small messages (docs/algorithms.md).
//
// Below a few KB the §5.1 small-message regime is bound by synchronization,
// not data movement: two-level DPML spends four node barriers per call on
// a 2-socket team.  The fold arm spends one:
//   1. every rank copies its s bytes into its slot of a 16 KB shared stage;
//   2. one node barrier;
//   3. every rank folds all p slots, in rank order 0..p-1, straight into
//      its receive buffer with one fused reduce_out_multi.
// There is no trailing barrier.  The team reserves two stages and
// alternates them per call (RankCtx::next_fold_stage), so call k+2 writes
// call k's stage only after passing call k+1's barrier, which no rank
// reaches before it finished reading call k.  reduce_out_multi fixes the
// operand order, so every rank computes the same bits on every backend
// and ISA tier.  DAV per rank: copy-in 2s + fold (p+1)s.
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll {

void fold_allreduce(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t s = count * dtype_size(d);
  YHCCL_REQUIRE(s <= fold_max_bytes(p),
                "fold allreduce: message exceeds its fold-stage slot "
                "(needs s <= fold_max_bytes(p))");
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::allreduce), s,
                              detail::trace_alg_id(Algorithm::fold));
  if (p == 1) {
    copy::t_copy(recv, send, s);
    return;
  }
  const std::size_t slot = round_up(s, kCacheline);
  std::byte* stage = ctx.next_fold_stage();
  const std::size_t C = ctx.cache().available(p);
  const std::size_t W = detail::WorkSet::allreduce(s, p, 1, slot);
  {
    const bool nt = copy::use_nt_store(opts.policy, /*temporal_hint=*/true,
                                       C, W, s);
    trace::Span sp(trace::Phase::copy_in, s);
    if (sp.active())
      sp.set_variant(trace::copy_variant(
          nt, static_cast<int>(copy::active_isa())));
    copy::dispatch_copy(opts.policy,
                        stage + static_cast<std::size_t>(ctx.rank()) * slot,
                        send, s, /*temporal_hint=*/true, C, W);
  }
  ctx.barrier();
  const void* srcs[rt::kMaxRanks];
  for (int q = 0; q < p; ++q)
    srcs[q] = stage + static_cast<std::size_t>(q) * slot;
  const bool nt =
      copy::use_nt_store(opts.policy, /*temporal_hint=*/false, C, W, s);
  trace::Span sp(trace::Phase::reduce, s);
  if (sp.active())
    sp.set_variant(
        trace::copy_variant(nt, static_cast<int>(copy::active_isa())));
  copy::reduce_out_multi(recv, srcs, p, s, d, op, nt);
}

}  // namespace yhccl::coll
