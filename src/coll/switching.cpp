// Algorithm switching (paper §5.1 and Fig. 4): a generic call resolves a
// plan for (collective, size bucket, shape) through the plan cache
// (docs/tuning.md) and runs the served row of the arm table
// (yhccl/coll/arm_table.hpp).  At the tuner's default (prior mode) the
// plans are the §5.1 rules coll.hpp describes, bit for bit; warmed or
// online-refined plans can override them per size class.  Callers forcing
// an explicit opts.algorithm bypass the plan cache entirely.
#include "yhccl/coll/arm_table.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll {

/// One generic collective call: resolve the plan, reject an arm the
/// collective has no row for, record the metrics sample, run the served
/// row with the plan's options, then finish the tuned call.  The §5.1
/// message size is the total input for reduce_scatter.  A single-copy row
/// whose window verdict is negative hands the call to the staged arm of
/// the same pure rule, on every rank.
void collective(RankCtx& ctx, CollKind kind, const CollArgs& args,
                const CollOpts& opts) {
  const std::size_t bytes =
      args.count * dtype_size(args.dtype) *
      static_cast<std::size_t>(
          kind == CollKind::reduce_scatter ? ctx.nranks() : 1);
  plan::TunedCall tc(ctx, kind, bytes, args.dtype, args.op, opts);
  const Algorithm a = tc.plan().algorithm;
  const ArmRow* row = find_arm(kind, a);
  if (row == nullptr) raise(arm_serves_only(a));
  metrics::CollSample ms(1 + static_cast<int>(kind), bytes);
  ms.set_alg(1 + static_cast<int>(a));
  if (row->need != ArmNeed::single_copy) {
    row->run(ctx, args, tc.opts());
  } else {
    // One coll record for both tries: the arms' own scopes nest in this
    // one, which takes the label of the arm that finished the call.
    trace::CollScope scope(detail::trace_coll_id(kind), bytes,
                           detail::trace_alg_id(a));
    if (!row->run(ctx, args, tc.opts())) {
      const Algorithm b = plan::staged_reduction_algorithm(
          kind, bytes, tc.opts(), ctx.team().topo());
      ms.set_alg(1 + static_cast<int>(b));
      scope.set_alg(detail::trace_alg_id(b));
      find_arm(kind, b)->run(ctx, args, tc.opts());
    }
  }
  tc.finish(ctx);
}

void reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts) {
  collective(ctx, CollKind::reduce_scatter, {send, recv, count, d, op, 0},
             opts);
}

void allreduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, const CollOpts& opts) {
  collective(ctx, CollKind::allreduce, {send, recv, count, d, op, 0}, opts);
}

void reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
            Datatype d, ReduceOp op, int root, const CollOpts& opts) {
  collective(ctx, CollKind::reduce, {send, recv, count, d, op, root}, opts);
}

// Broadcast and allgather have only the §3.4 pipeline: an explicit
// opts.algorithm of any arm (one CollOpts may drive a mixed trace replay)
// bypasses the tuner, whose bypassed plan names the pipeline.

void broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
               int root, const CollOpts& opts) {
  collective(ctx, CollKind::broadcast,
             {buf, buf, count, d, ReduceOp::sum, root}, opts);
}

void allgather(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, const CollOpts& opts) {
  collective(ctx, CollKind::allgather,
             {send, recv, count, d, ReduceOp::sum, 0}, opts);
}

}  // namespace yhccl::coll
