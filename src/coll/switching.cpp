// Algorithm switching (paper §5.1 and Fig. 4): a generic call resolves a
// plan for (collective, size bucket, shape) through the plan cache
// (docs/tuning.md) and runs the served row of the arm table
// (yhccl/coll/arm_table.hpp).  At the tuner's default (prior mode) the
// plans are the §5.1 rules coll.hpp describes, bit for bit; online-refined
// plans can override them per size class.  Callers forcing
// an explicit opts.algorithm bypass the plan cache entirely.  Every call,
// served or explicit, is accounted here once: one Phase::coll trace record
// and one metrics sample (docs/observability.md).
#include "yhccl/coll/arm_table.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll {

namespace {

/// The one accounting scope of a collective call.  One trace_now() pair
/// brackets the arm; every record pushed inside carries the call's kind,
/// and the exit pushes the call's Phase::coll record and lands its metrics
/// cell, both labelled with the same arm.  It also closes on unwind, so a
/// call that throws is still one record in each tool.
class CallScope {
 public:
  CallScope(CollKind kind, std::uint64_t bytes, Algorithm alg) noexcept
      : trace_(trace::detail::tl_trace.buf),
        metrics_(metrics::detail::tl_metrics.buf),
        bytes_(bytes),
        coll_(static_cast<std::uint8_t>(1 + static_cast<int>(kind))),
        alg_(alg) {
    if (trace_ != nullptr) trace::detail::tl_trace.coll = coll_;
    if (trace_ != nullptr || metrics_ != nullptr) t0_ = trace::trace_now();
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  /// Relabel the call: a served single-copy arm handed it to a staged one.
  void set_alg(Algorithm a) noexcept { alg_ = a; }
  ~CallScope() {
    if (trace_ == nullptr && metrics_ == nullptr) return;
    const std::uint64_t t1 = trace::trace_now();
    if (trace_ != nullptr) {
      auto& c = trace::detail::tl_trace;
      trace_->push(c.ring,
                   trace::Rec{t0_, t1, bytes_,
                              static_cast<std::uint8_t>(trace::Phase::coll),
                              coll_, static_cast<std::uint8_t>(alg_), 0, 0});
      c.coll = 0;
    }
    if (metrics_ != nullptr) {
      // One sample: sum(hist) == calls holds exactly on a quiesced team.
      metrics::Cell& cell = metrics_->cell(
          metrics::detail::tl_metrics.rank, coll_,
          1 + static_cast<int>(alg_), metrics::size_bucket(bytes_));
      metrics::bump(cell.hist[metrics::lat_bucket(t1 - t0_)]);
      metrics::bump(cell.ticks, t1 - t0_);
      metrics::bump(cell.bytes, bytes_);
      metrics::bump(cell.calls);
    }
  }

 private:
  trace::TraceBuffer* trace_;
  metrics::MetricsBuffer* metrics_;
  std::uint64_t t0_ = 0;
  std::uint64_t bytes_;
  std::uint8_t coll_;
  Algorithm alg_;
};

}  // namespace

/// One collective call: resolve the plan, reject an arm the collective has
/// no row for, run the served row with the plan's options inside the
/// call's accounting scope, then finish the tuned call.  The §5.1 message
/// size is the total input for reduce_scatter.  A single-copy row whose
/// window verdict is negative hands the call to the staged arm of the same
/// pure rule, on every rank; the call stays one record, labelled with the
/// arm that finished it.
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
  {
    CallScope scope(kind, bytes, a);
    if (!row->run(ctx, args, tc.opts())) {
      const Algorithm b = plan::staged_reduction_algorithm(
          kind, bytes, tc.opts(), ctx.team().topo());
      scope.set_alg(b);
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
