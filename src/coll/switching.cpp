// Algorithm switching (paper §5.1 and Fig. 4), routed through the plan
// cache (docs/tuning.md): the generic entry points resolve a cached plan
// for (collective, size bucket, shape) and dispatch on its algorithm.
// With the tuner at its default (prior mode) the served plans are the
// paper's static rules bit for bit — small reductions go to the
// two-level DPML parallel reduction (cheap synchronization), or to the
// one-barrier fold when an allreduce is small enough, everything
// else to the socket-aware MA reduction (minimal data movement), falling
// back to flat MA on single-socket teams; allreduces above the fold cut on
// teams whose ranks share an address space, and allreduces and
// reduce_scatters in the MA regime on every team, take the single-copy
// direct arm — while warmed or online-refined plans can override the
// choice per size class.  A served direct arm whose window verdict is
// negative hands the call back to the staged arm the §5.1 rule picks.
// Callers forcing an explicit opts.algorithm bypass the plan cache
// entirely.
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll {

// Metrics cells are indexed by 1 + Algorithm (0 = unknown).
static_assert(1 + static_cast<int>(Algorithm::direct) < metrics::kAlgSlots,
              "metrics algorithm slots cannot hold every Algorithm");

namespace {

/// One generic collective call: resolve the plan, reject arms the
/// collective cannot run, record the metrics sample, run `body` with the
/// served algorithm and options, then finish the tuned call.  `bytes` is
/// the §5.1 message size (total input for reduce_scatter).  `body` returns
/// false when a served direct arm's window verdict was negative; every
/// rank then runs the staged arm of the same pure rule.
template <typename Body>
void dispatch(RankCtx& ctx, CollKind kind, std::size_t bytes, Datatype d,
              ReduceOp op, const CollOpts& opts, Body&& body) {
  plan::TunedCall tc(ctx, kind, bytes, d, op, opts);
  const Algorithm a = tc.plan().algorithm;
  YHCCL_REQUIRE(a != Algorithm::pipelined || !plan::is_reduction(kind),
                "the pipelined algorithm serves broadcast/allgather only");
  YHCCL_REQUIRE(a != Algorithm::fold || kind == CollKind::allreduce,
                "the fold algorithm serves allreduce only");
  YHCCL_REQUIRE(a != Algorithm::direct || kind == CollKind::allreduce ||
                    kind == CollKind::reduce_scatter,
                "the direct algorithm serves allreduce/reduce_scatter only");
  metrics::CollSample ms(1 + static_cast<int>(kind), bytes);
  ms.set_alg(1 + static_cast<int>(a));
  if (a != Algorithm::direct) {
    body(a, tc.opts());
  } else {
    // One coll record for both tries: the arms' own scopes nest in this
    // one, which takes the label of the arm that finished the call.
    trace::CollScope scope(detail::trace_coll_id(kind), bytes,
                           detail::trace_alg_id(a));
    if (!body(a, tc.opts())) {
      const Algorithm b = plan::staged_reduction_algorithm(
          kind, bytes, tc.opts(), ctx.team().topo());
      ms.set_alg(1 + static_cast<int>(b));
      scope.set_alg(detail::trace_alg_id(b));
      body(b, tc.opts());
    }
  }
  tc.finish(ctx);
}

/// A served direct arm falls back on a negative verdict; one the caller
/// named raises.
detail::DirectMiss direct_miss(const CollOpts& o) noexcept {
  return o.algorithm == Algorithm::automatic ? detail::DirectMiss::fall_back
                                             : detail::DirectMiss::raise;
}

}  // namespace

void reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts) {
  const std::size_t total =
      count * dtype_size(d) * static_cast<std::size_t>(ctx.nranks());
  dispatch(ctx, CollKind::reduce_scatter, total, d, op, opts,
           [&](Algorithm a, const CollOpts& o) {
             switch (a) {
               case Algorithm::direct:
                 return detail::direct_reduce_scatter(ctx, send, recv, count,
                                                      d, op, o,
                                                      direct_miss(o));
               case Algorithm::dpml_two_level:
                 dpml_two_level_reduce_scatter(ctx, send, recv, count, d, op,
                                               o);
                 break;
               case Algorithm::ma_socket_aware:
                 socket_ma_reduce_scatter(ctx, send, recv, count, d, op, o);
                 break;
               default:
                 ma_reduce_scatter(ctx, send, recv, count, d, op, o);
                 break;
             }
             return true;
           });
}

void allreduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, const CollOpts& opts) {
  dispatch(ctx, CollKind::allreduce, count * dtype_size(d), d, op, opts,
           [&](Algorithm a, const CollOpts& o) {
             switch (a) {
               case Algorithm::fold:
                 fold_allreduce(ctx, send, recv, count, d, op, o);
                 break;
               case Algorithm::direct:
                 return detail::direct_allreduce(ctx, send, recv, count, d,
                                                 op, o,
                                                 /*xpmem_baseline=*/false,
                                                 direct_miss(o));
               case Algorithm::dpml_two_level:
                 dpml_two_level_allreduce(ctx, send, recv, count, d, op, o);
                 break;
               case Algorithm::ma_socket_aware:
                 socket_ma_allreduce(ctx, send, recv, count, d, op, o);
                 break;
               default:
                 ma_allreduce(ctx, send, recv, count, d, op, o);
                 break;
             }
             return true;
           });
}

void reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
            Datatype d, ReduceOp op, int root, const CollOpts& opts) {
  dispatch(ctx, CollKind::reduce, count * dtype_size(d), d, op, opts,
           [&](Algorithm a, const CollOpts& o) {
             switch (a) {
               case Algorithm::dpml_two_level:
                 dpml_two_level_reduce(ctx, send, recv, count, d, op, root, o);
                 break;
               case Algorithm::ma_socket_aware:
                 socket_ma_reduce(ctx, send, recv, count, d, op, root, o);
                 break;
               default:
                 ma_reduce(ctx, send, recv, count, d, op, root, o);
                 break;
             }
             return true;
           });
}

// Broadcast and allgather have a single implementation (the §3.4 sliced
// pipeline), so any explicit opts.algorithm — Algorithm::pipelined to name
// it, or a reduction arm when one CollOpts drives a mixed trace replay —
// simply bypasses the tuner and runs the pipeline with the caller's
// schedule; Algorithm::automatic routes through the plan cache, which can
// tune the pipeline slice size per size class.

void broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
               int root, const CollOpts& opts) {
  dispatch(ctx, CollKind::broadcast, count * dtype_size(d), d, ReduceOp::sum,
           opts, [&](Algorithm, const CollOpts& o) {
             pipelined_broadcast(ctx, buf, count, d, root, o);
             return true;
           });
}

void allgather(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, const CollOpts& opts) {
  dispatch(ctx, CollKind::allgather, count * dtype_size(d), d, ReduceOp::sum,
           opts, [&](Algorithm, const CollOpts& o) {
             pipelined_allgather(ctx, send, recv, count, d, o);
             return true;
           });
}

}  // namespace yhccl::coll
