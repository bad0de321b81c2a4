// Model-checked protocol harnesses (docs/analysis.md §MC).
//
// Each harness drives one of the runtime's production sync protocols —
// the primitives themselves, not a re-model — with 2..4 model ranks and
// asserts its contract (mc::require + the checker's built-in race /
// lost-wakeup detection):
//
//   flags          step_publish / spin_wait_ge payload visibility
//   barrier        central sense-reversing barrier separation (2 episodes)
//   dissemination  dissemination barrier separation (2 episodes)
//   fifo           eager FIFO: payload/meta publication + slot reuse
//   rndv           rendezvous: descriptor publication + buffer reuse
//   pagelock       page-lock mutual exclusion edges (CMA emulation)
//   seqlock        RemoteWindow snapshot consistency (no torn descriptor)
//   plan           plan-registry claim visibility + commit-after-barrier
//   ring           trace-ring push/harvest publication
//   fold           fold-allreduce stage reuse: write, one barrier, read,
//                  two stages alternating, no trailing barrier
//   direct_pull    direct-allreduce block ownership, pull schedule: reduce
//                  my block, barrier, gather peers' blocks, trailing barrier
//   direct_push    the push schedule: reduce my block into every rank's
//                  recv, trailing barrier
//   direct_scatter direct-reduce_scatter block ownership: reduce my block
//                  of every send into my own recv, trailing barrier
//
// The mutation table seeds one memory-order weakening (WeakPoint) at a time
// into the production code path; tests/test_model_check.cpp asserts the
// checker catches every entry and that the unmutated protocols verify clean.
#pragma once

#ifdef YHCCL_MC

#include <string>
#include <vector>

#include "yhccl/mc/checker.hpp"

namespace yhccl::mc {

/// Names of the checkable protocols, in a stable order.
const std::vector<std::string>& protocol_names();

/// Does `name` support an `nthreads`-rank instance?
bool protocol_supports(const std::string& name, int nthreads);

/// Build the Spec for one protocol instance (throws yhccl::Error on an
/// unknown name / unsupported rank count).  The spec owns its shared state.
Spec protocol_spec(const std::string& name, int nthreads);

/// The fold harness over `nstages` stages (2 = production).  With one
/// stage the next round's copy-in races the previous round's fold, which
/// the checker must catch.
Spec fold_spec(int nthreads, int nstages);

/// The direct harness, pull or push schedule.  Without the trailing
/// barrier a returning rank reuses its receive buffer while peers still
/// read from it or write into it, which the checker must catch.
Spec direct_spec(int nthreads, bool push, bool trailing_barrier);

/// The direct reduce_scatter harness.  Without the trailing barrier a
/// returning rank refills its send buffer while a peer still reduces from
/// it, which the checker must catch.
Spec direct_scatter_spec(int nthreads, bool trailing_barrier);

/// Explore one protocol instance.
Result check_protocol(const std::string& name, int nthreads,
                      const Options& opt);

/// One seeded weakening: demote `point` to relaxed while checking
/// `protocol` at `nthreads` ranks.  The checker must catch every entry.
struct Mutation {
  WeakPoint point;
  const char* protocol;
  int nthreads;
};

/// One entry per WeakPoint (except none), each paired with the smallest
/// harness that provably exposes it.
const std::vector<Mutation>& mutation_table();

/// Run one mutation under `opt` (the mutation field is overwritten).
Result check_mutation(const Mutation& m, Options opt);

/// Re-execute a counterexample schedule with a flight recorder attached:
/// per-model-rank trace rings capture what each rank was doing along the
/// violating interleaving (the PR-5 flight machinery, fed by the checker).
/// The ring memory is exempted from interception so recording cannot
/// perturb the replay.  Pass the mutation the schedule was found under
/// (WeakPoint::none for an unmutated counterexample) so the replay
/// executes the same weakened protocol.  Returns the flight-dump JSON.
std::string counterexample_flight(const std::string& protocol, int nthreads,
                                  const std::string& schedule,
                                  WeakPoint mutation = WeakPoint::none);

}  // namespace yhccl::mc

#endif  // YHCCL_MC
