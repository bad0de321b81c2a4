// Policy-driven resilient execution (docs/robustness.md §resume).
//
// PR 3 made faults *detectable* (classified, epoch-stamped, coherent across
// survivors) and *recoverable* (Team::recover()); this layer closes the loop
// by making Team::run() retry on the caller's behalf.  A ResiliencePolicy
// attached to the team (TeamConfig::resilience, or $YHCCL_RESILIENCE) turns
// every run() into
//
//   attempt -> classified fault -> verify_integrity + recover ->
//   bounded backoff with deterministic jitter -> re-issue
//
// degrading to conservative collective plans once retries on the preferred
// plan keep failing, and quarantining a cached plan that faulted repeatedly
// (PlanRegistry::quarantine) so the tuner stops re-selecting it for a few
// team epochs.  The default policy is 0 retries: run() is then byte-for-byte
// the pre-resilience fast path (tests assert zero extra allocations and
// barriers on it).
#pragma once

#include <cstdint>
#include <string>

namespace yhccl::rt {

/// How Team::run() reacts to a classified fault.  The default-constructed
/// policy defers to $YHCCL_RESILIENCE (unset: 0 retries, legacy behavior).
struct ResiliencePolicy {
  /// Automatic re-issues after a classified fault.  0 = rethrow immediately
  /// (legacy); -1 = resolve from $YHCCL_RESILIENCE at team construction.
  int max_retries = -1;
  /// Base backoff before the first re-issue; doubles per attempt.
  double backoff_ms = 2.0;
  /// Upper bound on any single backoff sleep.
  double backoff_cap_ms = 200.0;
  /// Seed for the jitter PRNG — same seed, same backoff schedule, so fault
  /// tests and the chaos campaign replay deterministically.
  std::uint64_t seed = 1;
  /// Attempt index (1-based) from which re-issues run in the degraded
  /// algorithm lane (conservative plans, no exploration).
  int degrade_after = 2;
  /// Team epochs a repeatedly-faulting cached plan stays quarantined for.
  std::uint64_t quarantine_epochs = 8;

  bool enabled() const noexcept { return max_retries > 0; }

  /// Parse `retries=N[:backoff=MS][:cap=MS][:seed=S][:degrade=K]
  /// [:quarantine=E]`; throws yhccl::Error on grammar errors.
  static ResiliencePolicy parse(const std::string& spec);
  /// Parse $YHCCL_RESILIENCE (0-retry policy when unset).
  static ResiliencePolicy from_env();
  /// this, with max_retries < 0 replaced by the environment's answer.
  ResiliencePolicy resolved() const;
};

/// Counters the retry loop maintains (parent-side, per team).  Folded into
/// the metrics team gauges and the yhccl-chaos/1 campaign schema.
struct ResilienceStats {
  std::uint64_t faults = 0;       ///< classified faults caught by run()
  std::uint64_t retries = 0;      ///< re-issues after recover()
  std::uint64_t recoveries = 0;   ///< successful Team::recover() sweeps
  std::uint64_t degrades = 0;     ///< attempts served from the degraded lane
  std::uint64_t quarantines = 0;  ///< plans pinned out of rotation
  std::uint64_t corruptions = 0;  ///< integrity findings detected/repaired
  std::uint64_t giveups = 0;      ///< faults rethrown with retries exhausted
  std::uint64_t heals = 0;        ///< runs that succeeded after >= 1 retry

  ResilienceStats& operator+=(const ResilienceStats& o) noexcept {
    faults += o.faults;
    retries += o.retries;
    recoveries += o.recoveries;
    degrades += o.degrades;
    quarantines += o.quarantines;
    corruptions += o.corruptions;
    giveups += o.giveups;
    heals += o.heals;
    return *this;
  }
};

/// Backoff before re-issue `attempt` (0-based): min(cap, base * 2^attempt)
/// scaled into [50%, 100%] by splitmix64(seed ^ attempt) jitter.  Pure —
/// tests pin exact schedules without sleeping them.
double resilience_backoff_ms(const ResiliencePolicy& p, int attempt) noexcept;

/// nanosleep for resilience_backoff_ms(p, attempt).
void resilience_backoff_sleep(const ResiliencePolicy& p, int attempt) noexcept;

}  // namespace yhccl::rt
