// The arm table: one row per (collective, algorithm) pair the library can
// run, holding what the arm needs, its exact operation-count model and its
// entry point (docs/algorithms.md, "Adding an arm is one row").  Dispatch,
// the tuner's candidate arms, the plan-file checks and the counter-parity
// test all read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "yhccl/coll/coll.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/plan_registry.hpp"

namespace yhccl::coll {

/// What an arm needs before it may run.
enum class ArmNeed : std::uint8_t {
  none,             ///< any team
  socket_topology,  ///< several sockets that divide the ranks
  fold_stage,       ///< p·s fits the team's fold stage (fold_max_bytes)
  single_copy,      ///< ranks share an address space, or every buffer the
                    ///< call names lies in a shared window
};

/// A need that depends on the call (its size, its buffers): such an arm
/// runs only where the prior serves it and is never a tuner alternative.
constexpr bool call_dependent(ArmNeed n) noexcept {
  return n == ArmNeed::fold_stage || n == ArmNeed::single_copy;
}

struct ArmRow {
  CollKind kind;
  Algorithm algorithm;
  ArmNeed need;
  /// Exact node totals of every deterministic counter for one call over
  /// `s` bytes (the model::impl convention: the whole input for
  /// reduce_scatter, the per-rank message otherwise).
  model::impl::OpCounts (*ops)(std::size_t s,
                               const model::impl::OpGeometry& g,
                               const rt::PlanCaps& caps);
  /// Runs the arm.  False only when a single-copy arm the plan served
  /// (opts.algorithm automatic) finds a negative window verdict; a caller
  /// that named the arm gets yhccl::Error on every rank instead.
  bool (*run)(RankCtx& ctx, const CollArgs& call, const CollOpts& opts);
};

/// Every row, by collective; within one, in plan::arms candidate order.
std::span<const ArmRow> arm_rows() noexcept;

/// The row of (kind, algorithm), or nullptr when the collective has none.
const ArmRow* find_arm(CollKind kind, Algorithm a) noexcept;

/// The error for a call or plan entry naming an arm without a row.
std::string arm_serves_only(Algorithm a);

}  // namespace yhccl::coll
