// Exporters for the flight-recorder rings (docs/observability.md §3-§4):
//   * Harvest      — snapshot of every ring of a quiesced team
//   * chrome_json  — Chrome trace-event JSON (chrome://tracing / Perfetto),
//                    one pid per rank, built on the exact-int64 bench writer
//   * flight_json  — last-N-events-per-rank dump with the abort site/epoch
//
// Harvesting is parent-side only: call with no run() in flight (threads
// joined / children posted their completion), which is exactly when
// Team::run has returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "yhccl/bench/json.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::trace {

/// What the aborted run reported, for the flight dump header (plain values
/// so the trace library stays independent of the runtime's fault types).
struct FlightContext {
  std::string fault = "no fault";  ///< describe_fault() one-liner
  int rank = -1;                   ///< faulting rank (-1 unknown)
  std::uint64_t epoch = 0;         ///< team epoch the fault was raised in
};

class Harvest {
 public:
  explicit Harvest(const TraceBuffer& buf);

  int nranks() const noexcept { return nranks_; }
  /// Ring i's retained records in push order; i == nranks() is the control
  /// ring (recover events).
  const std::vector<Rec>& ring(int i) const { return rings_.at(i); }
  std::size_t total_events() const noexcept;
  /// Ticks -> microseconds relative to the buffer's creation.
  double to_us(std::uint64_t ticks) const noexcept {
    return static_cast<double>(ticks - origin_) * 1e6 * sec_per_tick_;
  }
  double seconds_per_tick() const noexcept { return sec_per_tick_; }

  /// Chrome trace-event JSON: "M" process_name metadata per rank, "X"
  /// complete events for spans, "i" instants (markers become "_stall").
  bench::Json chrome_json() const;

  /// Flight-recorder dump: the last `last_n` events of every rank plus the
  /// abort site (from the dying/surviving ranks' Phase::fault records).
  bench::Json flight_json(const FlightContext& fc,
                          std::size_t last_n = 64) const;

 private:
  int nranks_;
  std::uint64_t origin_;
  double sec_per_tick_;
  std::vector<std::vector<Rec>> rings_;
};

/// Schema check for an exported Chrome trace (the `trace_check` tool and
/// the CI trace leg).  Returns false and fills `err` on the first problem.
bool validate_chrome(const bench::Json& j, std::string* err = nullptr);
/// Same for a flight dump.
bool validate_flight(const bench::Json& j, std::string* err = nullptr);

}  // namespace yhccl::trace
