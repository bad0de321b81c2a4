// Communication trace record & replay.
//
// Record the exact sequence of collectives an application issues (kind,
// payload, datatype, op, root, duration), serialize it, and replay the
// pattern with synthetic buffers against any algorithm arm / copy policy.
// This turns any application into a reusable communication benchmark —
// the workflow behind the paper's application studies (§5.6), where the
// question is precisely "what would this app's collective mix cost under
// a different implementation?".
#pragma once

#include <string>
#include <vector>

#include "yhccl/coll/coll.hpp"

namespace yhccl::coll {

struct TraceEvent {
  CollKind kind = CollKind::allreduce;
  std::size_t count = 0;  ///< elements (per the collective's semantics)
  Datatype dtype = Datatype::f64;
  ReduceOp op = ReduceOp::sum;
  int root = 0;
  double seconds = 0;  ///< measured duration when recorded

  bool operator==(const TraceEvent& o) const noexcept {
    return kind == o.kind && count == o.count && dtype == o.dtype &&
           op == o.op && root == o.root;
  }
};

class CollTrace {
 public:
  void record(const TraceEvent& e) { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }

  /// Total measured communication time in the recorded run.
  double recorded_seconds() const noexcept;

  /// CSV round-trip: "kind,count,dtype,op,root,seconds" per line.
  std::string to_csv() const;
  static CollTrace from_csv(const std::string& csv);

 private:
  std::vector<TraceEvent> events_;
};

// ---- recording --------------------------------------------------------------

/// coll::collective, recorded into `trace` with its duration (per rank;
/// typically only rank 0's trace is kept since all ranks record the same
/// sequence).
void collective(CollTrace& trace, RankCtx& ctx, CollKind kind,
                const CollArgs& args, const CollOpts& opts = {});

// ---- replay --------------------------------------------------------------------

struct ReplayResult {
  double seconds = 0;          ///< wall time of the replayed sequence
  std::size_t events = 0;
  std::uint64_t payload_bytes = 0;
};

/// Re-issue the trace's collective sequence with synthetic buffers under
/// `opts`.  All ranks must call it with the same trace.  Buffers are
/// allocated (thread-locally, grown on demand) to the largest event.
ReplayResult replay(RankCtx& ctx, const CollTrace& trace,
                    const CollOpts& opts = {});

}  // namespace yhccl::coll
