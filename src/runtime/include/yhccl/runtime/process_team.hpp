// fork()-backed rank team: the paper's real setting of multiple MPI
// processes on one shared-memory node.
//
// The team's shared mapping is created MAP_SHARED|MAP_ANONYMOUS *before*
// forking, so every rank sees it at the same address; collective code is
// identical to the thread backend.  Rank-private buffers really are
// private, so the XPMEM-style direct baselines are unavailable here unless
// the kernel permits process_vm_readv between the siblings.
//
// Completion is posted, not reaped: a rank stores its outcome in its
// liveness slot's `done` byte and writes the team's eventfd, and run()
// returns once every rank has posted or died.  Ranks that posted are reaped
// later, off the critical path — at the next run() or in the destructor
// (docs/robustness.md §liveness).
//
// Caveat: run() forks, so the calling process must not hold locks in other
// threads (standard fork() hygiene — tests call it from the main thread).
#pragma once

#include <vector>

#include "yhccl/runtime/team.hpp"

namespace yhccl::rt {

class ProcessTeam final : public Team {
 public:
  /// Ranks are processes: enables pid probing, reap bookkeeping, and
  /// _exit-based `die` injection; recover() shrinks the active-rank map.
  explicit ProcessTeam(TeamConfig cfg);
  /// Blocks until every rank that posted its completion has been reaped.
  ~ProcessTeam() override;

 protected:
  void run_ranks(const std::function<void(int)>& wrapped) override;

 private:
  /// Reap the ranks in `posted_`: the exited ones (`block`: all of them).
  /// A rank someone else already reaped (ECHILD) is dropped silently.
  void reap_posted(bool block) noexcept;

  int done_fd_ = -1;          ///< eventfd every rank writes once it posted
  std::vector<int> posted_;   ///< pidfds of posted, not yet reaped ranks
};

}  // namespace yhccl::rt
