// fork()-backed rank team: the paper's real setting of multiple MPI
// processes on one shared-memory node.
//
// The team's shared mapping is created MAP_SHARED|MAP_ANONYMOUS *before*
// forking, so every rank sees it at the same address; collective code is
// identical to the thread backend.  Rank-private buffers really are
// private, so the XPMEM-style direct baselines are unavailable here unless
// the kernel permits process_vm_readv between the siblings.
//
// Caveat: run() forks, so the calling process must not hold locks in other
// threads (standard fork() hygiene — tests call it from the main thread).
#pragma once

#include "yhccl/runtime/team.hpp"

namespace yhccl::rt {

class ProcessTeam final : public Team {
 public:
  /// Ranks are processes: enables pid probing, reap bookkeeping, and
  /// _exit-based `die` injection; recover() shrinks the active-rank map.
  explicit ProcessTeam(TeamConfig cfg) : Team(cfg, /*forked_ranks=*/true) {}

 protected:
  void run_ranks(const std::function<void(int)>& wrapped) override;
};

}  // namespace yhccl::rt
