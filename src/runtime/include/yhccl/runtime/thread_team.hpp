// Thread-backed rank team.
//
// Each run() spawns one thread per rank.  Because all ranks share an
// address space, "remote" buffer access is a plain load — which makes this
// backend an exact stand-in for XPMEM-mapped address spaces, and the
// default for tests and benchmarks.
#pragma once

#include "yhccl/runtime/team.hpp"

namespace yhccl::rt {

class ThreadTeam final : public Team {
 public:
  explicit ThreadTeam(TeamConfig cfg) : Team(cfg, /*forked_ranks=*/false) {}

 protected:
  void run_ranks(const std::function<void(int)>& wrapped) override;
};

}  // namespace yhccl::rt
