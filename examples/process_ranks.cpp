// Example: YHCCL on fork()-backed rank *processes* — the paper's actual
// deployment model (multiple MPI processes per node).  The same SPMD code
// from quickstart runs unchanged; buffers that must be visible to the
// host for validation come from the team's shared heap.
//
//   $ ./examples/process_ranks [nranks]
#include <cstdio>
#include <cstdlib>

#include "yhccl/coll/coll.hpp"
#include "yhccl/runtime/process_team.hpp"

using namespace yhccl;

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 4;
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = p >= 4 ? 2 : 1;
  rt::ProcessTeam team(cfg);

  const std::size_t count = 1 << 18;
  // Result area in shared memory so the parent can check it after the
  // child processes exit.
  auto* result = reinterpret_cast<double*>(
      team.shared_alloc(count * sizeof(double)));

  team.run([&](rt::RankCtx& ctx) {
    // Rank-private buffers: genuinely private — these live in the child
    // process's own address space, exactly like an MPI rank.
    std::vector<double> send(count, 1.0 + ctx.rank()), recv(count);
    coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum);
    if (ctx.rank() == 0)
      for (std::size_t i = 0; i < count; ++i) result[i] = recv[i];
    ctx.barrier();
  });

  // A resilient recovery may have dropped a dead rank: the sum is over the
  // surviving membership.
  const int n = team.nranks();
  const double expect = n * (n + 1) / 2.0;
  std::printf("process-backed allreduce over %d forked ranks: result[7] = "
              "%.1f (expected %.1f) -> %s\n",
              n, result[7], expect, result[7] == expect ? "OK" : "WRONG");
  return result[7] == expect ? 0 : 1;
}
