// Example: extract an application's communication kernel with the trace
// recorder, then replay it under different algorithm arms — the paper's
// §5.6 methodology ("how much faster would this app's collectives be
// under YHCCL?") as a three-step library workflow.
//
//   $ ./examples/trace_replay [nranks] [tsteps]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "yhccl/apps/miniamr.hpp"
#include "yhccl/coll/trace.hpp"
#include "yhccl/runtime/thread_team.hpp"

using namespace yhccl;
using namespace yhccl::coll;

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 4;
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = p >= 4 ? 2 : 1;
  rt::ThreadTeam team(cfg);

  // Step 1: run the application once, recording its collectives.
  apps::miniamr::Config acfg;
  acfg.tsteps = argc > 2 ? std::atoi(argv[2]) : 6;
  acfg.refine_metric_len = 131072;  // 1 MB control all-reduces
  std::vector<CollTrace> traces(p);
  team.run([&](rt::RankCtx& ctx) {
    auto& tr = traces[ctx.rank()];
    apps::miniamr::run_rank(
        ctx, acfg,
        [&tr](rt::RankCtx& c, const double* in, double* out, std::size_t n) {
          collective(tr, c, CollKind::allreduce,
                     {in, out, n, Datatype::f64, ReduceOp::sum});
        });
  });
  const CollTrace& kernel = traces[0];
  std::printf("recorded %zu collective calls, %.1f ms of communication\n",
              kernel.size(), kernel.recorded_seconds() * 1e3);

  // Step 2: the trace serializes to CSV (shareable, diffable).
  const auto csv = kernel.to_csv();
  std::printf("trace head:\n%.*s...\n", 120, csv.c_str());

  // Step 3: replay the kernel under each reduction engine.
  std::printf("\n%-14s %12s\n", "engine", "replay(ms)");
  for (auto alg : {Algorithm::automatic, Algorithm::ma_socket_aware,
                   Algorithm::ma_flat, Algorithm::dpml_two_level}) {
    CollOpts o;
    o.algorithm = alg;
    std::vector<ReplayResult> res(p);
    team.run([&](rt::RankCtx& ctx) {
      res[ctx.rank()] = replay(ctx, kernel, o);
    });
    double worst = 0;
    for (const auto& r : res) worst = std::max(worst, r.seconds);
    std::printf("%-14s %12.2f\n", algorithm_name(alg), worst * 1e3);
  }
  return 0;
}
