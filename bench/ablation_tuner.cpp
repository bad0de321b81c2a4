// Ablation (ours): the plan-caching auto-tuner (docs/tuning.md).
//
// Phase 1 measures the explicit all-reduce engines on a tuner-off team —
// exactly the offline campaign a user would feed to `plan_check warm`.
// The session report is converted in-process with plan::warm_from_bench
// and loaded into a prior-mode team, then phase 2 runs the automatic
// switch on both teams over the same sizes:
//
//   switch-static — tuner off, the paper's §5.1 rules
//   switch-tuned  — plan cache warmed from the phase-1 measurements
//
// `bench_compare tuned` pairs the two series per size cell and fails when
// any tuned cell is significantly slower than its static partner — the
// "tuned never loses to static" acceptance gate.
#include "bench_util.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"

using namespace yhccl;
using namespace yhccl::bench;

namespace {

rt::ThreadTeam& tuner_team(rt::TuneMode mode) {
  static std::map<int, std::unique_ptr<rt::ThreadTeam>> cache;
  const int key = static_cast<int>(mode);
  auto it = cache.find(key);
  if (it == cache.end()) {
    rt::TeamConfig cfg;
    cfg.nranks = bench_ranks();
    cfg.nsockets = bench_sockets();
    cfg.scratch_bytes = 96u << 20;
    cfg.shared_heap_bytes = 1u << 20;
    cfg.tune = mode;
    it = cache.emplace(key, std::make_unique<rt::ThreadTeam>(cfg)).first;
  }
  return *it->second;
}

CollArm allreduce_arm(coll::Algorithm a) {
  return [a](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
    coll::CollOpts o;
    o.algorithm = a;
    coll::allreduce(c, s, r, std::max<std::size_t>(b / 8, 1), Datatype::f64,
                    ReduceOp::sum, o);
  };
}

}  // namespace

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team_static = tuner_team(rt::TuneMode::off);
  auto& team_tuned = tuner_team(rt::TuneMode::prior);
  const auto sizes = default_sizes(4u << 10, 16u << 20);
  const std::size_t hi = sizes.back();

  std::printf("Ablation — auto-tuner vs static switching for all-reduce "
              "(p=%d, m=%d)\n", p, m);
  Session session("ablation_tuner");
  RankBuffers bufs(p, hi, hi);

  // Phase 1: the offline campaign (explicit engines, tuner bypassed).
  const std::pair<const char*, coll::Algorithm> engines[] = {
      {"fold", coll::Algorithm::fold},
      {"dpml-2l", coll::Algorithm::dpml_two_level},
      {"flat-MA", coll::Algorithm::ma_flat},
      {"socket-MA", coll::Algorithm::ma_socket_aware},
  };
  for (const auto& [name, alg] : engines)
    for (const std::size_t b : sizes)
      // fold runs only where its stage slot holds the message.
      if (alg != coll::Algorithm::fold || b <= coll::fold_max_bytes(p))
        measure_arm(team_static, session, "allreduce", name, bufs,
                    allreduce_arm(alg), b);

  // Warm the plan cache from those measurements (the in-process version of
  // `plan_check warm BENCH.json PLAN.json` + $YHCCL_PLAN_FILE).
  const Json plans = coll::plan::warm_from_bench(session.to_json());
  const int loaded = coll::plan::load_plans(team_tuned, plans);
  std::printf("warmed %d plan(s) from the phase-1 measurements\n", loaded);

  // Phase 2: the automatic switch, static rules vs warmed plans.
  SweepTable table;
  table.title = "allreduce switch: static rules vs tuned plans";
  table.arms = {"switch-static", "switch-tuned"};
  table.sizes = sizes;
  for (const std::size_t b : sizes) {
    const auto s =
        measure_arm(team_static, session, "allreduce", "switch-static", bufs,
                    allreduce_arm(coll::Algorithm::automatic), b);
    const auto t =
        measure_arm(team_tuned, session, "allreduce", "switch-tuned", bufs,
                    allreduce_arm(coll::Algorithm::automatic), b);
    table.times.push_back({s.time.median, t.time.median});
    const auto plan = coll::plan::query(team_tuned, coll::CollKind::allreduce,
                                        b, Datatype::f64, ReduceOp::sum);
    std::printf("  %-8s tuned plan: %-10s (%s)\n", human_size(b).c_str(),
                coll::algorithm_name(plan.algorithm),
                coll::plan::plan_source_name(plan.source));
  }
  table.print();
  session.write();
  return 0;
}
