// Auto-tuner plan cache (docs/tuning.md): prior fidelity to the §5.1/§5.4
// static rules, cache hit/miss accounting, cross-rank agreement under
// online exploration on both backends, prior-mode calls that never touch
// the registry, and the zero-allocation warm path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/fault.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/thread_team.hpp"

using namespace yhccl;
namespace plan = yhccl::coll::plan;
using coll::Algorithm;
using coll::CollKind;
using coll::CollOpts;

// ---- global allocation counter for the zero-alloc warm-path test ------------

static std::atomic<std::uint64_t> g_allocs{0};

// GCC flags free() on a replaced operator new's result; ours is malloc-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct EnvGuard {
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old, had_ = true;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::string old_;
  bool had_ = false;
};

rt::TeamConfig tuned_cfg(int p, int m, rt::TuneMode mode) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 24u << 20;
  cfg.shared_heap_bytes = 4u << 20;
  cfg.tune = mode;
  return cfg;
}

/// Run `calls` identical allreduces, logging each rank's served plan word
/// into `words[call * nranks + rank]` (shared memory, both backends).
void run_logged_allreduce(rt::Team& team, int calls, std::size_t count,
                          std::uint64_t* words, const CollOpts& opts = {}) {
  const int p = team.nranks();
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> in(count), out(count);
    test::fill_buffer(in.data(), count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    for (int c = 0; c < calls; ++c) {
      coll::allreduce(ctx, in.data(), out.data(), count, Datatype::f64,
                      ReduceOp::sum, opts);
      words[static_cast<std::size_t>(c) * p + ctx.rank()] =
          plan::last_plan_word();
    }
  });
}

}  // namespace

// ---- the prior reproduces the static rules ----------------------------------

TEST(PlanPrior, MatchesStaticSwitchingRuleForEverySizeAndThreshold) {
  const copy::CacheConfig cache = copy::CacheConfig::node_a();
  const rt::PlanCaps caps(rt::Topology(8, 2), cache,
                          /*shared_address_space=*/false);
  const rt::Topology& topo = caps.topo();
  for (const std::size_t threshold :
       {std::size_t{256} << 10, std::size_t{300000}, std::size_t{1} << 20}) {
    CollOpts opts;
    opts.small_msg_threshold = threshold;
    for (const auto kind :
         {CollKind::allreduce, CollKind::reduce, CollKind::reduce_scatter}) {
      for (std::size_t base : {std::size_t{1}, std::size_t{64},
                               std::size_t{4} << 10, std::size_t{256} << 10,
                               threshold, std::size_t{1} << 20,
                               std::size_t{16} << 20}) {
        for (std::size_t bytes :
             {base, base + 1, base > 1 ? base - 1 : base}) {
          const auto key = plan::make_key(kind, bytes, Datatype::f64,
                                          ReduceOp::sum, topo, opts);
          const auto p = plan::prior_plan(key, opts, caps);
          EXPECT_EQ(p.algorithm,
                    plan::choose_reduction_algorithm(kind, bytes, opts, caps))
              << coll::coll_kind_name(kind) << " bytes=" << bytes
              << " threshold=" << threshold;
        }
      }
    }
  }
  // The fold cut: allreduces up to fold_max_bytes(p) take the fold arm.
  // The cut is a power of two, so the prior must match the static rule at
  // the cap and one byte past it for every team size, under every
  // threshold (including ones below the cap).
  for (const int ranks : {2, 3, 4, 5, 8}) {
    const rt::PlanCaps shape(rt::Topology(ranks, ranks >= 4 ? 2 : 1), cache,
                             false);
    const std::size_t cap = coll::fold_max_bytes(ranks);
    for (const std::size_t threshold :
         {std::size_t{256} << 10, cap, cap - 100, cap + 1}) {
      CollOpts opts;
      opts.small_msg_threshold = threshold;
      for (const auto kind :
           {CollKind::allreduce, CollKind::reduce, CollKind::reduce_scatter})
        for (const std::size_t bytes : {cap - 1, cap, cap + 1}) {
          const auto key = plan::make_key(kind, bytes, Datatype::f32,
                                          ReduceOp::sum, shape.topo(), opts);
          EXPECT_EQ(plan::prior_plan(key, opts, shape).algorithm,
                    plan::choose_reduction_algorithm(kind, bytes, opts, shape))
              << coll::coll_kind_name(kind) << " p=" << ranks
              << " bytes=" << bytes << " threshold=" << threshold;
        }
    }
    const CollOpts opts;
    EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::allreduce, cap,
                                               opts, shape),
              Algorithm::fold)
        << "p=" << ranks;
    EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::allreduce, cap + 1,
                                               opts, shape),
              Algorithm::dpml_two_level)
        << "p=" << ranks;
    EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::reduce, cap, opts,
                                               shape),
              Algorithm::dpml_two_level)
        << "p=" << ranks;
  }

  // Above the threshold forked teams serve direct; on single-socket and
  // ragged topologies its staged fallback is flat MA.
  const rt::PlanCaps flat(rt::Topology(6, 1), cache, false),
      ragged(rt::Topology(7, 2), cache, false);
  CollOpts opts;
  for (const rt::PlanCaps* c : {&flat, &ragged}) {
    EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::allreduce, 1u << 20,
                                               opts, *c),
              Algorithm::direct);
    EXPECT_EQ(plan::staged_reduction_algorithm(CollKind::allreduce, 1u << 20,
                                               opts, c->topo()),
              Algorithm::ma_flat);
    EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::reduce, 1u << 20,
                                               opts, *c),
              Algorithm::ma_flat);
  }
}

TEST(PlanPrior, NtAdvisoryMatchesPaperSwitchPoint) {
  // §5.4: the allreduce work set crosses the cache capacity exactly at
  // model::nt_switch_point_allreduce.
  for (const auto& cache :
       {copy::CacheConfig::node_a(), copy::CacheConfig::node_b(),
        copy::CacheConfig::cluster_c()}) {
    for (const int p : {4, 16, 64}) {
      for (const int m : {1, 2}) {
        const std::size_t imax = CollOpts{}.slice_max;
        const std::size_t sstar = model::nt_switch_point_allreduce(
            cache.available(p), p, m, imax);
        if (sstar == 0) continue;  // everything streams on this machine
        EXPECT_FALSE(
            plan::prior_nt(CollKind::allreduce, sstar, p, m, cache, imax))
            << "p=" << p << " m=" << m;
        EXPECT_TRUE(plan::prior_nt(CollKind::allreduce, sstar + 1, p, m,
                                   cache, imax))
            << "p=" << p << " m=" << m;
      }
    }
  }
}

TEST(PlanPrior, SharedAddressSpaceServesDirectAboveTheFoldCutOnly) {
  // Thread teams: allreduces above the fold cut take the direct arm under
  // every threshold; at or below the cut fold stays; reduce and
  // reduce_scatter keep the process rule.  The prior matches the rule.
  const copy::CacheConfig cache = copy::CacheConfig::node_a();
  for (const int ranks : {2, 3, 4, 8}) {
    const rt::Topology topo(ranks, ranks >= 4 ? 2 : 1);
    const rt::PlanCaps threads(topo, cache, /*shared_address_space=*/true);
    const rt::PlanCaps procs(topo, cache, /*shared_address_space=*/false);
    const std::size_t cap = coll::fold_max_bytes(ranks);
    for (const std::size_t threshold :
         {std::size_t{256} << 10, cap, cap - 100, cap + 1}) {
      CollOpts opts;
      opts.small_msg_threshold = threshold;
      for (const auto kind :
           {CollKind::allreduce, CollKind::reduce, CollKind::reduce_scatter})
        for (const std::size_t bytes :
             {std::size_t{1}, cap - 1, cap, cap + 1, std::size_t{64} << 10,
              threshold, threshold + 1, std::size_t{32} << 20}) {
          const auto key = plan::make_key(kind, bytes, Datatype::f32,
                                          ReduceOp::sum, topo, opts);
          const Algorithm rule =
              plan::choose_reduction_algorithm(kind, bytes, opts, threads);
          EXPECT_EQ(plan::prior_plan(key, opts, threads).algorithm, rule)
              << coll::coll_kind_name(kind) << " p=" << ranks
              << " bytes=" << bytes << " threshold=" << threshold;
          const Algorithm process =
              plan::choose_reduction_algorithm(kind, bytes, opts, procs);
          if (kind != CollKind::allreduce || process == Algorithm::fold) {
            EXPECT_EQ(rule, process) << "p=" << ranks << " bytes=" << bytes;
          } else {
            EXPECT_EQ(rule, Algorithm::direct)
                << "p=" << ranks << " bytes=" << bytes;
          }
        }
    }
  }
}

TEST(PlanPrior, DirectNtAdvisoryFollowsThePushCut) {
  // W = 2ps: the direct arm pushes with NT stores exactly when W exceeds
  // the private caches p·c'' (s > c''/2), and pulls with temporal stores
  // below that, where W <= p·c'' < C.  The advisory reports that choice.
  const copy::CacheConfig cache = copy::CacheConfig::node_a();
  const rt::PlanCaps threads(rt::Topology(4, 2), cache, true);
  const CollOpts opts;
  const std::size_t cut = cache.l2_per_core / 2;
  for (const std::size_t bytes :
       {cut / 4, cut / 2, cut, cut + 1, 2 * cut, std::size_t{32} << 20}) {
    const auto key = plan::make_key(CollKind::allreduce, bytes, Datatype::f64,
                                    ReduceOp::sum, threads.topo(), opts);
    const plan::Plan p = plan::prior_plan(key, opts, threads);
    ASSERT_EQ(p.algorithm, Algorithm::direct) << "bytes=" << bytes;
    EXPECT_EQ(p.nt_prior, bytes > cut) << "bytes=" << bytes;
    EXPECT_EQ(p.nt_prior, coll::detail::direct_pushes(bytes, 4, cache))
        << "bytes=" << bytes;
  }
}

TEST(PlanArms, DirectIsOnlyEverThePriorsOwnArm) {
  const rt::Topology topo(4, 2);
  const copy::CacheConfig cache;
  const CollOpts opts;
  const auto algs = [&](CollKind kind, std::size_t bytes, bool shared) {
    const auto key = plan::make_key(kind, bytes, Datatype::f64,
                                    ReduceOp::sum, topo, opts);
    const plan::ArmTable table =
        plan::arms(key, opts, rt::PlanCaps(topo, cache, shared));
    std::vector<Algorithm> out;
    for (int a = 0; a < table.n; ++a) {
      EXPECT_EQ(table.arm[a].arm, a);
      out.push_back(table.arm[a].algorithm);
    }
    return out;
  };
  const auto has = [](const std::vector<Algorithm>& v, Algorithm a) {
    return std::find(v.begin(), v.end(), a) != v.end();
  };
  for (const std::size_t bytes : {std::size_t{1} << 10, std::size_t{4} << 10,
                                  std::size_t{64} << 10,
                                  std::size_t{32} << 20}) {
    for (const auto kind :
         {CollKind::allreduce, CollKind::reduce, CollKind::reduce_scatter}) {
      // Forked teams: direct in the MA regime, for allreduce and
      // reduce_scatter only, and then as arm 0.
      const bool ma_regime = bytes > opts.small_msg_threshold &&
                             kind != CollKind::reduce;
      const auto forked = algs(kind, bytes, false);
      EXPECT_EQ(has(forked, Algorithm::direct), ma_regime)
          << coll::coll_kind_name(kind) << " bytes=" << bytes;
      if (ma_regime) {
        EXPECT_EQ(forked.front(), Algorithm::direct);
        EXPECT_EQ(std::count(forked.begin(), forked.end(), Algorithm::direct),
                  static_cast<long>(forked.size()) - 3)
            << "direct only as arm 0 and its pinned-NT variants";
      }
      if (kind != CollKind::allreduce) {
        EXPECT_EQ(algs(kind, bytes, true), forked);
      }
    }
    const bool above_cut = bytes > coll::fold_max_bytes(4);
    const auto shared = algs(CollKind::allreduce, bytes, true);
    EXPECT_EQ(has(shared, Algorithm::direct), above_cut) << "bytes=" << bytes;
    if (above_cut) {
      EXPECT_EQ(shared.front(), Algorithm::direct);
    } else {  // fold buckets: both backends enumerate the same table
      EXPECT_EQ(shared, algs(CollKind::allreduce, bytes, false));
    }
  }
}

// Committed plan words and the per-slot arm statistics index arms by
// position, so the candidate sequence is pinned: algorithm/nt/slice_log2 per index for
// every kind × bucket × shape, on the caps of both backends (default
// cache and options).
namespace {

std::string arm_sequence(CollKind kind, std::size_t bytes, int p, int m,
                         bool shared) {
  const rt::Topology topo(p, m);
  const CollOpts opts;
  const auto key =
      plan::make_key(kind, bytes, Datatype::f64, ReduceOp::sum, topo, opts);
  const plan::ArmTable t = plan::arms(
      key, opts, rt::PlanCaps(topo, copy::CacheConfig{}, shared));
  std::string out = std::string(coll::coll_kind_name(kind)) + " " +
                    std::to_string(bytes) + " " + std::to_string(p) + "," +
                    std::to_string(m) + (shared ? " threads:" : " forked:");
  for (int a = 0; a < t.n; ++a)
    out += std::string(" ") + coll::algorithm_name(t.arm[a].algorithm) +
           "/" + plan::nt_choice_name(t.arm[a].nt) + "/" +
           std::to_string(t.arm[a].slice_log2);
  return out;
}

constexpr const char* kPinnedArmSequences[] = {
    "allreduce 8 2,1 forked: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 8 2,1 threads: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 8 3,2 forked: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 8 3,2 threads: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 8 4,2 forked: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 8 4,2 threads: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 4096 2,1 forked: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 4096 2,1 threads: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 4096 3,2 forked: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 4096 3,2 threads: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 4096 4,2 forked: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 4096 4,2 threads: fold/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 fold/stream/0 fold/temporal/0",
    "allreduce 65536 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "allreduce 65536 2,1 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 65536 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "allreduce 65536 3,2 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 65536 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "allreduce 65536 4,2 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 1048576 2,1 forked: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 1048576 2,1 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 1048576 3,2 forked: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 1048576 3,2 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 1048576 4,2 forked: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 1048576 4,2 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 33554432 2,1 forked: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 33554432 2,1 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 33554432 3,2 forked: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 33554432 3,2 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 33554432 4,2 forked: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "allreduce 33554432 4,2 threads: direct/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce 8 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 8 2,1 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 8 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 8 3,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 8 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 8 4,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 4096 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 4096 2,1 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 4096 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 4096 3,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 4096 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 4096 4,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 65536 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 65536 2,1 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 65536 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 65536 3,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 65536 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 65536 4,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce 1048576 2,1 forked: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 1048576 2,1 threads: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 1048576 3,2 forked: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 1048576 3,2 threads: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 1048576 4,2 forked: socket-ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/stream/0 socket-ma/temporal/0",
    "reduce 1048576 4,2 threads: socket-ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/stream/0 socket-ma/temporal/0",
    "reduce 33554432 2,1 forked: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 33554432 2,1 threads: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 33554432 3,2 forked: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 33554432 3,2 threads: ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/stream/0 ma/temporal/0",
    "reduce 33554432 4,2 forked: socket-ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/stream/0 socket-ma/temporal/0",
    "reduce 33554432 4,2 threads: socket-ma/adaptive/0 dpml-2l/adaptive/0 "
    "ma/adaptive/0 socket-ma/stream/0 socket-ma/temporal/0",
    "reduce_scatter 8 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 8 2,1 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 8 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 8 3,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 8 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 8 4,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 4096 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 4096 2,1 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 4096 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 4096 3,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 4096 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 4096 4,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 65536 2,1 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 65536 2,1 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 65536 3,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 65536 3,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 65536 4,2 forked: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 65536 4,2 threads: dpml-2l/adaptive/0 ma/adaptive/0 "
    "socket-ma/adaptive/0 dpml-2l/stream/0 dpml-2l/temporal/0",
    "reduce_scatter 1048576 2,1 forked: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 1048576 2,1 threads: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 1048576 3,2 forked: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 1048576 3,2 threads: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 1048576 4,2 forked: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 socket-ma/adaptive/0 "
    "direct/stream/0 direct/temporal/0",
    "reduce_scatter 1048576 4,2 threads: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 socket-ma/adaptive/0 "
    "direct/stream/0 direct/temporal/0",
    "reduce_scatter 33554432 2,1 forked: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 33554432 2,1 threads: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 33554432 3,2 forked: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 33554432 3,2 threads: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 direct/stream/0 direct/temporal/0",
    "reduce_scatter 33554432 4,2 forked: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 socket-ma/adaptive/0 "
    "direct/stream/0 direct/temporal/0",
    "reduce_scatter 33554432 4,2 threads: direct/adaptive/0 "
    "dpml-2l/adaptive/0 ma/adaptive/0 socket-ma/adaptive/0 "
    "direct/stream/0 direct/temporal/0",
    "broadcast 8 2,1 forked: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "broadcast 8 2,1 threads: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "broadcast 8 3,2 forked: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "broadcast 8 3,2 threads: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "broadcast 8 4,2 forked: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "broadcast 8 4,2 threads: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "broadcast 4096 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 4096 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 4096 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 4096 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 4096 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 4096 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 65536 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 65536 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 65536 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 65536 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 65536 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 65536 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 1048576 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 1048576 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 1048576 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 1048576 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 1048576 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 1048576 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 33554432 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 33554432 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 33554432 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 33554432 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 33554432 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "broadcast 33554432 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 8 2,1 forked: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "allgather 8 2,1 threads: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "allgather 8 3,2 forked: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "allgather 8 3,2 threads: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "allgather 8 4,2 forked: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "allgather 8 4,2 threads: pipelined/adaptive/0 pipelined/adaptive/16 "
    "pipelined/adaptive/20 pipelined/stream/0 pipelined/temporal/0",
    "allgather 4096 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 4096 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 4096 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 4096 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 4096 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 4096 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 65536 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 65536 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 65536 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 65536 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 65536 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 65536 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 1048576 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 1048576 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 1048576 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 1048576 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 1048576 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 1048576 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 33554432 2,1 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 33554432 2,1 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 33554432 3,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 33554432 3,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 33554432 4,2 forked: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
    "allgather 33554432 4,2 threads: pipelined/adaptive/0 "
    "pipelined/adaptive/16 pipelined/adaptive/20 pipelined/stream/0 "
    "pipelined/temporal/0",
};

}  // namespace

TEST(PlanArms, SequenceIsPinnedForEveryKindBucketShapeAndBackend) {
  std::vector<std::string> got;
  for (int k = 0; k < static_cast<int>(CollKind::kCount_); ++k)
    for (const std::size_t bytes :
         {std::size_t{8}, std::size_t{4} << 10, std::size_t{64} << 10,
          std::size_t{1} << 20, std::size_t{32} << 20})
      for (const auto& [p, m] :
           {std::pair{2, 1}, std::pair{3, 2}, std::pair{4, 2}})
        for (const bool shared : {false, true})
          got.push_back(
              arm_sequence(static_cast<CollKind>(k), bytes, p, m, shared));
  ASSERT_EQ(got.size(), std::size(kPinnedArmSequences));
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], kPinnedArmSequences[i]);
}

// ---- the capability record ---------------------------------------------------

// What a team serves is the prior of its own caps, for every bucket, kind
// and shape on both backends; the team's signature is its caps' signature;
// and a thread team's backend-free machine signature is the signature a
// process team of the same machine carries.
TEST(PlanCaps, QueryMatchesPriorOfTheTeamCapsOnBothBackends) {
  const CollOpts opts;
  for (const auto& [p, m] : {std::pair{2, 1}, std::pair{3, 1},
                             std::pair{4, 2}, std::pair{3, 2}}) {
    rt::ThreadTeam threads(tuned_cfg(p, m, rt::TuneMode::prior));
    rt::ProcessTeam procs(tuned_cfg(p, m, rt::TuneMode::prior));
    EXPECT_TRUE(threads.caps().shared_address_space());
    EXPECT_FALSE(procs.caps().shared_address_space());
    for (const rt::Team* team : {static_cast<const rt::Team*>(&threads),
                                 static_cast<const rt::Team*>(&procs)}) {
      const rt::PlanCaps& caps = team->caps();
      EXPECT_EQ(team->plan_signature(), caps.signature());
      EXPECT_EQ(caps.topo().nranks(), p);
      EXPECT_EQ(caps.topo().nsockets(), m);
      for (int k = 0; k < static_cast<int>(CollKind::kCount_); ++k) {
        const auto kind = static_cast<CollKind>(k);
        for (std::size_t bytes = 8; bytes <= (std::size_t{32} << 20);
             bytes *= 2) {
          const auto key = plan::make_key(kind, bytes, Datatype::f32,
                                          ReduceOp::sum, caps.topo(), opts);
          EXPECT_EQ(plan::query(*team, kind, bytes, Datatype::f32,
                                ReduceOp::sum, opts)
                        .pack(),
                    plan::prior_plan(key, opts, caps).pack())
              << coll::coll_kind_name(kind) << " p=" << p << " m=" << m
              << " bytes=" << bytes << " shared="
              << caps.shared_address_space();
        }
      }
    }
    EXPECT_EQ(threads.caps().machine_signature(), procs.plan_signature());
    EXPECT_EQ(procs.caps().machine_signature(), procs.plan_signature());
    EXPECT_NE(threads.plan_signature(), procs.plan_signature());
  }
}

TEST(PlanKeyPacking, FieldsAndPlanWordsRoundTrip) {
  plan::PlanKey key;
  key.kind = CollKind::reduce_scatter;
  key.dtype = Datatype::i32;
  key.op = ReduceOp::band;
  key.bucket = 0x40 | 21;
  key.ranks = 255;
  key.sockets = 15;
  // Every field reaches the packed word, and no packing sets a reserved bit.
  const std::uint64_t f = key.packed_fields();
  EXPECT_TRUE(rt::plan_fields_sane(f));
  for (int field = 0; field < 6; ++field) {
    plan::PlanKey k = key;
    switch (field) {
      case 0: k.kind = CollKind::allreduce; break;
      case 1: k.dtype = Datatype::f64; break;
      case 2: k.op = ReduceOp::sum; break;
      case 3: k.bucket = 21; break;
      case 4: k.ranks = 254; break;
      default: k.sockets = 14; break;
    }
    EXPECT_NE(k.packed_fields(), f) << "field " << field;
    EXPECT_TRUE(rt::plan_fields_sane(k.packed_fields())) << "field " << field;
  }

  plan::Plan p;
  p.algorithm = Algorithm::ma_socket_aware;
  p.nt = plan::NtChoice::stream;
  p.slice_log2 = 20;
  p.chunk_log2 = 13;
  p.nt_prior = true;
  p.source = plan::PlanSource::online;
  p.arm = 3;
  const auto w = p.pack();
  EXPECT_NE(w, 0u);
  const auto p2 = plan::Plan::unpack(w);
  EXPECT_EQ(p2.algorithm, p.algorithm);
  EXPECT_EQ(p2.nt, p.nt);
  EXPECT_EQ(p2.slice_log2, p.slice_log2);
  EXPECT_EQ(p2.chunk_log2, p.chunk_log2);
  EXPECT_EQ(p2.nt_prior, p.nt_prior);
  EXPECT_EQ(p2.source, p.source);
  EXPECT_EQ(p2.arm, p.arm);

  // A stored word with an arm past PlanSlot's arm arrays is structurally
  // corrupt, so online refinement can never index past them.
  plan::Plan word;
  word.arm = rt::kPlanMaxArms - 1;
  EXPECT_TRUE(rt::plan_word_sane(word.pack()));
  for (const int arm : {rt::kPlanMaxArms, 9, 15}) {
    word.arm = static_cast<std::uint8_t>(arm);
    EXPECT_FALSE(rt::plan_word_sane(word.pack())) << "arm " << arm;
  }
}

// ---- cache behavior ----------------------------------------------------------

TEST(PlanCache, HitMissAccountingAndCorrectResults) {
  EnvGuard eps("YHCCL_TUNE_EPS", "0");  // no exploration: pure cache test
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  const std::size_t count = 4096;
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * 4 * 3));
  run_logged_allreduce(team, 3, count, words);

  const auto st = plan::tune_stats(team);
  EXPECT_EQ(st.lookups, 3u);
  EXPECT_EQ(st.misses, 1u);  // first call inserts the slot
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.explores, 0u);

  // A different size class gets its own slot.
  run_logged_allreduce(team, 1, count * 64, words);
  EXPECT_EQ(plan::tune_stats(team).entries, 2u);
}

/// The prior a fresh team serves: process teams the §5.1 rule with direct
/// in the MA regime, thread teams the direct arm for allreduces above the
/// fold cut.
template <typename TeamT>
static void query_serves_prior_until_a_commit_exists(Algorithm small_ar,
                                                     Algorithm large_ar) {
  TeamT team(tuned_cfg(8, 2, rt::TuneMode::prior));
  const CollOpts opts;
  const auto small = plan::query(team, CollKind::allreduce, 4u << 10,
                                 Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(small.algorithm, small_ar);
  EXPECT_EQ(small.source, plan::PlanSource::prior);
  // 2 KB is fold_max_bytes(8): the fold arm's bucket.
  EXPECT_EQ(plan::query(team, CollKind::allreduce, 2u << 10, Datatype::f64,
                        ReduceOp::sum, opts)
                .algorithm,
            Algorithm::fold);
  const auto large = plan::query(team, CollKind::allreduce, 4u << 20,
                                 Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(large.algorithm, large_ar);
  // Reduce keeps the §5.1 rule on both backends.
  EXPECT_EQ(plan::query(team, CollKind::reduce, 4u << 10, Datatype::f64,
                        ReduceOp::sum, opts)
                .algorithm,
            Algorithm::dpml_two_level);
  EXPECT_EQ(plan::query(team, CollKind::reduce, 4u << 20, Datatype::f64,
                        ReduceOp::sum, opts)
                .algorithm,
            Algorithm::ma_socket_aware);
  const auto bcast = plan::query(team, CollKind::broadcast, 1u << 20,
                                 Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(bcast.algorithm, Algorithm::pipelined);
}

TEST(PlanCache, QueryServesPriorUntilACommitExists_Processes) {
  query_serves_prior_until_a_commit_exists<rt::ProcessTeam>(
      Algorithm::dpml_two_level, Algorithm::direct);
}

TEST(PlanCache, QueryServesPriorUntilACommitExists_Threads) {
  query_serves_prior_until_a_commit_exists<rt::ThreadTeam>(
      Algorithm::direct, Algorithm::direct);
}

// ---- tuner modes -------------------------------------------------------------

TEST(PlanModes, ResolveTuneModeAcceptsOnlyPriorAndOnline) {
  EXPECT_EQ(rt::resolve_tune_mode(rt::TuneMode::online), rt::TuneMode::online);
  EXPECT_EQ(rt::resolve_tune_mode(rt::TuneMode::prior), rt::TuneMode::prior);
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    EnvGuard g("YHCCL_TUNE", unset);
    EXPECT_EQ(rt::resolve_tune_mode(rt::TuneMode::env), rt::TuneMode::prior);
  }
  {
    EnvGuard g("YHCCL_TUNE", "prior");
    EXPECT_EQ(rt::resolve_tune_mode(rt::TuneMode::env), rt::TuneMode::prior);
  }
  {
    EnvGuard g("YHCCL_TUNE", "online");
    EXPECT_EQ(rt::resolve_tune_mode(rt::TuneMode::env), rt::TuneMode::online);
  }
  for (const char* bad : {"off", "bogus"}) {
    EnvGuard g("YHCCL_TUNE", bad);
    EXPECT_THROW(rt::resolve_tune_mode(rt::TuneMode::env), Error) << bad;
  }
}

// ---- cross-rank agreement ----------------------------------------------------

template <typename TeamT>
static void agreement_case(rt::TuneMode mode, const char* eps) {
  EnvGuard g("YHCCL_TUNE_EPS", eps);
  const int p = 8, calls = 48;
  TeamT team(tuned_cfg(p, 2, mode));
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * p * calls));
  run_logged_allreduce(team, calls, 16384, words);
  for (int c = 0; c < calls; ++c)
    for (int r = 1; r < p; ++r)
      ASSERT_EQ(words[c * p + r], words[c * p])
          << "rank " << r << " diverged on call " << c;
}

TEST(PlanAgreement, AllRanksServeTheSamePlanWhileExploring_Threads) {
  agreement_case<rt::ThreadTeam>(rt::TuneMode::online, "0.5");
}

TEST(PlanAgreement, AllRanksServeTheSamePlanWhileExploring_Processes) {
  agreement_case<rt::ProcessTeam>(rt::TuneMode::online, "0.5");
}

TEST(PlanAgreement, ThreadAndForkBackendsExploreIdentically) {
  // With eps = 1 every call serves the explored arm, which is a pure
  // function of (key, machine signature, tune_seq) — so the served
  // sequence must be bit-identical across backends.  Above the fold cut a
  // thread team's table leads with the direct arm, which forked ranks
  // cannot run, so both backends explore the fold bucket (4 KB at p = 4),
  // whose table they share: fold, DPML, flat and socket-aware MA, and the
  // pinned-NT variants.
  EnvGuard g("YHCCL_TUNE_EPS", "1");
  const int p = 4, calls = 24;
  const std::size_t count = coll::fold_max_bytes(p) / sizeof(double);
  std::vector<std::uint64_t> seq[2];
  int which = 0;
  for (which = 0; which < 2; ++which) {
    std::unique_ptr<rt::Team> team;
    if (which == 0)
      team = std::make_unique<rt::ThreadTeam>(
          tuned_cfg(p, 2, rt::TuneMode::online));
    else
      team = std::make_unique<rt::ProcessTeam>(
          tuned_cfg(p, 2, rt::TuneMode::online));
    if (which == 0) {  // thread only: above the cut the prior is direct
      EXPECT_EQ(plan::query(*team, CollKind::allreduce,
                            16384 * sizeof(double), Datatype::f64,
                            ReduceOp::sum)
                    .algorithm,
                Algorithm::direct);
    }
    auto* words = reinterpret_cast<std::uint64_t*>(
        team->shared_alloc(sizeof(std::uint64_t) * p * calls));
    run_logged_allreduce(*team, calls, count, words);
    for (int c = 0; c < calls; ++c) seq[which].push_back(words[c * p]);
  }
  EXPECT_EQ(seq[0], seq[1]);
  // ... and exploration actually happened (eps = 1 explores every call
  // once the slot exists, i.e. from call 2 on).
  bool explored = false;
  for (const auto w : seq[0])
    if (plan::Plan::unpack(w).arm != 0) explored = true;
  EXPECT_TRUE(explored);
}

TEST(PlanOnline, ProcessTeamsNeverExploreTheDirectArm) {
  // eps = 1 explores every call.  A thread team's table above the fold cut
  // holds direct; a process team's never does.
  EnvGuard g("YHCCL_TUNE_EPS", "1");
  const int p = 4, calls = 24;
  const std::size_t count = 16384;  // 128 KB: above the cut
  for (int which = 0; which < 2; ++which) {
    std::unique_ptr<rt::Team> team;
    if (which == 0)
      team = std::make_unique<rt::ThreadTeam>(
          tuned_cfg(p, 2, rt::TuneMode::online));
    else
      team = std::make_unique<rt::ProcessTeam>(
          tuned_cfg(p, 2, rt::TuneMode::online));
    auto* words = reinterpret_cast<std::uint64_t*>(
        team->shared_alloc(sizeof(std::uint64_t) * p * calls));
    run_logged_allreduce(*team, calls, count, words);
    int direct = 0;
    for (int i = 0; i < p * calls; ++i)
      direct += plan::Plan::unpack(words[i]).algorithm == Algorithm::direct;
    if (which == 0) {
      EXPECT_GT(direct, 0) << "threads";
    } else {
      EXPECT_EQ(direct, 0) << "processes";
    }
  }
}

TEST(PlanOnline, ExploredArmsStillComputeCorrectReductions) {
  EnvGuard g("YHCCL_TUNE_EPS", "1");
  rt::ThreadTeam team(tuned_cfg(6, 2, rt::TuneMode::online));
  const std::size_t count = 5000;
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> in(count), out(count);
    test::fill_buffer(in.data(), count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    for (int c = 0; c < 30; ++c) {
      coll::allreduce(ctx, in.data(), out.data(), count, Datatype::f64,
                      ReduceOp::sum);
      ASSERT_TRUE(test::check_reduced(out.data(), count, Datatype::f64,
                                      ctx.nranks(), ReduceOp::sum));
    }
  });
  EXPECT_GT(plan::tune_stats(team).explores, 0u);
}

// ---- explicit-algorithm handling (satellite 2) -------------------------------

TEST(PlanBypass, ExplicitAlgorithmsBypassTheTunerAndAreHonored) {
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> buf(1024, ctx.rank() == 0 ? 7.0 : 0.0);
    CollOpts opts;
    opts.algorithm = Algorithm::pipelined;  // explicit: allowed for bcast
    coll::broadcast(ctx, buf.data(), buf.size(), Datatype::f64, 0, opts);
    for (double v : buf) ASSERT_EQ(v, 7.0);

    std::vector<double> in(1024), out(1024);
    test::fill_buffer(in.data(), in.size(), Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    opts.algorithm = Algorithm::ma_flat;  // explicit arm for a reduction
    coll::allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
                    ReduceOp::sum, opts);
    ASSERT_TRUE(test::check_reduced(out.data(), out.size(), Datatype::f64,
                                    ctx.nranks(), ReduceOp::sum));
  });
  // Explicit calls never touch the cache.
  EXPECT_EQ(plan::tune_stats(team).lookups, 0u);

  // A reduction arm passed to broadcast (one CollOpts driving a mixed
  // trace replay) bypasses the tuner and runs the pipeline as before.
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> buf(64, ctx.rank() == 0 ? 3.0 : 0.0);
    CollOpts opts;
    opts.algorithm = Algorithm::ma_flat;
    coll::broadcast(ctx, buf.data(), buf.size(), Datatype::f64, 0, opts);
    for (double v : buf) ASSERT_EQ(v, 3.0);
  });
  EXPECT_EQ(plan::tune_stats(team).lookups, 0u);

  // The pipeline arm is rejected by the reductions.
  rt::ThreadTeam single(tuned_cfg(2, 1, rt::TuneMode::prior));
  EXPECT_THROW(single.run([&](rt::RankCtx& ctx) {
    double in = 1, out = 0;
    CollOpts opts;
    opts.algorithm = Algorithm::pipelined;
    coll::allreduce(ctx, &in, &out, 1, Datatype::f64, ReduceOp::sum, opts);
  }),
               Error);

  // The fold arm serves allreduce only, and only up to its stage slot.
  for (const std::size_t bytes :
       {coll::fold_max_bytes(2), coll::fold_max_bytes(2) + 8}) {
    const bool fits = bytes <= coll::fold_max_bytes(2);
    bool threw = false;
    try {
      single.run([&](rt::RankCtx& ctx) {
        std::vector<double> in(bytes / 8, 1.0), out(bytes / 8);
        CollOpts opts;
        opts.algorithm = Algorithm::fold;
        coll::allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
                        ReduceOp::sum, opts);
        for (double v : out)
          if (v != 2.0) throw Error("fold allreduce computed a wrong sum");
      });
    } catch (const Error&) {
      threw = true;
    }
    EXPECT_EQ(threw, !fits) << bytes << " bytes";
  }
  EXPECT_THROW(single.run([&](rt::RankCtx& ctx) {
    double in = 1, out = 0;
    CollOpts opts;
    opts.algorithm = Algorithm::fold;
    coll::reduce(ctx, &in, &out, 1, Datatype::f64, ReduceOp::sum, 0, opts);
  }),
               Error);
}

// ---- prior mode never touches the registry ----------------------------------

namespace {

bool slot_is_zero(const rt::PlanSlot& s) {
  const auto z = [](const auto& a) {
    return a.load(std::memory_order_relaxed) == 0;
  };
  bool zero = z(s.hash) && z(s.fields) && z(s.plan) && z(s.quar) &&
              z(s.hits);
  for (int a = 0; a < rt::kPlanMaxArms; ++a)
    zero = zero && z(s.arm_ewma[a]) && z(s.arm_n[a]);
  return zero;
}

/// Automatic calls in the fold, DPML, direct and MA regimes plus a
/// broadcast and an allgather on a prior-mode team: each serves the prior
/// of its key, and the registry stays as construction left it.
template <typename TeamT>
void prior_mode_leaves_registry_untouched() {
  struct Call {
    CollKind kind;
    std::size_t count;  // doubles per rank
  };
  const Call calls[] = {
      {CollKind::allreduce, 256},    // 2 KB: fold
      {CollKind::allreduce, 2048},   // 16 KB: DPML (forked), direct (threads)
      {CollKind::reduce, 2048},      // 16 KB: DPML
      {CollKind::allreduce, 65536},  // 512 KB: direct (forked ranks fall
                                     // back to MA over private buffers)
      {CollKind::reduce, 65536},     // 512 KB: socket-aware MA
      {CollKind::broadcast, 8192},
      {CollKind::allgather, 1024},
  };
  constexpr int n = static_cast<int>(std::size(calls));
  const int p = 4;
  TeamT team(tuned_cfg(p, 2, rt::TuneMode::prior));
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * p * n));
  team.run([&](rt::RankCtx& ctx) {
    const std::size_t most = 65536;
    std::vector<double> in(most * p), out(most * p);
    test::fill_buffer(in.data(), most, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    for (int c = 0; c < n; ++c) {
      const std::size_t k = calls[c].count;
      switch (calls[c].kind) {
        case CollKind::allreduce:
          coll::allreduce(ctx, in.data(), out.data(), k, Datatype::f64,
                          ReduceOp::sum);
          break;
        case CollKind::reduce:
          coll::reduce(ctx, in.data(), out.data(), k, Datatype::f64,
                       ReduceOp::sum, 0);
          break;
        case CollKind::broadcast:
          coll::broadcast(ctx, out.data(), k, Datatype::f64, 0);
          break;
        default:
          coll::allgather(ctx, in.data(), out.data(), k, Datatype::f64);
          break;
      }
      words[c * p + ctx.rank()] = plan::last_plan_word();
    }
  });

  const auto st = plan::tune_stats(team);
  EXPECT_EQ(st.lookups, 0u);
  EXPECT_EQ(st.inserts, 0u);
  EXPECT_EQ(st.entries, 0u);
  const rt::PlanRegistry& reg = *team.plan_registry();
  EXPECT_EQ(reg.inflight(), 0u);
  for (std::uint32_t i = 0; i < reg.capacity(); ++i)
    ASSERT_TRUE(slot_is_zero(reg.slot(i))) << "slot " << i;

  std::vector<Algorithm> served;
  for (int c = 0; c < n; ++c) {
    const std::size_t bytes = calls[c].count * sizeof(double);
    const auto key = plan::make_key(calls[c].kind, bytes, Datatype::f64,
                                    ReduceOp::sum, team.topo(), CollOpts{});
    const plan::Plan prior = plan::prior_plan(key, CollOpts{}, team.caps());
    served.push_back(prior.algorithm);
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(words[c * p + r], prior.pack())
          << coll::coll_kind_name(calls[c].kind) << " " << bytes
          << " B, rank " << r;
  }
  for (const Algorithm a : {Algorithm::fold, Algorithm::dpml_two_level,
                            Algorithm::direct, Algorithm::ma_socket_aware,
                            Algorithm::pipelined})
    EXPECT_NE(std::ranges::find(served, a), served.end())
        << coll::algorithm_name(a);
}

}  // namespace

TEST(PlanPriorMode, CallsTouchNoRegistry_Threads) {
  prior_mode_leaves_registry_untouched<rt::ThreadTeam>();
}

TEST(PlanPriorMode, CallsTouchNoRegistry_Processes) {
  prior_mode_leaves_registry_untouched<rt::ProcessTeam>();
}

// ---- straggler feedback ------------------------------------------------------

// The flag follows the straggler: a sweep that flags nobody clears it, and
// so does recover().
TEST(PlanFeedback, StragglerMarksTheKindsThatRanWaitBound) {
  rt::TeamConfig cfg = tuned_cfg(4, 2, rt::TuneMode::online);
  cfg.metrics = metrics::Mode::on;
  cfg.sync_timeout = 20.0;
  rt::ThreadTeam team(cfg);
  // Rank 2 stalls 80 ms at its 4th barrier arrival, as in
  // MetricsStraggler.DetectorFlagsInjectedStall, then the team runs one
  // allreduce and no broadcast.
  const auto stalled_run = [&] {
    team.set_fault_plan(
        rt::FaultPlan::parse("stall@barrier:rank=2:ms=80:iter=3"));
    team.run([](rt::RankCtx& ctx) {
      for (int i = 0; i < 8; ++i) ctx.barrier();
      std::vector<double> send(1024, 1.0), recv(1024);
      coll::allreduce(ctx, send.data(), recv.data(), send.size(),
                      Datatype::f64, ReduceOp::sum);
    });
    team.set_fault_plan(rt::FaultPlan{});
  };
  stalled_run();
  const auto* reg = team.plan_registry();
  const int allreduce = static_cast<int>(CollKind::allreduce);
  const int broadcast = static_cast<int>(CollKind::broadcast);
  EXPECT_FALSE(reg->wait_bound(allreduce)) << "set before any flag";

  metrics::StragglerReport rep = team.straggler_check();
  ASSERT_EQ(rep.flagged.size(), 1u);
  EXPECT_EQ(rep.flagged[0], 2);
  EXPECT_TRUE(reg->wait_bound(allreduce));
  EXPECT_FALSE(reg->wait_bound(broadcast));

  // A quiet run long enough to push the stall out of every rank's barrier
  // window: the next sweep flags nobody and the team is no longer
  // wait-bound.
  team.run([](rt::RankCtx& ctx) {
    for (int i = 0; i < metrics::kWindowSlots + 8; ++i) ctx.barrier();
  });
  rep = team.straggler_check();
  EXPECT_TRUE(rep.flagged.empty());
  EXPECT_FALSE(reg->wait_bound(allreduce)) << "kept after a clean sweep";

  // Flagged afresh, then recovered: the rebuilt team starts unflagged.
  stalled_run();
  rep = team.straggler_check();
  ASSERT_EQ(rep.flagged.size(), 1u);
  EXPECT_TRUE(reg->wait_bound(allreduce));
  team.recover();
  EXPECT_FALSE(reg->wait_bound(allreduce)) << "kept across recover()";
}

// ---- the warm path allocates nothing -----------------------------------------

TEST(PlanHotPath, WarmRepeatCallDoesNotAllocate) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  for (const rt::TuneMode mode : {rt::TuneMode::online, rt::TuneMode::prior}) {
    rt::ThreadTeam team(tuned_cfg(4, 2, mode));
    const std::size_t count = 16384;
    auto* in = reinterpret_cast<double*>(
        team.shared_alloc(sizeof(double) * count * 4));
    auto* out = reinterpret_cast<double*>(
        team.shared_alloc(sizeof(double) * count * 4));
    auto* delta = reinterpret_cast<std::uint64_t*>(
        team.shared_alloc(sizeof(std::uint64_t)));
    team.run([&](rt::RankCtx& ctx) {
      double* my_in = in + count * ctx.rank();
      double* my_out = out + count * ctx.rank();
      test::fill_buffer(my_in, count, Datatype::f64, ctx.rank(),
                        ReduceOp::sum);
      // Warm the slot (online mode) and the arm's lazy state first.
      for (int c = 0; c < 2; ++c)
        coll::allreduce(ctx, my_in, my_out, count, Datatype::f64,
                        ReduceOp::sum);
      ctx.barrier();
      const std::uint64_t before = g_allocs.load();
      for (int c = 0; c < 8; ++c)
        coll::allreduce(ctx, my_in, my_out, count, Datatype::f64,
                        ReduceOp::sum);
      ctx.barrier();
      if (ctx.rank() == 0) *delta = g_allocs.load() - before;
    });
    EXPECT_EQ(*delta, 0u)
        << "warm-path collective calls allocated, mode "
        << (mode == rt::TuneMode::online ? "online" : "prior");
  }
}

// ---- recovery ----------------------------------------------------------------

TEST(PlanRecovery, RegistrySurvivesRecoverAndReKeysTheTopology) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * 4));
  run_logged_allreduce(team, 2, 4096, words);
  const auto before = plan::tune_stats(team);
  EXPECT_EQ(before.entries, 1u);
  team.recover();
  // Same membership after a thread-team recovery: the signature and the
  // cached entry both survive, so the next call is a hit.
  run_logged_allreduce(team, 1, 4096, words);
  const auto after = plan::tune_stats(team);
  EXPECT_EQ(after.entries, 1u);
  EXPECT_EQ(after.hits, before.hits + 1);
}
