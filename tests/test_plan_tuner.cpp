// Auto-tuner plan cache (docs/tuning.md): prior fidelity to the §5.1/§5.4
// static rules, cache hit/miss accounting, cross-rank agreement under
// online exploration on both backends, persistence round-trips, warming
// from bench reports, and the zero-allocation warm path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "yhccl/bench/harness.hpp"
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
  const auto k2 = plan::PlanKey::from_fields(key.packed_fields());
  EXPECT_EQ(k2.kind, key.kind);
  EXPECT_EQ(k2.dtype, key.dtype);
  EXPECT_EQ(k2.op, key.op);
  EXPECT_EQ(k2.bucket, key.bucket);
  EXPECT_EQ(k2.ranks, key.ranks);
  EXPECT_EQ(k2.sockets, key.sockets);

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

// ---- persistence -------------------------------------------------------------

namespace {

struct FakeCell {
  const char* alg;
  std::size_t bytes;
  double median;
};

/// A minimal bench report: one allreduce series per cell.
bench::Json bench_report(int ranks, int sockets,
                         const copy::CacheConfig& cache,
                         const std::vector<FakeCell>& cells) {
  bench::Json doc = bench::Json::object();
  doc.set("schema", "yhccl-bench/1");
  bench::Json machine = bench::Json::object();
  machine.set("llc_bytes", cache.llc_bytes);
  machine.set("l2_per_core", cache.l2_per_core);
  machine.set("llc_inclusive", cache.llc_inclusive);
  doc.set("machine", machine);
  bench::Json series = bench::Json::array();
  const auto cell = [&](const char* alg, std::size_t bytes, double median) {
    bench::Json s = bench::Json::object();
    s.set("bench", "fake");
    s.set("collective", "allreduce");
    s.set("algorithm", alg);
    s.set("ranks", ranks);
    s.set("sockets", sockets);
    s.set("bytes", bytes);
    bench::Json t = bench::Json::object();
    t.set("median_s", median);
    s.set("time", t);
    series.push_back(s);
  };
  for (const auto& c : cells) cell(c.alg, c.bytes, c.median);
  doc.set("series", series);
  return doc;
}

/// Two arms per size for allreduce: flat MA "wins" on the large size, dpml
/// on the small one.
bench::Json fake_bench_report(int ranks, int sockets,
                              const copy::CacheConfig& cache) {
  return bench_report(ranks, sockets, cache,
                      {{"flat-MA", 4u << 20, 1e-3},  // beats socket-aware
                       {"socket-MA", 4u << 20, 2e-3},
                       {"dpml-2l", 4u << 10, 1e-5},
                       {"flat-MA", 4u << 10, 9e-5},
                       // unknown arm: must be skipped
                       {"mpi-baseline", 4u << 20, 1e-9}});
}

}  // namespace

/// Every team maps the plan table, so a bench-warmed plan always has a
/// registry to land in and is what query() serves afterwards.
template <typename TeamT>
static void default_team_loads_warmed_plans() {
  const int p = 4, m = 2;
  TeamT team(tuned_cfg(p, m, rt::TuneMode::env));  // the default mode
  ASSERT_NE(team.plan_registry(), nullptr);
  const auto plans = plan::warm_from_bench(bench_report(
      p, m, team.config().cache,
      {{"flat-MA", 4u << 20, 1e-3}, {"socket-MA", 4u << 20, 2e-3}}));
  ASSERT_EQ(plan::load_plans(team, plans), 1);
  EXPECT_EQ(plan::tune_stats(team).loaded, 1u);
  const auto served = plan::query(team, CollKind::allreduce, 4u << 20,
                                  Datatype::f64, ReduceOp::sum);
  EXPECT_EQ(served.algorithm, Algorithm::ma_flat);
  EXPECT_EQ(served.source, plan::PlanSource::bench);
}

TEST(PlanPersistence, DefaultTeamHasARegistryAndLoadsWarmedPlans_Threads) {
  default_team_loads_warmed_plans<rt::ThreadTeam>();
}

TEST(PlanPersistence, DefaultTeamHasARegistryAndLoadsWarmedPlans_Processes) {
  default_team_loads_warmed_plans<rt::ProcessTeam>();
}

TEST(PlanPersistence, WarmFromBenchThenLoadOverridesThePrior) {
  const int p = 8, m = 2;
  rt::ThreadTeam team(tuned_cfg(p, m, rt::TuneMode::prior));
  const auto plans =
      plan::warm_from_bench(fake_bench_report(p, m, team.config().cache));
  plan::validate_plan_json(plans);
  ASSERT_EQ(plans["plans"].size(), 4u);  // two cells, once per backend

  ASSERT_EQ(plan::load_plans(team, plans), 2);
  // 4 MB allreduce: prior says socket-MA, the bench data says flat MA.
  const auto tuned = plan::query(team, CollKind::allreduce, 4u << 20,
                                 Datatype::f64, ReduceOp::sum);
  EXPECT_EQ(tuned.algorithm, Algorithm::ma_flat);
  EXPECT_EQ(tuned.source, plan::PlanSource::bench);
  // 4 KB allreduce: bench agrees with the prior (dpml).
  EXPECT_EQ(plan::query(team, CollKind::allreduce, 4u << 10, Datatype::f64,
                        ReduceOp::sum)
                .algorithm,
            Algorithm::dpml_two_level);
  // Unrelated keys still serve the prior.
  EXPECT_EQ(plan::query(team, CollKind::reduce, 4u << 20, Datatype::f64,
                        ReduceOp::sum)
                .source,
            plan::PlanSource::prior);

  // The tuned decision is what actually runs.
  auto* words =
      reinterpret_cast<std::uint64_t*>(team.shared_alloc(sizeof(std::uint64_t) * p));
  team.run([&](rt::RankCtx& ctx) {
    const std::size_t count = (4u << 20) / sizeof(double);
    std::vector<double> a(count), b(count);
    test::fill_buffer(a.data(), count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    coll::allreduce(ctx, a.data(), b.data(), count, Datatype::f64,
                    ReduceOp::sum);
    words[ctx.rank()] = plan::last_plan_word();
  });
  EXPECT_EQ(plan::Plan::unpack(words[0]).algorithm, Algorithm::ma_flat);
}

TEST(PlanPersistence, FoldPlansLandOnlyWhereTheStageFits) {
  const int p = 8, m = 2;  // fold_max_bytes(8) = 2 KB
  rt::ThreadTeam team(tuned_cfg(p, m, rt::TuneMode::prior));
  // The bench data "prefers" fold on both sizes; past the cut it cannot run.
  const auto plans = plan::warm_from_bench(
      bench_report(p, m, team.config().cache,
                   {{"fold", 1u << 10, 1e-6},
                    {"dpml-2l", 1u << 10, 2e-6},
                    {"fold", 4u << 10, 1e-7},
                    {"dpml-2l", 4u << 10, 1e-5}}));
  plan::validate_plan_json(plans);
  ASSERT_EQ(plan::load_plans(team, plans), 2);
  const auto at = [&](std::size_t bytes) {
    return plan::query(team, CollKind::allreduce, bytes, Datatype::f64,
                       ReduceOp::sum);
  };
  EXPECT_EQ(at(1u << 10).algorithm, Algorithm::fold);
  EXPECT_EQ(at(1u << 10).source, plan::PlanSource::bench);
  EXPECT_EQ(at(4u << 10).algorithm, Algorithm::dpml_two_level);

  // A hand-edited file naming fold past the cut loads nothing for that
  // entry, and fold on a non-allreduce fails validation outright.
  bench::Json doc = plan::save_plans(team);
  bench::Json edited = bench::Json::array();
  for (const auto& e : doc["plans"].items()) {
    bench::Json f = e;
    f.set("algorithm", "fold");
    edited.push_back(f);
  }
  doc.set("plans", edited);
  rt::ThreadTeam fresh(tuned_cfg(p, m, rt::TuneMode::prior));
  EXPECT_EQ(plan::load_plans(fresh, doc), 1);
  bench::Json bad = doc;
  bench::Json entry = doc["plans"].items().front();
  entry.set("collective", "reduce");
  bench::Json arr = bench::Json::array();
  arr.push_back(entry);
  bad.set("plans", arr);
  EXPECT_THROW(plan::validate_plan_json(bad), Error);
}

TEST(PlanPersistence, ThreadWarmedPlansNeverLandOnProcessTeams) {
  const int p = 4, m = 2;
  rt::ThreadTeam threads(tuned_cfg(p, m, rt::TuneMode::prior));
  rt::ProcessTeam procs(tuned_cfg(p, m, rt::TuneMode::prior));
  // One machine, two key spaces: the backend bit is part of the signature,
  // and the paper's process setting keeps the bare machine signature.
  const auto& cache = threads.config().cache;
  EXPECT_EQ(procs.plan_signature(),
            rt::PlanCaps(procs.topo(), cache, false).signature());
  EXPECT_EQ(threads.plan_signature(),
            rt::PlanCaps(threads.topo(), cache, true).signature());
  EXPECT_NE(threads.plan_signature(), procs.plan_signature());

  // A bench report warms both backends from one file: direct wins the
  // 64 KB cell on thread teams, DPML (the best arm forked ranks can run)
  // on process teams.
  const auto report = bench_report(p, m, cache,
                                   {{"direct", 64u << 10, 1e-6},
                                    {"dpml-2l", 64u << 10, 2e-6},
                                    {"flat-MA", 4u << 20, 1e-3},
                                    {"socket-MA", 4u << 20, 2e-3}});
  const auto plans = plan::warm_from_bench(report);
  plan::validate_plan_json(plans);
  const std::string thread_sig =
      plan::save_plans(threads)["machine"]["signature"].as_string();
  bench::Json thread_only = plans;
  bench::Json thread_entries = bench::Json::array();
  for (const auto& e : plans["plans"].items()) {
    const bool for_threads = e["signature"].as_string() == thread_sig;
    if (e["algorithm"].as_string() == "direct") {
      EXPECT_TRUE(for_threads) << "direct is never warmed for forked teams";
    }
    if (for_threads) thread_entries.push_back(e);
  }
  ASSERT_EQ(plans["plans"].size(), 4u);
  ASSERT_EQ(thread_entries.size(), 2u);
  thread_only.set("plans", thread_entries);
  // Entries warmed for thread teams are skipped on a process team as a
  // signature mismatch.
  EXPECT_EQ(plan::load_plans(procs, thread_only), 0);

  ASSERT_EQ(plan::load_plans(threads, plans), 2);
  rt::ProcessTeam warmed(tuned_cfg(p, m, rt::TuneMode::prior));
  ASSERT_EQ(plan::load_plans(warmed, plans), 2);
  const auto served = [](const rt::Team& team, std::size_t bytes) {
    return plan::query(team, CollKind::allreduce, bytes, Datatype::f64,
                       ReduceOp::sum);
  };
  EXPECT_EQ(served(threads, 64u << 10).algorithm, Algorithm::direct);
  EXPECT_EQ(served(threads, 64u << 10).source, plan::PlanSource::bench);
  EXPECT_EQ(served(threads, 4u << 20).algorithm, Algorithm::ma_flat);
  EXPECT_EQ(served(warmed, 64u << 10).algorithm, Algorithm::dpml_two_level);
  EXPECT_EQ(served(warmed, 64u << 10).source, plan::PlanSource::bench);
  EXPECT_EQ(served(warmed, 4u << 20).algorithm, Algorithm::ma_flat);
  EXPECT_EQ(served(procs, 4u << 20).algorithm, Algorithm::direct);
  EXPECT_EQ(served(procs, 4u << 20).source, plan::PlanSource::prior);

  // A hand-edited process-signed file naming direct loads only the entry in
  // the MA regime, where the prior serves direct too, and direct on a
  // reduce fails validation outright.
  bench::Json doc = plan::save_plans(warmed);
  ASSERT_EQ(doc["plans"].size(), 2u);
  bench::Json edited = bench::Json::array();
  for (const auto& e : doc["plans"].items()) {
    bench::Json f = e;
    f.set("algorithm", "direct");
    edited.push_back(f);
  }
  doc.set("plans", edited);
  rt::ProcessTeam fresh(tuned_cfg(p, m, rt::TuneMode::prior));
  EXPECT_EQ(plan::load_plans(fresh, doc), 1);
  EXPECT_EQ(served(fresh, 64u << 10).algorithm, Algorithm::dpml_two_level);
  EXPECT_EQ(served(fresh, 4u << 20).algorithm, Algorithm::direct);
  bench::Json bad = doc;
  bench::Json entry = doc["plans"].items().front();
  entry.set("collective", "reduce");
  bench::Json arr = bench::Json::array();
  arr.push_back(entry);
  bad.set("plans", arr);
  EXPECT_THROW(plan::validate_plan_json(bad), Error);
}

// A plan-file arm index selects the arm statistics online refinement
// updates (PlanSlot::arm_ewma / arm_n, kPlanMaxArms entries each).  An
// index past those arrays is rejected by validation; one inside them but
// past the key's own arm table is dropped at load; and a stored word whose
// arm field is out of range fails the structural check, so no path lets an
// online call write past the arrays into the neighbouring registry slot.
TEST(PlanPersistence, OutOfRangeArmNeverReachesTheArmArrays) {
  const int p = 4, m = 2;
  const std::size_t count = (1u << 20) / sizeof(float);
  rt::ThreadTeam team(tuned_cfg(p, m, rt::TuneMode::online));
  const auto warmed = plan::warm_from_bench(
      bench_report(p, m, team.config().cache,
                   {{"direct", 1u << 20, 1e-6}, {"dpml-2l", 1u << 20, 2e-6}}));
  const std::string sig = plan::save_plans(team)["machine"]["signature"]
                              .as_string();
  bench::Json entry;
  for (const auto& e : warmed["plans"].items())
    if (e["signature"].as_string() == sig) entry = e;
  ASSERT_EQ(entry["algorithm"].as_string(), "direct");
  entry.set("dtype", "f32");
  const auto doc_with = [&warmed](const bench::Json& e) {
    bench::Json doc = warmed;
    bench::Json arr = bench::Json::array();
    arr.push_back(e);
    doc.set("plans", arr);
    return doc;
  };

  // In range for this key's six-arm table: loads.
  bench::Json ok = entry;
  ok.set("arm", 5);
  {
    rt::ThreadTeam fresh(tuned_cfg(p, m, rt::TuneMode::prior));
    EXPECT_EQ(plan::load_plans(fresh, doc_with(ok)), 1);
  }
  // Inside the arrays but past a broadcast key's five-arm table: dropped.
  bench::Json bcast = ok;
  bcast.set("collective", "broadcast");
  bcast.set("algorithm", "pipelined");
  bcast.set("bucket", 20);
  {
    rt::ThreadTeam fresh(tuned_cfg(p, m, rt::TuneMode::prior));
    plan::validate_plan_json(doc_with(bcast));
    EXPECT_EQ(plan::load_plans(fresh, doc_with(bcast)), 0);
  }

  // Past the arrays: invalid, and never installed.
  bench::Json bad = entry;
  bad.set("arm", 9);
  EXPECT_THROW(plan::validate_plan_json(doc_with(bad)), Error);
  int installed = 0;
  try {
    installed = plan::load_plans(team, doc_with(bad));
  } catch (const Error&) {
  }
  EXPECT_EQ(installed, 0);
  // Online calls on that key touch its own slot only.
  team.run([&](rt::RankCtx& ctx) {
    std::vector<float> in(count, 1.0f), out(count);
    for (int c = 0; c < 20; ++c)
      coll::allreduce(ctx, in.data(), out.data(), count, Datatype::f32,
                      ReduceOp::sum);
  });
  EXPECT_EQ(plan::tune_stats(team).entries, 1u);
  EXPECT_TRUE(team.verify_integrity().ok());

  // A stored word with an out-of-range arm is structurally corrupt.
  plan::Plan word;
  word.arm = rt::kPlanMaxArms - 1;
  EXPECT_TRUE(rt::plan_word_sane(word.pack()));
  for (const int arm : {rt::kPlanMaxArms, 9, 15}) {
    word.arm = static_cast<std::uint8_t>(arm);
    EXPECT_FALSE(rt::plan_word_sane(word.pack())) << "arm " << arm;
  }
}

TEST(PlanPersistence, BenchWarmedPlanFileWarmsBothBackends) {
  // The plan_check route: warm_from_bench written to disk and loaded via
  // $YHCCL_PLAN_FILE warms process teams as well as thread teams.
  const int p = 4, m = 2;
  const std::string path =
      ::testing::TempDir() + "yhccl_plans_bench_warmed_test.json";
  {
    rt::ThreadTeam probe(tuned_cfg(p, m, rt::TuneMode::prior));
    std::string err;
    ASSERT_TRUE(bench::write_json_file(
        path,
        plan::warm_from_bench(fake_bench_report(p, m, probe.config().cache)),
        &err))
        << err;
  }
  EnvGuard g("YHCCL_PLAN_FILE", path.c_str());
  const std::size_t count = (4u << 20) / sizeof(double);
  for (int which = 0; which < 2; ++which) {
    std::unique_ptr<rt::Team> team;
    if (which == 0)
      team = std::make_unique<rt::ThreadTeam>(
          tuned_cfg(p, m, rt::TuneMode::prior));
    else
      team = std::make_unique<rt::ProcessTeam>(
          tuned_cfg(p, m, rt::TuneMode::prior));
    auto* words = reinterpret_cast<std::uint64_t*>(
        team->shared_alloc(sizeof(std::uint64_t) * p));
    run_logged_allreduce(*team, 1, count, words);
    EXPECT_EQ(plan::tune_stats(*team).loaded, 2u) << "backend " << which;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(plan::Plan::unpack(words[r]).algorithm, Algorithm::ma_flat)
          << "backend " << which;
      EXPECT_EQ(plan::Plan::unpack(words[r]).source,
                plan::PlanSource::bench)
          << "backend " << which;
    }
  }
}

TEST(PlanPersistence, ThreadPlanFileIsSkippedOnProcessTeams) {
  // The $YHCCL_PLAN_FILE route: a file saved from a warmed thread team
  // warms thread teams and is skipped, entry by entry, on process teams.
  const int p = 4, m = 2;
  const std::string path =
      ::testing::TempDir() + "yhccl_plans_backend_test.json";
  {
    rt::ThreadTeam staging(tuned_cfg(p, m, rt::TuneMode::prior));
    ASSERT_GT(plan::load_plans(staging,
                               plan::warm_from_bench(fake_bench_report(
                                   p, m, staging.config().cache))),
              0);
    plan::save_plans_file(staging, path);
  }
  EnvGuard g("YHCCL_PLAN_FILE", path.c_str());
  const std::size_t count = (4u << 20) / sizeof(double);

  rt::ProcessTeam procs(tuned_cfg(p, m, rt::TuneMode::prior));
  auto* pw = reinterpret_cast<std::uint64_t*>(
      procs.shared_alloc(sizeof(std::uint64_t) * p));
  run_logged_allreduce(procs, 1, count, pw);
  EXPECT_EQ(plan::tune_stats(procs).loaded, 0u);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(plan::Plan::unpack(pw[r]).algorithm, Algorithm::direct);
    EXPECT_EQ(plan::Plan::unpack(pw[r]).source, plan::PlanSource::prior);
  }

  rt::ThreadTeam threads(tuned_cfg(p, m, rt::TuneMode::prior));
  auto* tw = reinterpret_cast<std::uint64_t*>(
      threads.shared_alloc(sizeof(std::uint64_t) * p));
  run_logged_allreduce(threads, 1, count, tw);
  EXPECT_GT(plan::tune_stats(threads).loaded, 0u);
  EXPECT_EQ(plan::Plan::unpack(tw[0]).algorithm, Algorithm::ma_flat);
  EXPECT_EQ(plan::Plan::unpack(tw[0]).source, plan::PlanSource::bench);
}

TEST(PlanPersistence, SaveLoadSaveIsAFixpointWithIdenticalDecisions) {
  const int p = 8, m = 2;
  rt::ThreadTeam a(tuned_cfg(p, m, rt::TuneMode::prior));
  const auto warmed =
      plan::warm_from_bench(fake_bench_report(p, m, a.config().cache));
  ASSERT_GT(plan::load_plans(a, warmed), 0);
  const auto saved = plan::save_plans(a);
  plan::validate_plan_json(saved);

  rt::ThreadTeam b(tuned_cfg(p, m, rt::TuneMode::prior));
  ASSERT_EQ(plan::load_plans(b, saved),
            static_cast<int>(saved["plans"].size()));
  const auto saved2 = plan::save_plans(b);
  EXPECT_EQ(saved.dump(2), saved2.dump(2));

  for (const std::size_t bytes : {4u << 10, 64u << 10, 1u << 20, 4u << 20}) {
    const auto pa = plan::query(a, CollKind::allreduce, bytes, Datatype::f64,
                                ReduceOp::sum);
    const auto pb = plan::query(b, CollKind::allreduce, bytes, Datatype::f64,
                                ReduceOp::sum);
    EXPECT_EQ(pa.pack(), pb.pack()) << "bytes=" << bytes;
  }

  // Plans from a different shape or machine never load.
  rt::ThreadTeam other(tuned_cfg(4, 1, rt::TuneMode::prior));
  EXPECT_EQ(plan::load_plans(other, saved), 0);
}

TEST(PlanPersistence, PlanFileEnvWarmsTheRegistryOnFirstUse) {
  const int p = 8, m = 2;
  const std::string path = ::testing::TempDir() + "yhccl_plans_test.json";
  {
    rt::ThreadTeam staging(tuned_cfg(p, m, rt::TuneMode::prior));
    const auto warmed = plan::warm_from_bench(
        fake_bench_report(p, m, staging.config().cache));
    ASSERT_GT(plan::load_plans(staging, warmed), 0);
    plan::save_plans_file(staging, path);
  }
  EnvGuard g("YHCCL_PLAN_FILE", path.c_str());
  rt::ThreadTeam team(tuned_cfg(p, m, rt::TuneMode::prior));
  auto* words =
      reinterpret_cast<std::uint64_t*>(team.shared_alloc(sizeof(std::uint64_t) * p));
  run_logged_allreduce(team, 1, (4u << 20) / sizeof(double), words);
  EXPECT_EQ(plan::Plan::unpack(words[0]).algorithm, Algorithm::ma_flat);
  EXPECT_EQ(plan::Plan::unpack(words[0]).source, plan::PlanSource::bench);
  EXPECT_GT(plan::tune_stats(team).loaded, 0u);

  // A missing file warns but serves the prior; a malformed one throws.
  EnvGuard g2("YHCCL_PLAN_FILE", "/nonexistent/plans.json");
  rt::ThreadTeam cold(tuned_cfg(p, m, rt::TuneMode::prior));
  plan::warm_now(cold);
  EXPECT_EQ(plan::tune_stats(cold).loaded, 0u);
  const auto bad = bench::Json::parse("{\"schema\": \"nope\"}");
  EXPECT_THROW(plan::validate_plan_json(bad), Error);
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
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
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
    // Warm the slot (plus the registry's file handshake) first.
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
  EXPECT_EQ(*delta, 0u) << "warm-path collective calls allocated";
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
