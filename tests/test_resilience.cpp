// Resilient execution (docs/robustness.md §resume): the policy-driven retry
// engine inside Team::run(), the shared-state integrity verification it leans
// on, and the quarantine path that pins repeatedly-faulting cached plans out
// of rotation.  Also the satellite guarantees: the 0-retry policy is the
// legacy fail-fast path (no extra allocations, no auto-recover), overflow-
// checked shared-section size computations raise yhccl::Error instead of
// wrapping, and repeated die->recover cycles converge without leaking file
// descriptors or mappings.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "yhccl/analysis/hb.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/runtime/plan_registry.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/resilience.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "yhccl/trace/trace.hpp"

using namespace yhccl;
using coll::CollOpts;

// ---- global allocation counter for the zero-alloc wrapped-path test ---------

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

enum class Backend { threads, procs };

std::unique_ptr<rt::Team> make_team(Backend b, int p, int m,
                                    const rt::ResiliencePolicy& pol = {},
                                    rt::TuneMode tune = rt::TuneMode::env) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 16u << 20;
  cfg.shared_heap_bytes = 16u << 20;
  cfg.sync_timeout = 20.0;  // safety net only; detection must be faster
  cfg.tune = tune;
  cfg.resilience = pol;
  if (b == Backend::procs) return std::make_unique<rt::ProcessTeam>(cfg);
  return std::make_unique<rt::ThreadTeam>(cfg);
}

rt::ResiliencePolicy policy(const std::string& spec) {
  return rt::ResiliencePolicy::parse(spec);
}

double* alloc_f64(rt::Team& team, std::size_t n) {
  return reinterpret_cast<double*>(team.shared_alloc(n * sizeof(double)));
}

/// Per-rank allreduce buffers in the shared heap (parent-fillable on both
/// backends, reusable across retried runs without re-allocating the heap).
struct Bufs {
  std::vector<double*> in, out;
  std::size_t n = 0;
};

Bufs make_bufs(rt::Team& team, int p, std::size_t n) {
  Bufs b;
  b.n = n;
  b.in.resize(static_cast<std::size_t>(p));
  b.out.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    b.in[r] = alloc_f64(team, n);
    b.out[r] = alloc_f64(team, n);
    test::fill_buffer(b.in[r], n, Datatype::f64, r, ReduceOp::sum);
  }
  return b;
}

/// One tuned allreduce over the team's current membership, verified against
/// the sequential reference.
void run_allreduce_checked(rt::Team& team, Bufs& b,
                           const CollOpts& opts = {}) {
  team.run([&](rt::RankCtx& ctx) {
    coll::allreduce(ctx, b.in[ctx.rank()], b.out[ctx.rank()], b.n,
                    Datatype::f64, ReduceOp::sum, opts);
  });
  for (int r = 0; r < team.nranks(); ++r)
    EXPECT_TRUE(test::check_reduced(b.out[r], b.n, Datatype::f64,
                                    team.nranks(), ReduceOp::sum))
        << "allreduce r" << r;
}

/// The single nonzero plan-cache entry (tests arrange for exactly one).
rt::PlanSlot* only_plan_slot(rt::Team& team) {
  rt::PlanRegistry* reg = team.plan_registry();
  if (reg == nullptr) return nullptr;
  rt::PlanSlot* found = nullptr;
  for (std::uint32_t i = 0; i < reg->capacity(); ++i) {
    if (reg->slot(i).hash.load(std::memory_order_acquire) == 0) continue;
    if (found != nullptr) return nullptr;  // ambiguous
    found = &reg->slot(i);
  }
  return found;
}

int count_open_fds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

int count_mappings() {
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return -1;
  int n = 0, c;
  while ((c = std::fgetc(f)) != EOF)
    if (c == '\n') ++n;
  std::fclose(f);
  return n;
}

class NoZombies : public ::testing::Test {
 protected:
  void TearDown() override {
    int status = 0;
    const pid_t z = waitpid(-1, &status, WNOHANG);
    EXPECT_TRUE(z == 0 || (z < 0 && errno == ECHILD))
        << "leaked child process " << z;
  }
};

}  // namespace

// ---- YHCCL_RESILIENCE grammar ------------------------------------------------

TEST(ResiliencePolicyParse, FullSpecRoundTrip) {
  const auto p = rt::ResiliencePolicy::parse(
      "retries=3:backoff=1.5:cap=50:seed=42:degrade=1:quarantine=4");
  EXPECT_EQ(p.max_retries, 3);
  EXPECT_DOUBLE_EQ(p.backoff_ms, 1.5);
  EXPECT_DOUBLE_EQ(p.backoff_cap_ms, 50.0);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.degrade_after, 1);
  EXPECT_EQ(p.quarantine_epochs, 4u);
  EXPECT_TRUE(p.enabled());

  const auto q = rt::ResiliencePolicy::parse("retries=0");
  EXPECT_FALSE(q.enabled());
  EXPECT_DOUBLE_EQ(q.backoff_ms, 2.0);  // unmentioned knobs keep defaults
}

TEST(ResiliencePolicyParse, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "retries", "retries=", "retries=x", "backoff=3",
        "retries=-1", "retries=2:frobnicate=1", "retries=2:degrade=0",
        "retries=2:quarantine=0", "retries=2:backoff=-1"}) {
    EXPECT_THROW(rt::ResiliencePolicy::parse(bad), Error) << "'" << bad << "'";
  }
}

TEST(ResiliencePolicyParse, EnvResolutionAndConfigPrecedence) {
  {
    EnvGuard g("YHCCL_RESILIENCE", "retries=2:backoff=0.5:seed=7");
    const auto env = rt::ResiliencePolicy::from_env();
    EXPECT_EQ(env.max_retries, 2);
    EXPECT_DOUBLE_EQ(env.backoff_ms, 0.5);
    EXPECT_EQ(env.seed, 7u);

    // The default (deferring) policy adopts the env wholesale.
    const auto def = rt::ResiliencePolicy{}.resolved();
    EXPECT_EQ(def.max_retries, 2);
    EXPECT_EQ(def.seed, 7u);

    // An explicit config-side retry count wins over the environment.
    auto cfg = rt::ResiliencePolicy::parse("retries=1:seed=9");
    const auto r = cfg.resolved();
    EXPECT_EQ(r.max_retries, 1);
    EXPECT_EQ(r.seed, 9u);
  }
  {
    EnvGuard g("YHCCL_RESILIENCE", nullptr);
    const auto def = rt::ResiliencePolicy{}.resolved();
    EXPECT_EQ(def.max_retries, 0);
    EXPECT_FALSE(def.enabled());
  }
}

TEST(ResiliencePolicyParse, TeamResolvesPolicyAtConstruction) {
  EnvGuard g("YHCCL_RESILIENCE", "retries=2:backoff=0");
  auto team = make_team(Backend::threads, 2, 1);
  EXPECT_EQ(team->resilience_policy().max_retries, 2);
  EXPECT_TRUE(team->resilience_policy().enabled());
}

// ---- backoff schedule --------------------------------------------------------

TEST(ResilienceBackoff, DeterministicBoundedJitter) {
  auto p = policy("retries=5:backoff=2:cap=16:seed=11");
  double prev_cap_hit = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double a = rt::resilience_backoff_ms(p, attempt);
    const double b = rt::resilience_backoff_ms(p, attempt);
    EXPECT_DOUBLE_EQ(a, b) << "same (seed, attempt) must replay identically";
    const double nominal = std::min(16.0, 2.0 * double(1 << attempt));
    EXPECT_GE(a, nominal * 0.5) << "attempt " << attempt;
    EXPECT_LE(a, nominal) << "attempt " << attempt;
    prev_cap_hit = a;
  }
  EXPECT_LE(prev_cap_hit, 16.0);

  auto q = p;
  q.seed = 12;
  bool differs = false;
  for (int attempt = 0; attempt < 8; ++attempt)
    differs |= rt::resilience_backoff_ms(p, attempt) !=
               rt::resilience_backoff_ms(q, attempt);
  EXPECT_TRUE(differs) << "different seeds must jitter differently";

  auto z = policy("retries=1:backoff=0");
  EXPECT_DOUBLE_EQ(rt::resilience_backoff_ms(z, 0), 0.0);
  EXPECT_DOUBLE_EQ(rt::resilience_backoff_ms(z, 7), 0.0);
}

// ---- satellite: the 0-retry policy is the legacy fail-fast path --------------

TEST_F(NoZombies, ZeroRetryPolicyFailsFastWithoutAutoRecover) {
  EnvGuard g("YHCCL_RESILIENCE", nullptr);
  for (const Backend b : {Backend::threads, Backend::procs}) {
    auto team = make_team(b, 4, 2);
    ASSERT_FALSE(team->resilience_policy().enabled());
    Bufs bufs = make_bufs(*team, 4, 2048);
    team->set_fault_plan(rt::FaultPlan::parse("die@barrier:rank=2:iter=0"));
    const std::uint64_t epoch0 = team->team_epoch();
    try {
      team->run([](rt::RankCtx& ctx) { ctx.barrier(); });
      ADD_FAILURE() << "expected an abort";
    } catch (const Error& e) {
      EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
      EXPECT_EQ(e.fault_rank(), 2);
    }
    // Fail-fast: no automatic recovery happened and no counter moved.
    EXPECT_EQ(team->team_epoch(), epoch0);
    const auto& st = team->resilience_stats();
    EXPECT_EQ(st.faults, 0u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.recoveries, 0u);
    EXPECT_EQ(st.giveups, 0u);
    // The manual contract still works.
    team->set_fault_plan(rt::FaultPlan{});
    EXPECT_EQ(team->recover().kind, FaultKind::peer_dead);
    run_allreduce_checked(*team, bufs);
  }
}

TEST(ResilienceZeroAlloc, WrappedRunAddsNoAllocationsOnTheFaultFreePath) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  EnvGuard r("YHCCL_RESILIENCE", nullptr);
  auto team = make_team(Backend::threads, 4, 2, {}, rt::TuneMode::online);
  Bufs bufs = make_bufs(*team, 4, 16384);
  const std::function<void(rt::RankCtx&)> fn = [&](rt::RankCtx& ctx) {
    coll::allreduce(ctx, bufs.in[ctx.rank()], bufs.out[ctx.rank()], bufs.n,
                    Datatype::f64, ReduceOp::sum);
  };
  for (int i = 0; i < 3; ++i) team->run(fn);  // warm plan cache + allocator
  const auto measure = [&] {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    team->run(fn);
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  const std::uint64_t legacy_a = measure();
  const std::uint64_t legacy_b = measure();
  ASSERT_EQ(legacy_a, legacy_b) << "legacy run() is not allocation-steady";
  team->set_resilience_policy(policy("retries=3:backoff=0"));
  ASSERT_TRUE(team->resilience_policy().enabled());
  for (int i = 0; i < 2; ++i) team->run(fn);
  EXPECT_EQ(measure(), legacy_a)
      << "the resilient wrapper allocated on the fault-free path";
  EXPECT_EQ(measure(), legacy_a);
}

// ---- automatic retry: transient faults self-heal -----------------------------

TEST_F(NoZombies, TransientDeathSelfHealsOnBothBackends) {
  for (const Backend b : {Backend::threads, Backend::procs}) {
    auto team = make_team(b, 4, 2, policy("retries=2:backoff=0"));
    Bufs bufs = make_bufs(*team, 4, 2048);
    const std::uint64_t epoch0 = team->team_epoch();
    // once=1: the victim dies on the first attempt only — a transient fault.
    team->set_fault_plan(
        rt::FaultPlan::parse("die@barrier:rank=2:iter=0:once=1"));
    team->run([&](rt::RankCtx& ctx) {
      ctx.barrier();
      coll::allreduce(ctx, bufs.in[ctx.rank()], bufs.out[ctx.rank()], bufs.n,
                      Datatype::f64, ReduceOp::sum);
    });
    team->set_fault_plan(rt::FaultPlan{});
    const int p = team->nranks();
    EXPECT_EQ(p, b == Backend::procs ? 3 : 4);  // procs exclude the dead rank
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(test::check_reduced(bufs.out[r], bufs.n, Datatype::f64, p,
                                      ReduceOp::sum))
          << "healed allreduce r" << r;
    const auto& st = team->resilience_stats();
    EXPECT_EQ(st.faults, 1u);
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.recoveries, 1u);
    EXPECT_EQ(st.heals, 1u);
    EXPECT_EQ(st.giveups, 0u);
    EXPECT_FALSE(team->degraded()) << "success must leave the degraded lane";
    EXPECT_EQ(team->team_epoch(), epoch0 + 1);
  }
}

TEST(ResilienceRetry, PersistentFaultGivesUpAfterTheBudget) {
  auto team = make_team(Backend::threads, 4, 2, policy("retries=1:backoff=0"));
  Bufs bufs = make_bufs(*team, 4, 2048);
  // No once gate: the victim re-dies on every attempt.
  team->set_fault_plan(rt::FaultPlan::parse("die@barrier:rank=1:iter=0"));
  EXPECT_THROW(team->run([](rt::RankCtx& ctx) { ctx.barrier(); }), Error);
  const auto& st = team->resilience_stats();
  EXPECT_EQ(st.faults, 2u);      // initial attempt + the one retry
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.giveups, 1u);
  EXPECT_EQ(st.heals, 0u);
  // The team is still recoverable by hand after the give-up.
  team->set_fault_plan(rt::FaultPlan{});
  team->recover();
  run_allreduce_checked(*team, bufs);
}

TEST(ResilienceRetry, NonFaultErrorsAreNotRetried) {
  auto team = make_team(Backend::threads, 2, 1, policy("retries=3:backoff=0"));
  int calls = 0;
  try {
    team->run([&](rt::RankCtx& ctx) {
      if (ctx.rank() == 0) ++calls;
      ctx.barrier();
      raise("plain invariant failure, not a classified fault");
    });
    ADD_FAILURE() << "expected the error to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::none);
  }
  EXPECT_EQ(calls, 1) << "a kind-none error must not be re-issued";
  EXPECT_EQ(team->resilience_stats().retries, 0u);
}

// ---- quarantine: a repeatedly-faulting plan leaves the rotation --------------

TEST(ResilienceQuarantine, RepeatedFaultQuarantinesThePlanForItsEpochs) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  auto team =
      make_team(Backend::threads, 4, 2,
                policy("retries=3:backoff=0:quarantine=4"),
                rt::TuneMode::online);
  ASSERT_NE(team->plan_registry(), nullptr);
  const std::uint64_t e0 = team->team_epoch();
  // 1 MiB of doubles keeps the large-message (socket-aware MA) lane, whose
  // slice loops pass the "slice" fault site; iter=1 lands mid stage 1.
  const std::size_t n = 1u << 17;
  CollOpts opts;
  Bufs bufs = make_bufs(*team, 4, n);
  team->set_fault_plan(rt::FaultPlan::parse("die@slice:rank=1:iter=1"));
  EXPECT_THROW(run_allreduce_checked(*team, bufs, opts), Error);
  team->set_fault_plan(rt::FaultPlan{});

  const auto& st = team->resilience_stats();
  EXPECT_EQ(st.faults, 4u);        // attempts 0..3 all faulted
  EXPECT_EQ(st.retries, 3u);
  EXPECT_EQ(st.recoveries, 3u);
  EXPECT_EQ(st.giveups, 1u);
  EXPECT_EQ(st.quarantines, 1u);   // streak of 2 on the same key
  EXPECT_EQ(st.degrades, 1u);      // degrade_after=2 entered the slow lane
  EXPECT_EQ(team->team_epoch(), e0 + 3);

  // The quarantine mark is live: plan word buried, mark set past the
  // current epoch (claimed after the 2nd recovery, so until e0+2+4).
  rt::PlanSlot* slot = only_plan_slot(*team);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->plan.load(std::memory_order_acquire), 0u);
  EXPECT_EQ(slot->quar.load(std::memory_order_acquire), e0 + 6);
  EXPECT_TRUE(rt::PlanRegistry::quarantined(*slot, team->team_epoch()));

  // Clean up the aborted run, then plant a valid committed word in the
  // quarantined slot (what a warmed or online-refined cache would hold).
  // While the quarantine epoch lasts, the engine must serve the analytic
  // prior and never this word — that is "never re-selected".
  team->recover();  // e0+4, still quarantined
  ASSERT_TRUE(rt::PlanRegistry::quarantined(*slot, team->team_epoch()));
  namespace plan = coll::plan;
  const auto key = plan::make_key(coll::CollKind::allreduce,
                                  n * sizeof(double), Datatype::f64,
                                  ReduceOp::sum, team->topo(), opts);
  plan::Plan planted = plan::prior_plan(key, opts, team->caps());
  planted.source = plan::PlanSource::online;  // distinct from a prior serve
  const std::uint64_t planted_word = planted.pack();
  slot->plan.store(planted_word, std::memory_order_release);

  auto* served = reinterpret_cast<std::uint64_t*>(
      team->shared_alloc(sizeof(std::uint64_t) * 4));
  const auto run_logged = [&] {
    team->run([&](rt::RankCtx& ctx) {
      coll::allreduce(ctx, bufs.in[ctx.rank()], bufs.out[ctx.rank()], bufs.n,
                      Datatype::f64, ReduceOp::sum, opts);
      served[ctx.rank()] = plan::last_plan_word();
    });
  };
  run_logged();
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(served[r], planted_word)
        << "rank " << r << " re-selected a quarantined plan";

  // Two more epochs and the mark expires; the cached word is honored again.
  team->recover();
  team->recover();  // e0+6 == until -> no longer quarantined
  EXPECT_FALSE(rt::PlanRegistry::quarantined(*slot, team->team_epoch()));
  run_logged();
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(served[r], planted_word)
        << "rank " << r << " must serve the cache once the mark expired";
}

// ---- integrity verification: every shared section ----------------------------

TEST_F(NoZombies, InjectedCorruptionIsDetectedInEverySharedSection) {
  for (const Backend b : {Backend::threads, Backend::procs}) {
    for (const char* site : {"arena", "fifo", "plans"}) {
      auto team = make_team(b, 4, 2, {}, rt::TuneMode::online);
      const std::string spec =
          std::string("corrupt@") + site + ":rank=0:iter=0";
      team->set_fault_plan(rt::FaultPlan::parse(spec));
      // A barrier-only run: the injection lands, the run itself completes
      // (nothing reads the tampered word yet).
      team->run([](rt::RankCtx& ctx) { ctx.barrier(); });
      team->set_fault_plan(rt::FaultPlan{});

      auto rep = team->verify_integrity(/*repair=*/false);
      EXPECT_FALSE(rep.ok()) << spec << ": sweep missed the tamper";
      EXPECT_GT(rep.sections_checked, 0u);

      // The repairing sweep fixes it in place; the team stays usable.
      auto fixed = team->verify_integrity(/*repair=*/true);
      EXPECT_FALSE(fixed.ok()) << spec;
      EXPECT_TRUE(team->verify_integrity(false).ok())
          << spec << ": repair did not converge";
      Bufs bufs = make_bufs(*team, 4, 2048);
      run_allreduce_checked(*team, bufs);
    }
  }
}

// ---- the section directory ---------------------------------------------------

// The stamped headers describe the mapping exactly: they tile it from offset
// 0 to its end in page-aligned sections, the heap section holds the caller's
// heap plus both fold stages, and the optional services map a section only
// when they run.  Holds on both backends, with every optional service on or
// off, and again after a recovery re-stamps the directory.
TEST(SectionDirectory, StampedHeadersTileTheMappingOnBothBackends) {
  constexpr std::size_t kPage = 4096;
  for (const Backend b : {Backend::threads, Backend::procs}) {
    for (const bool services : {false, true}) {
      rt::TeamConfig cfg;
      cfg.nranks = 4;
      cfg.nsockets = 2;
      cfg.scratch_bytes = 4u << 20;
      cfg.shared_heap_bytes = (1u << 20) + 100;  // not a page multiple
      cfg.hb_check = services ? rt::HbMode::on : rt::HbMode::off;
      cfg.trace = services ? trace::Mode::spans : trace::Mode::off;
      cfg.metrics = services ? metrics::Mode::on : metrics::Mode::off;
      std::unique_ptr<rt::Team> team;
      if (b == Backend::procs)
        team = std::make_unique<rt::ProcessTeam>(cfg);
      else
        team = std::make_unique<rt::ThreadTeam>(cfg);
      const std::string what =
          std::string(b == Backend::procs ? "procs" : "threads") +
          (services ? " with services" : " bare");

      for (int pass = 0; pass < 2; ++pass) {
        const rt::TeamShared& sh = team->shared();
        std::uint64_t end = 0;
        for (int i = 0; i < rt::kMaxSections; ++i) {
          const rt::SectionHeader& h = sh.sections[i];
          EXPECT_EQ(h.off, end) << what << " section " << i;
          EXPECT_EQ(h.off % kPage, 0u) << what << " section " << i;
          EXPECT_EQ(h.epoch, team->team_epoch()) << what << " section " << i;
          end = h.off + h.bytes;
        }
        EXPECT_EQ(end, team->mapping_bytes()) << what;
        const auto bytes_of = [&sh](rt::Section s) {
          return sh.sections[static_cast<int>(s)].bytes;
        };
        EXPECT_EQ(bytes_of(rt::Section::heap),
                  round_up(cfg.shared_heap_bytes + 2 * rt::kFoldStageBytes,
                           kPage))
            << what;
        EXPECT_EQ(bytes_of(rt::Section::scratch), cfg.scratch_bytes) << what;
        for (const rt::Section s :
             {rt::Section::hb, rt::Section::trace, rt::Section::metrics})
          EXPECT_EQ(bytes_of(s) != 0, services)
              << what << " section " << static_cast<int>(s);
        const auto rep = team->verify_integrity(/*repair=*/false);
        EXPECT_TRUE(rep.ok())
            << what << ": " << (rep.ok() ? "" : rep.findings.front());
        EXPECT_EQ(rep.sections_checked,
                  static_cast<std::uint64_t>(rt::kMaxSections));
        team->recover();  // re-stamps under the next epoch
      }
    }
  }
}

// A header re-stamped with a valid canary and checksum but a moved section
// still disagrees with the team's section table, and the repairing sweep
// restores it.
TEST(SectionDirectory, ConsistentlyRestampedHeaderThatMovesASectionIsFlagged) {
  auto team = make_team(Backend::threads, 4, 2);
  rt::SectionHeader& h =
      team->shared().sections[static_cast<int>(rt::Section::scratch)];
  const rt::SectionHeader good = h;
  h.off += 4096;
  h.bytes -= 4096;
  h.canary = rt::kSectionCanary ^ h.off;
  h.sum = rt::section_sum(h);
  const auto rep = team->verify_integrity(/*repair=*/true);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_NE(rep.findings.front().find("section table"), std::string::npos)
      << rep.findings.front();
  EXPECT_EQ(h.off, good.off);
  EXPECT_EQ(h.bytes, good.bytes);
  EXPECT_TRUE(team->verify_integrity(false).ok());
}

TEST(ResilienceCorruption, TamperedPlanWordAbortsClassifiedAndSelfHeals) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  auto team = make_team(Backend::threads, 4, 2,
                        policy("retries=2:backoff=0"), rt::TuneMode::online);
  Bufs bufs = make_bufs(*team, 4, 16384);
  run_allreduce_checked(*team, bufs);  // the online lane claims a slot
  rt::PlanSlot* slot = only_plan_slot(*team);
  ASSERT_NE(slot, nullptr);
  ASSERT_NE(slot->hash.load(std::memory_order_acquire), 0u);

  // A word with data bits but no valid bit can only come from corruption:
  // the read-side structural gate must classify it, and the retry engine's
  // repairing sweep must heal the run without caller involvement.
  slot->plan.store(0x2u, std::memory_order_release);
  run_allreduce_checked(*team, bufs);
  const auto& st = team->resilience_stats();
  EXPECT_EQ(st.faults, 1u);
  EXPECT_GE(st.corruptions, 1u) << "the sweep must count the wiped slot";
  EXPECT_EQ(st.heals, 1u);

  // With retries disabled the same tamper is a coherent classified error.
  team->set_resilience_policy(policy("retries=0"));
  slot = only_plan_slot(*team);
  if (slot != nullptr && slot->hash.load(std::memory_order_acquire) != 0) {
    slot->plan.store(0x2u, std::memory_order_release);
    try {
      run_allreduce_checked(*team, bufs);
      ADD_FAILURE() << "expected a corruption abort";
    } catch (const Error& e) {
      EXPECT_EQ(e.fault_kind(), FaultKind::corruption);
    }
    team->recover();
    run_allreduce_checked(*team, bufs);
  }
}

TEST(ResilienceCorruption, TamperedFifoCountersAbortClassifiedAndSelfHeal) {
  auto team = make_team(Backend::threads, 2, 1, policy("retries=2:backoff=0"));
  auto* msg = alloc_f64(*team, 256);
  auto* got = alloc_f64(*team, 256);
  test::fill_buffer(msg, 256, Datatype::f64, 7, ReduceOp::sum);
  const auto pt2pt = [&](rt::RankCtx& ctx) {
    if (ctx.rank() == 0)
      ctx.send(1, msg, 256 * sizeof(double));
    else
      ctx.recv(0, got, 256 * sizeof(double));
  };
  team->run(pt2pt);
  EXPECT_EQ(std::memcmp(msg, got, 256 * sizeof(double)), 0);

  // Drive the producer counter outside [tail, tail + kSlots]: every later
  // FIFO operation must trip the read-side sandwich check, classify the run
  // as corrupted, and the retry engine must rebuild the channel and re-run.
  auto& ch = team->channel(0, 1);
  const std::uint64_t tail = ch.tail.load(std::memory_order_acquire);
  ch.head.store(tail + 100, std::memory_order_release);
  std::memset(got, 0, 256 * sizeof(double));
  team->run(pt2pt);
  EXPECT_EQ(std::memcmp(msg, got, 256 * sizeof(double)), 0)
      << "the healed re-run must deliver the payload";
  const auto& st = team->resilience_stats();
  EXPECT_EQ(st.faults, 1u);
  EXPECT_EQ(st.heals, 1u);
  EXPECT_GE(st.corruptions, 1u);
}

// ---- satellite: repeated recovery converges without leaks --------------------

TEST_F(NoZombies, RepeatedDeathRecoveryCyclesConvergeWithoutLeaks) {
  auto team = make_team(Backend::procs, 6, 1);
  Bufs bufs = make_bufs(*team, 6, 2048);

  const auto cycle = [&](int expect_survivors) {
    const int victim = team->nranks() - 1;
    team->set_fault_plan(rt::FaultPlan::parse(
        "die@barrier:rank=" + std::to_string(victim) + ":iter=0"));
    const std::uint64_t epoch0 = team->team_epoch();
    EXPECT_THROW(team->run([](rt::RankCtx& ctx) { ctx.barrier(); }), Error);
    const rt::FaultInfo info = team->recover();
    EXPECT_EQ(info.kind, FaultKind::peer_dead);
    EXPECT_EQ(info.rank, victim);
    EXPECT_EQ(team->team_epoch(), epoch0 + 1) << "epoch must be monotonic";
    EXPECT_EQ(team->nranks(), expect_survivors)
        << "membership must shrink by exactly the dead rank";
    team->set_fault_plan(rt::FaultPlan{});
  };

  cycle(5);  // warm-up: allocator pools and lazy glibc state settle here
  const int fds0 = count_open_fds();
  const int maps0 = count_mappings();
  ASSERT_GT(fds0, 0);
  ASSERT_GT(maps0, 0);

  for (int expect = 4; expect >= 2; --expect) {
    cycle(expect);
    EXPECT_EQ(count_open_fds(), fds0)
        << "recover() leaked a file descriptor";
    // Monotonic membership: each cycle kills the highest surviving original
    // rank, so the mapping must stay the identity prefix — an excluded rank
    // id never reappears.
    for (int r = 0; r < team->nranks(); ++r)
      EXPECT_EQ(team->global_rank(r), r);
  }
  ASSERT_EQ(team->nranks(), 2);
  const int maps1 = count_mappings();
  EXPECT_LE(maps1, maps0 + 1) << "recover() leaked mappings";

  // The shrunken team still computes correct collectives.
  run_allreduce_checked(*team, bufs);
  EXPECT_GE(team->team_epoch(), 4u);
}

// ---- satellite: overflow-checked shared-section sizing -----------------------

TEST(OverflowChecks, CheckedArithmeticBoundaries) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(checked_add(2, 3, "t"), 5u);
  EXPECT_EQ(checked_add(kMax - 1, 1, "t"), kMax);
  EXPECT_THROW(checked_add(kMax, 1, "t"), Error);
  EXPECT_EQ(checked_mul(6, 7, "t"), 42u);
  EXPECT_EQ(checked_mul(kMax, 1, "t"), kMax);
  EXPECT_EQ(checked_mul(0, kMax, "t"), 0u);
  EXPECT_THROW(checked_mul(kMax / 2 + 1, 2, "t"), Error);
  EXPECT_EQ(checked_round_up(1, 4096, "t"), 4096u);
  EXPECT_EQ(checked_round_up(4096, 4096, "t"), 4096u);
  EXPECT_THROW(checked_round_up(kMax - 1, 4096, "t"), Error);
}

TEST(OverflowChecks, SharedSectionSizersRaiseInsteadOfWrapping) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // Sane inputs still size exactly.
  EXPECT_GT(trace::TraceBuffer::required_bytes(4, 4096), 0u);
  EXPECT_GT(analysis::HbChecker::required_bytes(1024), 0u);
  EXPECT_GT(rt::PlanRegistry::required_bytes(64), 0u);
  // Absurd inputs raise a typed error instead of wrapping into a tiny
  // (and then overrun) arena.
  EXPECT_THROW(trace::TraceBuffer::required_bytes(
                   std::numeric_limits<int>::max(), 0xffffffffu),
               Error);
  EXPECT_THROW(analysis::HbChecker::required_bytes(kMax / 2), Error);
}

TEST(OverflowChecks, AbsurdTeamConfigRaisesTypedError) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const bool huge_heap : {true, false}) {
    rt::TeamConfig cfg;
    cfg.nranks = 2;
    cfg.nsockets = 1;
    if (huge_heap)
      cfg.shared_heap_bytes = kMax;
    else
      cfg.scratch_bytes = kMax - 4096;
    EXPECT_THROW(rt::ThreadTeam{cfg}, Error)
        << (huge_heap ? "heap" : "scratch");
  }
}

TEST(OverflowChecks, SharedAllocRefusesOverflowingReservation) {
  auto team = make_team(Backend::threads, 2, 1);
  EXPECT_THROW(
      team->shared_alloc(std::numeric_limits<std::size_t>::max() - 64),
      Error);
  EXPECT_NE(team->shared_alloc(64), nullptr);  // the heap itself still works
}

// ---- a deterministic mini chaos sweep (the full campaign lives in bench) ----

TEST_F(NoZombies, MiniChaosSweepNeverProducesSilentWrongAnswers) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // fixed seed: deterministic sweep
  const auto next = [&x] {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const char* actions[] = {"die@barrier", "die@slice", "stall@barrier:ms=2",
                           "corrupt@arena", "corrupt@fifo", "corrupt@plans"};
  for (int i = 0; i < 10; ++i) {
    const Backend b = (next() & 1) != 0 ? Backend::procs : Backend::threads;
    auto team = make_team(b, 4, 2, policy("retries=2:backoff=0"),
                          rt::TuneMode::online);
    Bufs bufs = make_bufs(*team, 4, 1u << 14);
    const std::string spec = std::string(actions[next() % 6]) +
                             ":rank=" + std::to_string(next() % 4) +
                             ":iter=" + std::to_string(next() % 3) +
                             ":once=1";
    team->set_fault_plan(rt::FaultPlan::parse(spec));
    try {
      run_allreduce_checked(*team, bufs);  // checks bit-correctness inside
    } catch (const Error& e) {
      EXPECT_NE(e.fault_kind(), FaultKind::none) << spec;
      team->set_fault_plan(rt::FaultPlan{});
      team->recover();
    }
    team->set_fault_plan(rt::FaultPlan{});
    run_allreduce_checked(*team, bufs);  // the team always self-heals
  }
}
