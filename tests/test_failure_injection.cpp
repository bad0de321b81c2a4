// Failure-injection tests: a dead, diverged, or wedged peer rank must
// surface as a yhccl::Error on every surviving rank — never as a silent
// hang — and all survivors must report the *same* classified fault (kind,
// faulting rank, team epoch) via the shared abort word.
//
// Deterministic faults are injected through the YHCCL_FAULT layer
// (rt::FaultPlan / Team::set_fault_plan) instead of hand-rolled early
// returns; the legacy desertion tests remain as coverage for faults the
// injector does not model (a rank that simply leaves the SPMD function).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/sync_timeout.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;

namespace {

// Fresh teams per test: aborted collectives leave torn synchronization
// state behind, which must not leak into other tests through a cache.
rt::ThreadTeam fresh_team(int p, int m) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = 1u << 20;
  return rt::ThreadTeam(cfg);
}

// Every test must leave zero child processes behind: run() reaps all rank
// processes it forks, so a zombie here means the backend leaked one.
class FailureInjection : public ::testing::Test {
 protected:
  void TearDown() override {
    int status = 0;
    const pid_t z = waitpid(-1, &status, WNOHANG);
    EXPECT_TRUE(z == 0 || (z < 0 && errno == ECHILD))
        << "leaked child process " << z;
  }
};

TEST(SyncTimeout, DefaultIsEnabledAndOverridable) {
  EXPECT_GT(rt::sync_timeout(), 0.0);
  {
    rt::ScopedSyncTimeout scoped(1.5);
    EXPECT_DOUBLE_EQ(rt::sync_timeout(), 1.5);
  }
  EXPECT_NE(rt::sync_timeout(), 1.5);
}

TEST(SyncTimeout, EnvVariableAppliesAtTeamConstruction) {
  const double saved = rt::sync_timeout();
  ASSERT_EQ(setenv("YHCCL_SYNC_TIMEOUT", "7.5", 1), 0);
  { auto team = fresh_team(2, 1); }
  EXPECT_DOUBLE_EQ(rt::sync_timeout(), 7.5);
  unsetenv("YHCCL_SYNC_TIMEOUT");
  rt::set_sync_timeout(saved);
}

TEST(SyncTimeout, ConfigRouteWinsOverEnvironment) {
  const double saved = rt::sync_timeout();
  ASSERT_EQ(setenv("YHCCL_SYNC_TIMEOUT", "9.0", 1), 0);
  {
    rt::TeamConfig cfg;
    cfg.nranks = 2;
    cfg.scratch_bytes = 1u << 20;
    cfg.shared_heap_bytes = 1u << 20;
    cfg.sync_timeout = 3.25;
    rt::ThreadTeam team(cfg);
    EXPECT_DOUBLE_EQ(rt::sync_timeout(), 3.25);
  }
  unsetenv("YHCCL_SYNC_TIMEOUT");
  rt::set_sync_timeout(saved);
}

TEST(FaultPlanGrammar, ParsesFullSpecs) {
  const auto p = rt::FaultPlan::parse("die@barrier:rank=2:iter=3");
  EXPECT_EQ(p.action, rt::FaultPlan::Action::die);
  EXPECT_EQ(p.site, "barrier");
  EXPECT_EQ(p.rank, 2);
  EXPECT_EQ(p.iter, 3u);
  EXPECT_TRUE(p.active());

  const auto q = rt::FaultPlan::parse("stall@flag:rank=1:ms=50");
  EXPECT_EQ(q.action, rt::FaultPlan::Action::stall);
  EXPECT_EQ(q.site, "flag");
  EXPECT_EQ(q.rank, 1);
  EXPECT_DOUBLE_EQ(q.stall_ms, 50.0);

  const auto any = rt::FaultPlan::parse("die@slice");
  EXPECT_EQ(any.rank, -1);  // any rank
  EXPECT_EQ(any.iter, 0u);  // first hit

  EXPECT_FALSE(rt::FaultPlan{}.active());
}

TEST(FaultPlanGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(rt::FaultPlan::parse("die"), Error);
  EXPECT_THROW(rt::FaultPlan::parse("vanish@barrier"), Error);
  EXPECT_THROW(rt::FaultPlan::parse("die@"), Error);
  EXPECT_THROW(rt::FaultPlan::parse("die@barrier:rank"), Error);
  EXPECT_THROW(rt::FaultPlan::parse("die@barrier:rank=x"), Error);
  EXPECT_THROW(rt::FaultPlan::parse("die@barrier:bogus=1"), Error);
}

// ---- classification of un-injected faults (rank leaves the SPMD fn) --------

TEST_F(FailureInjection, DesertedBarrierThrowsOnSurvivors) {
  rt::ScopedSyncTimeout scoped(0.4);
  auto team = fresh_team(4, 2);
  try {
    team.run([&](rt::RankCtx& ctx) {
      if (ctx.rank() == 2) return;  // deserter skips the barrier
      ctx.barrier();
    });
    FAIL() << "survivors must not pass a deserted barrier";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
    EXPECT_EQ(e.fault_rank(), 2);
    EXPECT_EQ(e.fault_epoch(), team.team_epoch());
  }
  // The next run() resets the per-run fault state (abort word, tombstones),
  // so mechanisms with monotone state (progress flags, pt2pt) still work:
  team.run([&](rt::RankCtx& ctx) {
    const auto seq = ctx.next_seq();
    ctx.step_publish(rt::RankCtx::step_value(seq, 1));
    ctx.step_wait((ctx.rank() + 1) % ctx.nranks(),
                  rt::RankCtx::step_value(seq, 1));
  });
}

TEST_F(FailureInjection, DeadNeighbourInFlagChainThrows) {
  rt::ScopedSyncTimeout scoped(0.4);
  auto team = fresh_team(3, 1);
  try {
    team.run([&](rt::RankCtx& ctx) {
      const auto seq = ctx.next_seq();
      if (ctx.rank() == 1) return;  // never publishes
      ctx.step_wait(1, rt::RankCtx::step_value(seq, 1));
    });
    FAIL() << "expected an abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
    EXPECT_EQ(e.fault_rank(), 1);
  }
}

TEST_F(FailureInjection, AbandonedCollectiveThrowsNotHangs) {
  rt::ScopedSyncTimeout scoped(0.5);
  auto team = fresh_team(4, 2);
  const std::size_t n = 100000;
  std::vector<std::vector<double>> send(4, std::vector<double>(n, 1.0)),
      recv(4, std::vector<double>(n));
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 if (ctx.rank() == 3) return;  // dies before the collective
                 allreduce(ctx, send[ctx.rank()].data(),
                           recv[ctx.rank()].data(), n, Datatype::f64,
                           ReduceOp::sum, {.algorithm = Algorithm::ma_flat});
               }),
               Error);
}

TEST_F(FailureInjection, StarvedPt2PtReceiverThrows) {
  rt::ScopedSyncTimeout scoped(0.4);
  auto team = fresh_team(2, 1);
  std::vector<std::uint8_t> buf(1024);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 if (ctx.rank() == 1) ctx.recv(0, buf.data(), buf.size());
                 // rank 0 never sends
               }),
               Error);
}

TEST_F(FailureInjection, DeadChildProcessSurfacesThroughWaitpid) {
  rt::ScopedSyncTimeout scoped(0.6);
  rt::TeamConfig cfg;
  cfg.nranks = 3;
  cfg.scratch_bytes = 1 << 20;
  cfg.shared_heap_bytes = 1 << 20;
  rt::ProcessTeam team(cfg);
  // Rank 1 exits cleanly (status 0) mid-protocol: the reap bookkeeping sees
  // nothing abnormal, but the survivors' watchdog pid-probes the vanished
  // process and classifies the expiry as its death.
  try {
    team.run([&](rt::RankCtx& ctx) {
      if (ctx.rank() == 1) _exit(0);
      ctx.barrier();
    });
    FAIL() << "expected an abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
    EXPECT_EQ(e.fault_rank(), 1);
  }
}

// ---- injected faults (YHCCL_FAULT layer) -----------------------------------

TEST_F(FailureInjection, InjectedThreadDeathAbortsAllSurvivorsCoherently) {
  // Watchdog far above the asserted latency: detection must come from the
  // abort word raised at the death, not from each rank's own expiry.
  rt::ScopedSyncTimeout scoped(30.0);
  auto team = fresh_team(4, 2);
  team.set_fault_plan(rt::FaultPlan::parse("die@barrier:rank=2:iter=0"));

  std::atomic<int> caught{0};
  FaultKind kinds[4] = {};
  int ranks[4] = {-1, -1, -1, -1};
  std::uint64_t epochs[4] = {};
  double when[4] = {};
  const double t0 = wall_seconds();
  try {
    team.run([&](rt::RankCtx& ctx) {
      try {
        ctx.barrier();
        ctx.barrier();
      } catch (const Error& e) {
        const int r = ctx.rank();
        kinds[r] = e.fault_kind();
        ranks[r] = e.fault_rank();
        epochs[r] = e.fault_epoch();
        when[r] = wall_seconds();
        caught.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected an abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
    EXPECT_EQ(e.fault_rank(), 2);
    EXPECT_EQ(e.fault_epoch(), 1u);
  }
  const double elapsed = wall_seconds() - t0;
  EXPECT_EQ(caught.load(), 3);
  EXPECT_LT(elapsed, 5.0) << "survivors waited out the watchdog";
  double lo = 1e300, hi = 0;
  for (int r : {0, 1, 3}) {
    EXPECT_EQ(kinds[r], FaultKind::peer_dead) << "rank " << r;
    EXPECT_EQ(ranks[r], 2) << "rank " << r;
    EXPECT_EQ(epochs[r], 1u) << "rank " << r;
    lo = std::min(lo, when[r]);
    hi = std::max(hi, when[r]);
  }
  EXPECT_LT(hi - lo, 1.0) << "survivors did not leave together";
}

TEST_F(FailureInjection, InjectedProcessDeathDetectedAtReapLatency) {
  rt::ScopedSyncTimeout scoped(30.0);
  rt::TeamConfig cfg;
  cfg.nranks = 4;
  cfg.nsockets = 2;
  cfg.scratch_bytes = 4u << 20;
  cfg.shared_heap_bytes = 1u << 20;
  rt::ProcessTeam team(cfg);
  team.set_fault_plan(rt::FaultPlan::parse("die@barrier:rank=1:iter=0"));
  const double t0 = wall_seconds();
  try {
    team.run([](rt::RankCtx& ctx) {
      ctx.barrier();
      ctx.barrier();
    });
    FAIL() << "expected an abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
    EXPECT_EQ(e.fault_rank(), 1);
    EXPECT_EQ(e.fault_epoch(), 1u);
  }
  // Reap-latency detection: the parent's WNOHANG loop tombstones the dead
  // rank and raises the abort within milliseconds of the _exit.
  EXPECT_LT(wall_seconds() - t0, 5.0);
}

TEST_F(FailureInjection, BoundedStallOnlyDelaysTheCollective) {
  rt::ScopedSyncTimeout scoped(10.0);
  auto team = fresh_team(4, 2);
  team.set_fault_plan(rt::FaultPlan::parse("stall@flag:rank=1:ms=50"));
  const std::size_t n = 4096;
  std::vector<std::vector<double>> send(4, std::vector<double>(n)),
      recv(4, std::vector<double>(n));
  for (int r = 0; r < 4; ++r)
    test::fill_buffer(send[r].data(), n, Datatype::f64, r, ReduceOp::sum);
  team.run([&](rt::RankCtx& ctx) {
    allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), n,
              Datatype::f64, ReduceOp::sum, {.algorithm = Algorithm::ma_flat});
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(test::check_reduced(recv[r].data(), n, Datatype::f64, 4,
                                    ReduceOp::sum));
}

TEST_F(FailureInjection, UnboundedStallClassifiedAsTimeoutOnStalledRank) {
  rt::ScopedSyncTimeout scoped(0.5);
  auto team = fresh_team(3, 1);
  team.set_fault_plan(rt::FaultPlan::parse("stall@barrier:rank=1"));
  try {
    team.run([](rt::RankCtx& ctx) { ctx.barrier(); });
    FAIL() << "expected an abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::timeout);
    EXPECT_EQ(e.fault_rank(), 1);  // frozen heartbeat blames the wedged rank
  }
}

}  // namespace
