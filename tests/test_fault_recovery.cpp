// Collective state recovery: after an injected rank death at every protocol
// position (pre-barrier, mid reduce-scatter slice loop, mid pipeline stage),
// Team::recover() must return the *same* team object to a usable state —
// barriers, progress flags, FIFO channels, rendezvous descriptors, and page
// locks re-initialized, the team epoch bumped — and the full collective
// matrix must then pass on both backends.  Process-backed teams shrink to
// the surviving ranks; thread-backed teams restore full membership.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/sync_timeout.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;

namespace {

enum class Backend { threads, procs };

std::unique_ptr<rt::Team> make_team(Backend b, int p, int m,
                                    rt::HbMode hb = rt::HbMode::env) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = 8u << 20;
  cfg.hb_check = hb;
  cfg.sync_timeout = 20.0;  // safety net only; detection must be faster
  if (b == Backend::procs) return std::make_unique<rt::ProcessTeam>(cfg);
  return std::make_unique<rt::ThreadTeam>(cfg);
}

double* alloc_f64(rt::Team& team, std::size_t n) {
  return reinterpret_cast<double*>(team.shared_alloc(n * sizeof(double)));
}

/// Inject `spec`, run `work` (must abort naming `victim`), then recover.
void kill_and_recover(rt::Team& team, const std::string& spec, int victim,
                      const std::function<void(rt::RankCtx&)>& work) {
  team.set_fault_plan(rt::FaultPlan::parse(spec));
  const std::uint64_t epoch0 = team.team_epoch();
  try {
    team.run(work);
    ADD_FAILURE() << spec << ": expected an abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead) << spec;
    EXPECT_EQ(e.fault_rank(), victim) << spec;
    EXPECT_EQ(e.fault_epoch(), epoch0) << spec;
  }
  const rt::FaultInfo info = team.recover();
  EXPECT_EQ(info.kind, FaultKind::peer_dead) << spec;
  EXPECT_EQ(info.rank, victim) << spec;
  EXPECT_EQ(team.team_epoch(), epoch0 + 1) << spec;
  team.set_fault_plan(rt::FaultPlan{});
}

/// Full collective matrix over the team's *current* membership, verified
/// against the sequential reference.  Buffers live in the shared heap so
/// the parent of a process team can fill and check them.
void run_matrix(rt::Team& team) {
  const int p = team.nranks();
  const std::size_t n = 2048;
  const auto d = Datatype::f64;
  const auto op = ReduceOp::sum;
  CollOpts opts;

  // Allreduce (socket-aware; falls back to flat when p % sockets != 0).
  std::vector<double*> sb(p), rb(p);
  for (int r = 0; r < p; ++r) {
    sb[r] = alloc_f64(team, n);
    rb[r] = alloc_f64(team, n);
    test::fill_buffer(sb[r], n, d, r, op);
  }
  team.run([&](rt::RankCtx& ctx) {
    socket_ma_allreduce(ctx, sb[ctx.rank()], rb[ctx.rank()], n, d, op, opts);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_TRUE(test::check_reduced(rb[r], n, d, p, op)) << "allreduce r" << r;

  // Reduce-scatter.
  std::vector<double*> ssb(p), srb(p);
  for (int r = 0; r < p; ++r) {
    ssb[r] = alloc_f64(team, n * static_cast<std::size_t>(p));
    srb[r] = alloc_f64(team, n);
    test::fill_buffer(ssb[r], n * static_cast<std::size_t>(p), d, r, op);
  }
  team.run([&](rt::RankCtx& ctx) {
    ma_reduce_scatter(ctx, ssb[ctx.rank()], srb[ctx.rank()], n, d, op, opts);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_TRUE(test::check_reduced(srb[r], n, d, p, op,
                                    static_cast<std::size_t>(r) * n))
        << "reduce_scatter r" << r;

  // Pipelined broadcast (root pattern must land everywhere).
  std::vector<double*> bb(p);
  for (int r = 0; r < p; ++r) {
    bb[r] = alloc_f64(team, n);
    std::memset(bb[r], 0, n * sizeof(double));
  }
  test::fill_buffer(bb[0], n, d, /*rank=*/42, op);
  team.run([&](rt::RankCtx& ctx) {
    pipelined_broadcast(ctx, bb[ctx.rank()], n, d, /*root=*/0, opts);
  });
  for (int r = 0; r < p; ++r)
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bb[r][i], static_cast<double>(test::gen_value(42, i, op)))
          << "broadcast r" << r << " i" << i;

  // Pipelined allgather.
  std::vector<double*> gs(p), gr(p);
  for (int r = 0; r < p; ++r) {
    gs[r] = alloc_f64(team, n);
    gr[r] = alloc_f64(team, n * static_cast<std::size_t>(p));
    test::fill_buffer(gs[r], n, d, r, op);
  }
  team.run([&](rt::RankCtx& ctx) {
    pipelined_allgather(ctx, gs[ctx.rank()], gr[ctx.rank()], n, d, opts);
  });
  for (int r = 0; r < p; ++r)
    for (int b = 0; b < p; ++b)
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(gr[r][static_cast<std::size_t>(b) * n + i],
                  static_cast<double>(test::gen_value(b, i, op)))
            << "allgather r" << r << " block " << b << " i" << i;
}

void expect_membership_after_recovery(rt::Team& team, Backend b, int victim) {
  if (b == Backend::procs) {
    // The dead rank is excluded; survivors stay dense 0..nranks-1 and
    // global_rank maps them back to their original ids.
    EXPECT_EQ(team.nranks(), 3);
    int seen_victim = 0;
    for (int r = 0; r < team.nranks(); ++r)
      if (team.global_rank(r) == victim) ++seen_victim;
    EXPECT_EQ(seen_victim, 0);
  } else {
    EXPECT_EQ(team.nranks(), 4);  // thread ranks always rejoin
  }
}

class FaultRecovery : public ::testing::TestWithParam<Backend> {
 protected:
  void TearDown() override {
    int status = 0;
    const pid_t z = waitpid(-1, &status, WNOHANG);
    EXPECT_TRUE(z == 0 || (z < 0 && errno == ECHILD))
        << "leaked child process " << z;
  }
};

TEST_P(FaultRecovery, DieAtBarrierEntry) {
  auto team = make_team(GetParam(), 4, 2);
  kill_and_recover(*team, "die@barrier:rank=2:iter=0", 2,
                   [](rt::RankCtx& ctx) {
                     ctx.barrier();
                     ctx.barrier();
                   });
  expect_membership_after_recovery(*team, GetParam(), 2);
  run_matrix(*team);
}

TEST_P(FaultRecovery, DieMidReduceScatterSliceLoop) {
  auto team = make_team(GetParam(), 4, 2);
  const std::size_t n = 2048;
  std::vector<double*> sb(4), rb(4);
  for (int r = 0; r < 4; ++r) {
    sb[r] = alloc_f64(*team, n * 4);
    rb[r] = alloc_f64(*team, n);
    test::fill_buffer(sb[r], n * 4, Datatype::f64, r, ReduceOp::sum);
  }
  // iter=3: the 4th slice step of the first round — mid ownership rotation,
  // with peers blocked on the victim's progress flag.
  kill_and_recover(*team, "die@slice:rank=1:iter=3", 1,
                   [&](rt::RankCtx& ctx) {
                     ma_reduce_scatter(ctx, sb[ctx.rank()], rb[ctx.rank()], n,
                                       Datatype::f64, ReduceOp::sum,
                                       CollOpts{});
                   });
  expect_membership_after_recovery(*team, GetParam(), 1);
  run_matrix(*team);
}

TEST_P(FaultRecovery, DieMidPipelineStage) {
  auto team = make_team(GetParam(), 4, 2);
  const std::size_t n = 4096;
  CollOpts opts;
  opts.slice_max = 4096;  // 32 KiB of doubles -> 8 pipeline stages
  std::vector<double*> bb(4);
  for (int r = 0; r < 4; ++r) {
    bb[r] = alloc_f64(*team, n);
    test::fill_buffer(bb[r], n, Datatype::f64, r, ReduceOp::sum);
  }
  kill_and_recover(*team, "die@pipeline:rank=1:iter=1", 1,
                   [&](rt::RankCtx& ctx) {
                     pipelined_broadcast(ctx, bb[ctx.rank()], n, Datatype::f64,
                                         /*root=*/0, opts);
                   });
  expect_membership_after_recovery(*team, GetParam(), 1);
  run_matrix(*team);
}

TEST_P(FaultRecovery, DieAtFoldBarrierThenFoldAgain) {
  auto team = make_team(GetParam(), 4, 2);
  const std::size_t n = 256;  // 2 KB: within fold_max_bytes at p = 4 and 3
  std::vector<double*> sb(4), rb(4);
  for (int r = 0; r < 4; ++r) {
    sb[r] = alloc_f64(*team, n);
    rb[r] = alloc_f64(*team, n);
    test::fill_buffer(sb[r], n, Datatype::f64, r, ReduceOp::sum);
  }
  CollOpts fold;
  fold.algorithm = Algorithm::fold;
  // iter=1: the second fold call's only barrier, with its stage staged.
  kill_and_recover(*team, "die@barrier:rank=2:iter=1", 2,
                   [&](rt::RankCtx& ctx) {
                     for (int c = 0; c < 2; ++c)
                       allreduce(ctx, sb[ctx.rank()], rb[ctx.rank()], n,
                                 Datatype::f64, ReduceOp::sum, fold);
                   });
  expect_membership_after_recovery(*team, GetParam(), 2);
  // recover() resets every rank's fold-stage parity to 0: back-to-back fold
  // calls alternate the stages in lockstep again and stay correct.
  auto* bad = reinterpret_cast<int*>(team->shared_alloc(4 * sizeof(int)));
  team->run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    for (int c = 0; c < 5; ++c) {
      std::fill(rb[r], rb[r] + n, -1.0);
      allreduce(ctx, sb[r], rb[r], n, Datatype::f64, ReduceOp::sum, fold);
      if (!test::check_reduced(rb[r], n, Datatype::f64, ctx.nranks(),
                               ReduceOp::sum))
        ++bad[r];
    }
  });
  for (int r = 0; r < team->nranks(); ++r)
    EXPECT_EQ(bad[r], 0) << "rank " << r;
}

// The direct arm reads peers' own buffers: on thread teams anywhere, on
// forked teams over shared windows (FaultRecoveryProcs below).
// Killing a rank at its second barrier (reductions written, gathers not yet
// started) must leave a team whose next direct calls are correct: recovery
// resets the barriers, and every call republishes its buffer windows.
TEST(FaultRecoveryThreads, DieAtDirectBarrierThenDirectAgain) {
  auto team = make_team(Backend::threads, 4, 2);
  const std::size_t n = 3001;  // 23.4 KB: above the fold cut, ragged blocks
  std::vector<double*> sb(4), rb(4);
  for (int r = 0; r < 4; ++r) {
    sb[r] = alloc_f64(*team, n);
    rb[r] = alloc_f64(*team, n);
    test::fill_buffer(sb[r], n, Datatype::f64, r, ReduceOp::sum);
  }
  CollOpts direct;
  direct.algorithm = Algorithm::direct;
  // iter=1: the first direct call's second barrier.
  kill_and_recover(*team, "die@barrier:rank=2:iter=1", 2,
                   [&](rt::RankCtx& ctx) {
                     allreduce(ctx, sb[ctx.rank()], rb[ctx.rank()], n,
                               Datatype::f64, ReduceOp::sum, direct);
                   });
  expect_membership_after_recovery(*team, Backend::threads, 2);
  auto* bad = reinterpret_cast<int*>(team->shared_alloc(4 * sizeof(int)));
  team->run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    for (int c = 0; c < 5; ++c) {
      std::fill(rb[r], rb[r] + n, -1.0);
      // Explicit and automatic calls both run the direct arm here.
      allreduce(ctx, sb[r], rb[r], n, Datatype::f64, ReduceOp::sum,
                c % 2 == 0 ? direct : CollOpts{});
      if (!test::check_reduced(rb[r], n, Datatype::f64, ctx.nranks(),
                               ReduceOp::sum))
        ++bad[r];
    }
  });
  for (int r = 0; r < team->nranks(); ++r)
    EXPECT_EQ(bad[r], 0) << "rank " << r;
  run_matrix(*team);
}

// The push schedule writes into its peers' receive buffers slice by slice.
// Killing a rank mid-push (two of its slices delivered) must leave a team
// whose next direct calls push again and are correct: the half-written
// blocks are rewritten whole, since every call reduces from the send
// buffers.
TEST(FaultRecoveryThreads, DieInDirectPushThenDirectAgain) {
  rt::TeamConfig cfg;
  cfg.nranks = 4;
  cfg.nsockets = 2;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = 8u << 20;
  cfg.sync_timeout = 20.0;
  cfg.cache.l2_per_core = 4u << 10;  // push cut at s = 2 KB
  rt::ThreadTeam team(cfg);
  const std::size_t n = 3001;  // 23.4 KB: past the push cut, ragged blocks
  ASSERT_TRUE(coll::detail::direct_pushes(n * sizeof(double), 4, cfg.cache));
  std::vector<double*> sb(4), rb(4);
  for (int r = 0; r < 4; ++r) {
    sb[r] = alloc_f64(team, n);
    rb[r] = alloc_f64(team, n);
    test::fill_buffer(sb[r], n, Datatype::f64, r, ReduceOp::sum);
  }
  CollOpts direct;
  direct.algorithm = Algorithm::direct;
  direct.slice_max = 1u << 10;  // six slices per block
  // iter=2: rank 2's third slice, after two slices reached every peer.
  kill_and_recover(team, "die@slice:rank=2:iter=2", 2,
                   [&](rt::RankCtx& ctx) {
                     allreduce(ctx, sb[ctx.rank()], rb[ctx.rank()], n,
                               Datatype::f64, ReduceOp::sum, direct);
                   });
  expect_membership_after_recovery(team, Backend::threads, 2);
  auto* bad = reinterpret_cast<int*>(team.shared_alloc(4 * sizeof(int)));
  team.run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    for (int c = 0; c < 5; ++c) {
      std::fill(rb[r], rb[r] + n, -1.0);
      // Explicit and automatic calls both push here.
      allreduce(ctx, sb[r], rb[r], n, Datatype::f64, ReduceOp::sum,
                c % 2 == 0 ? direct : CollOpts{});
      if (!test::check_reduced(rb[r], n, Datatype::f64, ctx.nranks(),
                               ReduceOp::sum))
        ++bad[r];
    }
  });
  for (int r = 0; r < team.nranks(); ++r)
    EXPECT_EQ(bad[r], 0) << "rank " << r;
  run_matrix(team);
}

// The forked team's direct reduce_scatter over team-heap windows.  Killing
// rank 2 at the first call's trailing barrier (its block reduced, peers
// possibly still reading its send buffer) must leave the shrunken team
// running direct again, correctly: run() freezes the windows anew and
// every call republishes its buffers.
TEST(FaultRecoveryProcs, DieInDirectReduceScatterThenDirectAgain) {
  auto team = make_team(Backend::procs, 4, 2);
  const std::size_t n = 12001;  // 3 ranks × 96 KB: above the threshold
  std::vector<double*> sb(4), rb(4);
  for (int r = 0; r < 4; ++r) {
    sb[r] = alloc_f64(*team, 4 * n);
    rb[r] = alloc_f64(*team, n);
    test::fill_buffer(sb[r], 4 * n, Datatype::f64, r, ReduceOp::sum);
  }
  CollOpts direct;
  direct.algorithm = Algorithm::direct;
  // iter=1: the first call's trailing barrier.
  kill_and_recover(*team, "die@barrier:rank=2:iter=1", 2,
                   [&](rt::RankCtx& ctx) {
                     reduce_scatter(ctx, sb[ctx.rank()], rb[ctx.rank()], n,
                                    Datatype::f64, ReduceOp::sum, direct);
                   });
  expect_membership_after_recovery(*team, Backend::procs, 2);
  auto* bad = reinterpret_cast<int*>(team->shared_alloc(4 * sizeof(int)));
  team->run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    for (int c = 0; c < 5; ++c) {
      std::fill(rb[r], rb[r] + n, -1.0);
      // Explicit and automatic calls both run the direct arm here.
      reduce_scatter(ctx, sb[r], rb[r], n, Datatype::f64, ReduceOp::sum,
                     c % 2 == 0 ? direct : CollOpts{});
      if (!test::check_reduced(rb[r], n, Datatype::f64, ctx.nranks(),
                               ReduceOp::sum, static_cast<std::size_t>(r) * n))
        ++bad[r];
    }
  });
  EXPECT_EQ(team->total_sync().flag_posts, 0u) << "a staged arm ran";
  for (int r = 0; r < team->nranks(); ++r)
    EXPECT_EQ(bad[r], 0) << "rank " << r;
  run_matrix(*team);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultRecovery,
                         ::testing::Values(Backend::threads, Backend::procs),
                         [](const auto& info) {
                           return info.param == Backend::threads ? "threads"
                                                                 : "procs";
                         });

// One leg under the happens-before checker: the recovery edges inserted by
// HbChecker::on_recover() must keep pre-recovery shadow state from raising
// false races against the re-run.
TEST(FaultRecoveryHb, RecoveryEdgesKeepCheckerQuiet) {
  auto team = make_team(Backend::threads, 4, 2, rt::HbMode::on);
  ASSERT_NE(team->hb_checker(), nullptr);
  const std::size_t n = 2048;
  std::vector<double*> sb(4), rb(4);
  for (int r = 0; r < 4; ++r) {
    sb[r] = alloc_f64(*team, n);
    rb[r] = alloc_f64(*team, n);
    test::fill_buffer(sb[r], n, Datatype::f64, r, ReduceOp::sum);
  }
  kill_and_recover(*team, "die@slice:rank=1:iter=3", 1,
                   [&](rt::RankCtx& ctx) {
                     ma_allreduce(ctx, sb[ctx.rank()], rb[ctx.rank()], n,
                                  Datatype::f64, ReduceOp::sum, CollOpts{});
                   });
  run_matrix(*team);
  EXPECT_EQ(team->hb_races(), 0u) << team->hb_report();
}

}  // namespace
