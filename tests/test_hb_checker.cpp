// The happens-before checker must (a) flag seeded true races in both
// thread- and fork-backed teams, (b) stay silent on every properly
// synchronized protocol, including all production collectives, and (c)
// enforce the new barrier/seqlock hardening in the runtime.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using test::check_reduced;
using test::fill_buffer;

namespace {

rt::TeamConfig checked_cfg(int p, int m = 1) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 4u << 20;  // small scratch → cacheline shadow cells
  cfg.shared_heap_bytes = 4u << 20;
  cfg.hb_check = rt::HbMode::on;
  return cfg;
}

/// Rank 0 writes a scratch slice, then "publishes" through a relaxed flag
/// store with no release edge; rank 1 waits on the flag and reads the
/// slice.  Data-race-free executions exist timing-wise, but no
/// happens-before edge orders the accesses — the checker must flag it in
/// every interleaving.
void missing_release_body(rt::RankCtx& ctx) {
  std::byte* slice = ctx.scratch();
  std::byte local[256];
  if (ctx.rank() == 0) {
    std::memset(local, 7, sizeof(local));
    copy::t_copy(slice, local, sizeof(local));
    ctx.flag(0).store(1, std::memory_order_relaxed);  // BUG: no release
  } else if (ctx.rank() == 1) {
    rt::spin_wait_ge(ctx.flag(0), 1);  // acquires nothing: flag never released
    copy::t_copy(local, slice, sizeof(local));
  }
}

/// Rank 1 reads the slice with no synchronization at all while rank 0
/// writes it — the "slice read before the peer's flag publish" bug.
void read_before_publish_body(rt::RankCtx& ctx) {
  std::byte* slice = ctx.scratch();
  std::byte local[256];
  if (ctx.rank() == 0) {
    std::memset(local, 9, sizeof(local));
    copy::t_copy(slice, local, sizeof(local));
    ctx.step_publish(rt::RankCtx::step_value(1, 1));
  } else if (ctx.rank() == 1) {
    copy::t_copy(local, slice, sizeof(local));  // BUG: no step_wait first
  }
}

}  // namespace

TEST(HbChecker, MissingReleaseFlaggedThreadTeam) {
  rt::ThreadTeam team(checked_cfg(2));
  EXPECT_THROW(team.run(missing_release_body), Error);
  EXPECT_GT(team.hb_races(), 0u);
  const std::string report = team.hb_report();
  EXPECT_NE(report.find("t_copy"), std::string::npos) << report;
  EXPECT_NE(report.find("coll-scratch"), std::string::npos) << report;
}

TEST(HbChecker, MissingReleaseFlaggedProcessTeam) {
  rt::ProcessTeam team(checked_cfg(2));
  EXPECT_THROW(team.run(missing_release_body), Error);
  // The race counter lives in the shared mapping: visible from the parent
  // even though the racing ranks were fork()ed children.
  EXPECT_GT(team.hb_races(), 0u);
  EXPECT_FALSE(team.hb_report().empty());
}

TEST(HbChecker, ReadBeforePublishFlaggedThreadTeam) {
  rt::ThreadTeam team(checked_cfg(2));
  EXPECT_THROW(team.run(read_before_publish_body), Error);
  EXPECT_GT(team.hb_races(), 0u);
}

TEST(HbChecker, ReadBeforePublishFlaggedProcessTeam) {
  rt::ProcessTeam team(checked_cfg(2));
  EXPECT_THROW(team.run(read_before_publish_body), Error);
  EXPECT_GT(team.hb_races(), 0u);
}

TEST(HbChecker, ProperFlagProtocolRunsClean) {
  rt::ThreadTeam team(checked_cfg(2));
  team.run([](rt::RankCtx& ctx) {
    std::byte* slice = ctx.scratch();
    std::byte local[256];
    if (ctx.rank() == 0) {
      std::memset(local, 7, sizeof(local));
      copy::t_copy(slice, local, sizeof(local));
      ctx.step_publish(rt::RankCtx::step_value(1, 1));
    } else if (ctx.rank() == 1) {
      ctx.step_wait(0, rt::RankCtx::step_value(1, 1));
      copy::t_copy(local, slice, sizeof(local));
    }
    ctx.barrier();
    // Reuse in the opposite direction, ordered by the barrier.
    if (ctx.rank() == 1) copy::t_copy(slice, local, sizeof(local));
  });
  EXPECT_EQ(team.hb_races(), 0u);
}

TEST(HbChecker, BarrierEdgesCoverAllRanks) {
  // Every rank writes its own slice, barriers, then reads every *other*
  // rank's slice: only the transitive all-to-all barrier edge makes this
  // clean, so it exercises the winner-rejoin modelling of barrier_arrive.
  const int p = 6;
  rt::ThreadTeam team(checked_cfg(p, 2));
  team.run([p](rt::RankCtx& ctx) {
    std::byte* base = ctx.scratch();
    std::byte local[128];
    std::memset(local, ctx.rank() + 1, sizeof(local));
    copy::t_copy(base + ctx.rank() * 128, local, sizeof(local));
    ctx.barrier();
    for (int r = 0; r < p; ++r)
      if (r != ctx.rank()) copy::t_copy(local, base + r * 128, sizeof(local));
  });
  EXPECT_EQ(team.hb_races(), 0u);
}

TEST(HbChecker, AllCollectivesRunCleanThreadTeam) {
  rt::ThreadTeam team(checked_cfg(4, 2));
  const std::size_t count = 20000;
  std::vector<double> send(count), recv(count);
  for (auto alg : {coll::Algorithm::ma_flat, coll::Algorithm::ma_socket_aware,
                   coll::Algorithm::dpml_two_level}) {
    coll::CollOpts o;
    o.algorithm = alg;
    o.slice_max = 8u << 10;
    team.run([&](rt::RankCtx& ctx) {
      std::vector<double> s(count), r(count);
      fill_buffer(s.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
      coll::allreduce(ctx, s.data(), r.data(), count, Datatype::f64,
                      ReduceOp::sum, o);
      if (ctx.rank() == 0) std::memcpy(recv.data(), r.data(), count * 8);
    });
    EXPECT_EQ(team.hb_races(), 0u) << algorithm_name(alg) << ": "
                                   << team.hb_report();
    EXPECT_TRUE(check_reduced(recv.data(), count, Datatype::f64, 4,
                              ReduceOp::sum))
        << algorithm_name(alg);
  }
  // The remaining collective shapes, generic entry points.
  team.run([&](rt::RankCtx& ctx) {
    const std::size_t c = 5000;
    std::vector<float> s(c * 4), r(c * 4);
    fill_buffer(s.data(), c * 4, Datatype::f32, ctx.rank(), ReduceOp::max);
    coll::reduce_scatter(ctx, s.data(), r.data(), c, Datatype::f32,
                         ReduceOp::max);
    coll::reduce(ctx, s.data(), r.data(), c, Datatype::f32, ReduceOp::max, 0);
    coll::broadcast(ctx, s.data(), c, Datatype::f32, 0);
    coll::allgather(ctx, s.data(), r.data(), c / 4, Datatype::f32);
  });
  EXPECT_EQ(team.hb_races(), 0u) << team.hb_report();
}

TEST(HbChecker, AllCollectivesRunCleanProcessTeam) {
  rt::ProcessTeam team(checked_cfg(4, 2));
  const std::size_t count = 15000;
  auto* out = reinterpret_cast<double*>(team.shared_alloc(count * 8));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> s(count), r(count);
    fill_buffer(s.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
    coll::allreduce(ctx, s.data(), r.data(), count, Datatype::f64,
                    ReduceOp::sum);
    coll::broadcast(ctx, r.data(), count, Datatype::f64, 0);
    if (ctx.rank() == 0) std::memcpy(out, r.data(), count * 8);
    ctx.barrier();
  });
  EXPECT_EQ(team.hb_races(), 0u) << team.hb_report();
  EXPECT_TRUE(check_reduced(out, count, Datatype::f64, 4, ReduceOp::sum));
}

// The fold arm has no trailing barrier: back-to-back calls reuse each of
// its two stages, and only the next call's barrier orders a rank's rewrite
// after every peer's fold.  The checker must see that edge on both backends.
TEST(HbChecker, FoldStageReuseRunsCleanOnBothBackends) {
  for (int backend = 0; backend < 2; ++backend) {
    std::unique_ptr<rt::Team> team;
    if (backend == 0)
      team = std::make_unique<rt::ThreadTeam>(checked_cfg(4, 2));
    else
      team = std::make_unique<rt::ProcessTeam>(checked_cfg(4, 2));
    const std::size_t count = 500;  // 4000 B, within fold_max_bytes(4)
    auto* out =
        reinterpret_cast<double*>(team->shared_alloc(4 * count * 8));
    coll::CollOpts fold;
    fold.algorithm = coll::Algorithm::fold;
    team->run([&](rt::RankCtx& ctx) {
      std::vector<double> s(count), r(count);
      fill_buffer(s.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
      for (int c = 0; c < 5; ++c)
        coll::allreduce(ctx, s.data(), r.data(), count, Datatype::f64,
                        ReduceOp::sum, fold);
      std::memcpy(out + ctx.rank() * count, r.data(), count * 8);
    });
    EXPECT_EQ(team->hb_races(), 0u) << team->hb_report();
    for (int r = 0; r < 4; ++r)
      EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, 4,
                                ReduceOp::sum))
          << "backend " << backend << " rank " << r;
  }
}

// The direct arm loads and stores peers' buffers in place.  With every
// send and recv buffer in the shadowed shared heap, each cross-rank access
// must be ordered by one of its three barriers, out of place and in place,
// over back-to-back calls.
TEST(HbChecker, DirectArmPeerBufferAccessRunsClean) {
  const int p = 4;
  rt::ThreadTeam team(checked_cfg(p, 2));
  const std::size_t count = 3001;  // ragged blocks, above the fold cut
  auto* send = reinterpret_cast<double*>(team.shared_alloc(p * count * 8));
  auto* recv = reinterpret_cast<double*>(team.shared_alloc(p * count * 8));
  auto* both = reinterpret_cast<double*>(team.shared_alloc(p * count * 8));
  for (int r = 0; r < p; ++r)
    fill_buffer(send + r * count, count, Datatype::f64, r, ReduceOp::sum);
  team.run([&](rt::RankCtx& ctx) {
    const std::size_t off = static_cast<std::size_t>(ctx.rank()) * count;
    for (int c = 0; c < 3; ++c) {
      coll::allreduce(ctx, send + off, recv + off, count, Datatype::f64,
                      ReduceOp::sum);
      std::memcpy(both + off, send + off, count * 8);
      coll::allreduce(ctx, both + off, both + off, count, Datatype::f64,
                      ReduceOp::sum);
    }
  });
  EXPECT_EQ(team.hb_races(), 0u) << team.hb_report();
  EXPECT_EQ(coll::plan::query(team, coll::CollKind::allreduce, count * 8,
                              Datatype::f64, ReduceOp::sum)
                .algorithm,
            coll::Algorithm::direct);
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(check_reduced(recv + r * count, count, Datatype::f64, p,
                              ReduceOp::sum))
        << "rank " << r;
    EXPECT_TRUE(check_reduced(both + r * count, count, Datatype::f64, p,
                              ReduceOp::sum))
        << "in place, rank " << r;
  }
}

TEST(HbChecker, Pt2PtAndRendezvousRunClean) {
  for (int backend = 0; backend < 2; ++backend) {
    std::unique_ptr<rt::Team> team;
    if (backend == 0)
      team = std::make_unique<rt::ThreadTeam>(checked_cfg(2));
    else
      team = std::make_unique<rt::ProcessTeam>(checked_cfg(2));
    team->run([](rt::RankCtx& ctx) {
      std::vector<std::uint64_t> buf(8192, ctx.rank() + 1u);
      std::vector<std::uint64_t> in(8192);
      if (ctx.rank() == 0) {
        ctx.send(1, buf.data(), buf.size() * 8, 5);
        ctx.recv(1, in.data(), in.size() * 8, 6);
        ctx.send_zc(1, buf.data(), buf.size() * 8);
      } else {
        ctx.recv(0, in.data(), in.size() * 8, 5);
        ctx.send(0, buf.data(), buf.size() * 8, 6);
        ctx.recv_zc(0, in.data(), in.size() * 8);
        for (auto v : in) ASSERT_EQ(v, 1u);
      }
    });
    EXPECT_EQ(team->hb_races(), 0u) << team->hb_report();
  }
}

TEST(HbChecker, SharedHeapTrackedAcrossProcesses) {
  // Unsynchronized writes to the same shared-heap line from two rank
  // processes: invisible to TSan, caught by the shared-state checker.
  rt::ProcessTeam team(checked_cfg(2));
  std::byte* p = team.shared_alloc(256);
  EXPECT_THROW(team.run([p](rt::RankCtx& ctx) {
    std::byte local[64];
    std::memset(local, ctx.rank(), sizeof(local));
    copy::t_copy(p, local, sizeof(local));  // both ranks, same line, no sync
  }),
               Error);
  EXPECT_GT(team.hb_races(), 0u);
  EXPECT_NE(team.hb_report().find("shared-heap"), std::string::npos)
      << team.hb_report();
}

TEST(HbChecker, CheckerOffByDefaultCostsNothing) {
  rt::TeamConfig cfg = checked_cfg(2);
  cfg.hb_check = rt::HbMode::off;
  rt::ThreadTeam team(cfg);
  ASSERT_EQ(team.hb_checker(), nullptr);
  // The seeded race runs un-flagged when the checker is off.
  team.run(read_before_publish_body);
  EXPECT_EQ(team.hb_races(), 0u);
}

// ---- satellite: dissemination barrier hardening ---------------------------

TEST(HbChecker, DisseminationInitRejectsOverflow) {
  auto state = std::make_unique<rt::DisseminationBarrierState>();
  EXPECT_THROW(rt::dissemination_init(*state, rt::kMaxBarrierRanks + 1),
               Error);
  EXPECT_THROW(rt::dissemination_init(*state, 0), Error);
  EXPECT_NO_THROW(rt::dissemination_init(*state, rt::kMaxBarrierRanks));
}

// ---- satellite: registry seqlock ------------------------------------------

TEST(HbChecker, RemoteBufferSeqlockNeverTears) {
  // Rank 0 republishes its window as fast as it can with matched
  // (ptr, bytes) pairs; rank 1 snapshots concurrently.  A torn read shows
  // up as a mismatched pair.  (The pre-seqlock code returned half-updated
  // descriptors here.)
  rt::TeamConfig cfg;  // checker off: this test hammers an intentional
  cfg.nranks = 2;      // writer/reader overlap, only snapshots must hold
  cfg.hb_check = rt::HbMode::off;
  rt::ThreadTeam team(cfg);
  const int iters = 20000;
  team.run([&](rt::RankCtx& ctx) {
    std::byte* base = ctx.scratch();
    if (ctx.rank() == 0) {
      for (int i = 1; i <= iters; ++i)
        ctx.publish_buffer(0, base + i, static_cast<std::size_t>(i));
      ctx.flag(0).store(1, std::memory_order_release);
    } else {
      while (ctx.flag(0).load(std::memory_order_acquire) == 0) {
        const rt::RemoteBuf rb = ctx.remote_buffer(0, 0);
        if (rb.ptr == nullptr) continue;  // not yet published
        const auto off = static_cast<const std::byte*>(rb.ptr) - base;
        ASSERT_EQ(static_cast<std::size_t>(off), rb.bytes)
            << "torn seqlock snapshot";
      }
    }
  });
}
