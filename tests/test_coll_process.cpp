// Integration tests: the YHCCL collectives on fork()-backed rank
// *processes* — the paper's real deployment model.  Buffers the parent
// validates live in the team's shared heap; rank-private buffers live in
// each child's own address space, so these tests also prove the
// collectives never dereference another rank's private memory (the bug
// class the shared-memory design must avoid).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using test::fill_buffer;
using test::check_reduced;

namespace {

rt::ProcessTeam& process_team(int p, int m) {
  static std::map<std::pair<int, int>, std::unique_ptr<rt::ProcessTeam>>
      cache;
  auto key = std::make_pair(p, m);
  auto it = cache.find(key);
  if (it == cache.end()) {
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = 16u << 20;
    cfg.shared_heap_bytes = 32u << 20;
    it = cache.emplace(key, std::make_unique<rt::ProcessTeam>(cfg)).first;
  }
  return *it->second;
}

TEST(ProcessColl, AllreduceWithPrivateBuffers) {
  for (auto [p, m] : {std::pair{2, 1}, {4, 2}, {6, 3}}) {
    auto& team = process_team(p, m);
    const std::size_t count = 40000;
    auto* out = reinterpret_cast<double*>(
        team.shared_alloc(static_cast<std::size_t>(p) * count * 8));
    team.run([&](rt::RankCtx& ctx) {
      std::vector<double> send(count), recv(count);
      fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                  ReduceOp::sum);
      coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                      ReduceOp::sum);
      std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
      ctx.barrier();
    });
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, p,
                                ReduceOp::sum))
          << "p=" << p << " rank " << r;
  }
}

TEST(ProcessColl, EveryAlgorithmArmAcrossProcesses) {
  auto& team = process_team(4, 2);
  const std::size_t count = 30000;
  auto* out =
      reinterpret_cast<float*>(team.shared_alloc(4u * count * 4));
  for (auto alg : {coll::Algorithm::ma_flat, coll::Algorithm::ma_socket_aware,
                   coll::Algorithm::dpml_two_level}) {
    coll::CollOpts o;
    o.algorithm = alg;
    o.slice_max = 8u << 10;
    team.run([&](rt::RankCtx& ctx) {
      std::vector<float> send(count), recv(count);
      fill_buffer(send.data(), count, Datatype::f32, ctx.rank(),
                  ReduceOp::sum);
      coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f32,
                      ReduceOp::sum, o);
      std::memcpy(out + ctx.rank() * count, recv.data(), count * 4);
      ctx.barrier();
    });
    for (int r = 0; r < 4; ++r)
      EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f32, 4,
                                ReduceOp::sum))
          << algorithm_name(alg) << " rank " << r;
  }
}

// Regression: 3 ranks over 2 sockets leaves rank 2 alone on its socket.
// The DPML stage-1 barrier used to be entered only by multi-rank sockets,
// so the singleton rank ran one barrier ahead and the team deadlocked
// (small messages pick dpml_two_level, so plain allreduce() hit it).
TEST(ProcessColl, SingletonSocketSmallMessageAllreduce) {
  auto& team = process_team(3, 2);
  const std::size_t count = 1024;
  auto* out = reinterpret_cast<double*>(team.shared_alloc(3u * count * 8));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count), recv(count);
    fill_buffer(send.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
    coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum);
    std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
    ctx.barrier();
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, 3,
                              ReduceOp::sum))
        << "rank " << r;
}

TEST(ProcessColl, ReduceScatterBroadcastAllgather) {
  auto& team = process_team(4, 2);
  const std::size_t count = 20000;  // per-rank block
  auto* rs_out = reinterpret_cast<double*>(
      team.shared_alloc(4u * count * 8));
  auto* bc_out = reinterpret_cast<double*>(
      team.shared_alloc(4u * count * 8));
  auto* ag_out = reinterpret_cast<double*>(
      team.shared_alloc(4u * 4u * count * 8));
  team.run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<double> send(count * 4), recv(count);
    fill_buffer(send.data(), count * 4, Datatype::f64, r, ReduceOp::sum);
    coll::reduce_scatter(ctx, send.data(), recv.data(), count, Datatype::f64,
                         ReduceOp::sum);
    std::memcpy(rs_out + r * count, recv.data(), count * 8);

    std::vector<double> bbuf(count, r == 2 ? 7.25 : -1.0);
    coll::broadcast(ctx, bbuf.data(), count, Datatype::f64, /*root=*/2);
    std::memcpy(bc_out + r * count, bbuf.data(), count * 8);

    std::vector<double> mine(count, 100.0 + r), gathered(count * 4);
    coll::allgather(ctx, mine.data(), gathered.data(), count, Datatype::f64);
    std::memcpy(ag_out + r * 4 * count, gathered.data(), 4 * count * 8);
    ctx.barrier();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(check_reduced(rs_out + r * count, count, Datatype::f64, 4,
                              ReduceOp::sum, count * r))
        << "rs rank " << r;
    for (std::size_t i = 0; i < count; i += 999)
      ASSERT_EQ(bc_out[r * count + i], 7.25) << "bcast rank " << r;
    for (int a = 0; a < 4; ++a)
      for (std::size_t i = 0; i < count; i += 1111)
        ASSERT_EQ(ag_out[(r * 4 + a) * count + i], 100.0 + a)
            << "ag rank " << r << " block " << a;
  }
}

/// Three back-to-back explicit fold allreduces (both fold stages, then the
/// first again) of random non-integer f32 inputs; returns every rank's
/// result bits of every call, in (call, rank, element) order.
std::vector<std::uint32_t> fold_bits(rt::Team& team, std::size_t count) {
  const int p = team.nranks();
  const auto pn = static_cast<std::size_t>(p);
  constexpr int kCalls = 3;
  auto* in = reinterpret_cast<float*>(team.shared_alloc(pn * count * 4));
  auto* out = reinterpret_cast<float*>(
      team.shared_alloc(kCalls * pn * count * 4));
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (std::size_t i = 0; i < pn * count; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    in[i] = static_cast<float>(static_cast<std::int64_t>(x % 2000001) -
                               1000000) /
            997.0f;
  }
  coll::CollOpts o;
  o.algorithm = coll::Algorithm::fold;
  team.run([&](rt::RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    std::vector<float> recv(count);
    for (int c = 0; c < kCalls; ++c) {
      coll::allreduce(ctx, in + r * count, recv.data(), count, Datatype::f32,
                      ReduceOp::sum, o);
      std::memcpy(out + (static_cast<std::size_t>(c) * pn + r) * count,
                  recv.data(), count * 4);
    }
  });
  // Scalar reference: fold the ranks' operands in rank order 0..p-1.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    float acc = in[i];
    for (std::size_t q = 1; q < pn; ++q) acc += in[q * count + i];
    for (std::size_t k = 0; k < kCalls * pn; ++k)
      mismatches += std::memcmp(&out[k * count + i], &acc, 4) != 0 ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u) << "p=" << p;
  std::vector<std::uint32_t> bits(kCalls * pn * count);
  std::memcpy(bits.data(), out, bits.size() * 4);
  return bits;
}

TEST(ProcessColl, FoldAllreduceIsBitwiseRankOrderedOnBothBackends) {
  for (auto [p, m] : {std::pair{4, 2}, {5, 2}}) {
    const std::size_t count = coll::fold_max_bytes(p) / 4 - 3;  // ragged
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = 1u << 20;
    cfg.shared_heap_bytes = 1u << 20;
    rt::ThreadTeam threads(cfg);
    rt::ProcessTeam procs(cfg);
    EXPECT_EQ(fold_bits(threads, count), fold_bits(procs, count))
        << "p=" << p << " m=" << m;
  }
}

// Forked ranks cannot load each other's buffers: the direct arm must be
// refused, never attempted, whether asked for explicitly or not, and the
// automatic allreduce above the fold cut keeps the §5.1 rule.
TEST(ProcessColl, DirectArmIsRefusedAndNeverServedOnForkedTeams) {
  auto& team = process_team(4, 2);
  ASSERT_FALSE(team.caps().shared_address_space());
  const std::size_t count = 20000;  // 160 KB: above the fold cut
  auto* out = reinterpret_cast<double*>(team.shared_alloc(4 * count * 8));
  auto* served = reinterpret_cast<std::uint64_t*>(team.shared_alloc(4 * 8));
  coll::CollOpts direct;
  direct.algorithm = coll::Algorithm::direct;
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count, 1.0), recv(count);
    coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum, direct);
  }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count, 1.0), recv(count);
    coll::direct_allreduce(ctx, send.data(), recv.data(), count,
                           Datatype::f64, ReduceOp::sum);
  }),
               Error);
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count), recv(count);
    fill_buffer(send.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
    coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum);
    served[ctx.rank()] = coll::plan::last_plan_word();
    std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(coll::plan::Plan::unpack(served[r]).algorithm,
              coll::Algorithm::dpml_two_level)
        << "rank " << r;
    EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, 4,
                              ReduceOp::sum))
        << "rank " << r;
  }
}

TEST(ProcessColl, TwoCopyRingWorksAcrossProcesses) {
  auto& team = process_team(3, 1);
  const std::size_t count = 25000;
  auto* out = reinterpret_cast<double*>(team.shared_alloc(3u * count * 8));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count), recv(count);
    fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                ReduceOp::sum);
    base::ring_allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                         ReduceOp::sum, base::Transport::two_copy);
    std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
    ctx.barrier();
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, 3,
                              ReduceOp::sum));
}

TEST(ProcessColl, CmaTransportIfKernelAllows) {
  if (!rt::cma_available())
    GTEST_SKIP() << "process_vm_readv not permitted in this environment";
  auto& team = process_team(2, 1);
  const std::size_t n = 1 << 16;
  auto* out = reinterpret_cast<std::uint8_t*>(team.shared_alloc(n));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<std::uint8_t> priv(n, static_cast<std::uint8_t>(0x77));
    if (ctx.rank() == 0) {
      ctx.send_zc(1, priv.data(), n);
    } else {
      std::vector<std::uint8_t> got(n, 0);
      ctx.recv_zc(0, got.data(), n, rt::RemoteMode::cma_pagewise);
      std::memcpy(out, got.data(), n);
    }
    ctx.barrier();
  });
  EXPECT_EQ(out[n - 1], 0x77);
}

}  // namespace
