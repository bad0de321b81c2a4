// Integration tests: the YHCCL collectives on fork()-backed rank
// *processes* — the paper's real deployment model.  Buffers the parent
// validates live in the team's shared heap; rank-private buffers live in
// each child's own address space, so these tests also prove the
// collectives never dereference another rank's private memory (the bug
// class the shared-memory design must avoid).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/shm_region.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "yhccl/trace/export.hpp"
#include "yhccl/trace/trace.hpp"
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

// Forked ranks cannot load each other's private buffers: the direct arm
// must be refused, never run, whether asked for explicitly or not, and the
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

// ---- shared windows ---------------------------------------------------------
// Memory the parent maps shared before run() forks — the team's own heap or
// a ShmRegion made before the team — sits at one address in every rank, so
// forked teams run the direct arm over it (docs/algorithms.md §3c).

constexpr std::pair<int, int> kWindowShapes[] = {{2, 1}, {3, 1}, {4, 2},
                                                 {3, 2}};

/// Per-rank element counts.  reduce_scatter blocks of 32771 elements put
/// even a 2-rank f32 input (256 KB + 24 B) above the §5.1 threshold, and
/// 65543-element allreduces (256 KB + 28 B in f32) likewise; both are
/// ragged against every slice.  17 elements under an explicit direct leave
/// trailing allreduce blocks empty.
constexpr std::size_t kRsCount = 32771;
constexpr std::size_t kArCount = 65543;
constexpr std::size_t kTinyCount = 17;

/// One rank's buffers inside a window, at offsets that depend only on the
/// rank count and the element size.
template <typename T>
struct WindowBufs {
  std::uint64_t* served;  ///< plan words of the automatic calls
  T* rs_send;
  T* rs_inplace;
  T* rs_out;
  T* ar_send;
  T* ar_inplace;
  T* ar_out;
  T* tiny_send;
  T* tiny_out;
  T* tiny_rs_send;
  T* tiny_rs_out;
};

/// Lays out every rank's WindowBufs from `base`; returns the bytes used.
template <typename T>
std::size_t carve(std::uintptr_t base, int p,
                  std::vector<WindowBufs<T>>* out = nullptr) {
  const auto pn = static_cast<std::size_t>(p);
  std::size_t off = 0;
  const auto take = [&](std::size_t bytes) {
    const std::uintptr_t at = base + off;
    off += (bytes + kCacheline - 1) / kCacheline * kCacheline;
    return at;
  };
  for (int r = 0; r < p; ++r) {
    WindowBufs<T> b;
    b.served = reinterpret_cast<std::uint64_t*>(take(2 * 8));
    b.rs_send = reinterpret_cast<T*>(take(pn * kRsCount * sizeof(T)));
    b.rs_inplace = reinterpret_cast<T*>(take(pn * kRsCount * sizeof(T)));
    b.rs_out = reinterpret_cast<T*>(take(kRsCount * sizeof(T)));
    b.ar_send = reinterpret_cast<T*>(take(kArCount * sizeof(T)));
    b.ar_inplace = reinterpret_cast<T*>(take(kArCount * sizeof(T)));
    b.ar_out = reinterpret_cast<T*>(take(kArCount * sizeof(T)));
    b.tiny_send = reinterpret_cast<T*>(take(kTinyCount * sizeof(T)));
    b.tiny_out = reinterpret_cast<T*>(take(kTinyCount * sizeof(T)));
    b.tiny_rs_send = reinterpret_cast<T*>(take(pn * kTinyCount * sizeof(T)));
    b.tiny_rs_out = reinterpret_cast<T*>(take(kTinyCount * sizeof(T)));
    if (out != nullptr) out->push_back(b);
  }
  return off;
}

/// Random operands: non-integer floats make sums order-sensitive; i32
/// stays small enough that a 4-rank sum cannot overflow.
template <typename T>
void fill_random(T* v, std::size_t n, std::uint64_t& x) {
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto k = static_cast<std::int64_t>(x % 2000001) - 1000000;
    v[i] = std::is_integral_v<T>
               ? static_cast<T>(k)
               : static_cast<T>(static_cast<double>(k) / 997.0);
  }
}

/// Counts the elements of `got` whose bits differ from the scalar fold of
/// `operand(q, i)` over ranks q in order 0..p-1.
template <typename T, typename Operand>
std::size_t rank_order_mismatches(const T* got, std::size_t n, int p,
                                  ReduceOp op, Operand operand) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    T acc = operand(0, i);
    for (int q = 1; q < p; ++q)
      acc = op == ReduceOp::sum ? static_cast<T>(acc + operand(q, i))
                                : std::max(acc, operand(q, i));
    bad += std::memcmp(&got[i], &acc, sizeof(T)) != 0 ? 1 : 0;
  }
  return bad;
}

/// One run of every window call on `team` over buffers at `window`:
/// reduce_scatter and allreduce as the prior serves them, out of place and
/// in place, then an explicit direct pair of 17 elements.  Checks every
/// result bitwise against the scalar rank-order fold, that the prior served
/// direct and that no staged arm ran (staged arms above the threshold post
/// flags, direct never does); returns every result byte.
template <typename T>
std::vector<std::byte> window_results(rt::Team& team, std::byte* window,
                                      Datatype d, ReduceOp op) {
  const int p = team.nranks();
  const auto pn = static_cast<std::size_t>(p);
  std::vector<WindowBufs<T>> bufs;
  carve<T>(reinterpret_cast<std::uintptr_t>(window), p, &bufs);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : bufs) {
    fill_random(b.rs_send, pn * kRsCount, x);
    std::memcpy(b.rs_inplace, b.rs_send, pn * kRsCount * sizeof(T));
    fill_random(b.ar_send, kArCount, x);
    std::memcpy(b.ar_inplace, b.ar_send, kArCount * sizeof(T));
    fill_random(b.tiny_send, kTinyCount, x);
    fill_random(b.tiny_rs_send, pn * kTinyCount, x);
  }
  coll::CollOpts direct;
  direct.algorithm = coll::Algorithm::direct;
  team.run([&](rt::RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    const WindowBufs<T>& b = bufs[r];
    coll::reduce_scatter(ctx, b.rs_send, b.rs_out, kRsCount, d, op);
    b.served[0] = coll::plan::last_plan_word();
    coll::reduce_scatter(ctx, b.rs_inplace, b.rs_inplace + r * kRsCount,
                         kRsCount, d, op);
    coll::allreduce(ctx, b.ar_send, b.ar_out, kArCount, d, op);
    b.served[1] = coll::plan::last_plan_word();
    coll::allreduce(ctx, b.ar_inplace, b.ar_inplace, kArCount, d, op);
    coll::allreduce(ctx, b.tiny_send, b.tiny_out, kTinyCount, d, op, direct);
    coll::reduce_scatter(ctx, b.tiny_rs_send, b.tiny_rs_out, kTinyCount, d,
                         op, direct);
  });
  EXPECT_EQ(team.total_sync().flag_posts, 0u) << "a staged arm ran";
  std::size_t bad = 0;
  std::vector<std::byte> bits;
  const auto keep = [&bits](const T* v, std::size_t n) {
    const auto* b = reinterpret_cast<const std::byte*>(v);
    bits.insert(bits.end(), b, b + n * sizeof(T));
  };
  for (std::size_t r = 0; r < pn; ++r) {
    for (int k = 0; k < 2; ++k)
      EXPECT_EQ(coll::plan::Plan::unpack(bufs[r].served[k]).algorithm,
                coll::Algorithm::direct)
          << "rank " << r << (k == 0 ? " reduce_scatter" : " allreduce");
    const auto rs_in = [&](int q, std::size_t i) {
      return bufs[static_cast<std::size_t>(q)].rs_send[r * kRsCount + i];
    };
    const auto ar_in = [&](int q, std::size_t i) {
      return bufs[static_cast<std::size_t>(q)].ar_send[i];
    };
    const auto tiny_in = [&](int q, std::size_t i) {
      return bufs[static_cast<std::size_t>(q)].tiny_send[i];
    };
    const auto tiny_rs_in = [&](int q, std::size_t i) {
      return bufs[static_cast<std::size_t>(q)].tiny_rs_send[r * kTinyCount +
                                                             i];
    };
    const WindowBufs<T>& b = bufs[r];
    const T* rs_inplace_out = b.rs_inplace + r * kRsCount;
    bad += rank_order_mismatches(b.rs_out, kRsCount, p, op, rs_in);
    bad += rank_order_mismatches(rs_inplace_out, kRsCount, p, op, rs_in);
    bad += rank_order_mismatches(b.ar_out, kArCount, p, op, ar_in);
    bad += rank_order_mismatches(b.ar_inplace, kArCount, p, op, ar_in);
    bad += rank_order_mismatches(b.tiny_out, kTinyCount, p, op, tiny_in);
    bad += rank_order_mismatches(b.tiny_rs_out, kTinyCount, p, op,
                                 tiny_rs_in);
    keep(b.rs_out, kRsCount);
    keep(rs_inplace_out, kRsCount);
    keep(b.ar_out, kArCount);
    keep(b.ar_inplace, kArCount);
    keep(b.tiny_out, kTinyCount);
    keep(b.tiny_rs_out, kTinyCount);
  }
  EXPECT_EQ(bad, 0u) << "elements off the rank-order fold";
  return bits;
}

rt::TeamConfig window_cfg(int p, int m, std::size_t heap_bytes) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = heap_bytes;
  return cfg;
}

// reduce_scatter and allreduce of 256 KB and up over window buffers give
// the scalar rank-order bits on both backends, in the team's heap and in a
// region mapped before the teams, for every shape, dtype and op.
TEST(ProcessWindows, DirectIsBitwiseRankOrderedOnBothBackends) {
  for (const auto& [p, m] : kWindowShapes) {
    const std::size_t bytes = carve<double>(0, p);
    rt::ShmRegion region = rt::ShmRegion::create_anonymous(bytes);
    const rt::TeamConfig cfg = window_cfg(p, m, bytes + (1u << 20));
    rt::ThreadTeam threads(cfg);
    rt::ProcessTeam procs(cfg);
    std::byte* heap[2] = {threads.shared_alloc(bytes),
                          procs.shared_alloc(bytes)};
    for (const bool in_region : {false, true}) {
      const auto both = [&](auto zero, Datatype d, ReduceOp op) {
        using T = decltype(zero);
        const std::string where =
            "p=" + std::to_string(p) + " m=" + std::to_string(m) + " " +
            std::string(dtype_name(d)) + " " + std::string(op_name(op)) +
            (in_region ? " region" : " team heap");
        SCOPED_TRACE(where);
        const auto t = window_results<T>(
            threads, in_region ? region.data() : heap[0], d, op);
        const auto f = window_results<T>(
            procs, in_region ? region.data() : heap[1], d, op);
        EXPECT_TRUE(t == f) << "thread and process bits differ";
      };
      for (const ReduceOp op : {ReduceOp::sum, ReduceOp::max}) {
        both(float{}, Datatype::f32, op);
        both(double{}, Datatype::f64, op);
        both(std::int32_t{}, Datatype::i32, op);
      }
    }
  }
}

// One rank's send buffer is a private std::vector, so every rank's verdict
// is negative.  Automatic calls fall back to the staged arm on every rank,
// with correct results and the same barrier count everywhere, and trace
// one coll record per call; explicit direct calls throw on every rank, and
// the team stays usable.
TEST(ProcessWindows, MixedWindowFallsBackOrThrowsOnEveryRank) {
  for (const auto& [p, m] : kWindowShapes) {
    auto& team = process_team(p, m);
    const auto pn = static_cast<std::size_t>(p);
    const std::size_t n = 20000;   // 160 KB blocks: above the threshold
    const std::size_t an = 40000;  // 320 KB allreduces
    auto* send = reinterpret_cast<double*>(team.shared_alloc(pn * pn * n * 8));
    auto* out = reinterpret_cast<double*>(team.shared_alloc(pn * n * 8));
    auto* asend = reinterpret_cast<double*>(team.shared_alloc(pn * an * 8));
    auto* aout = reinterpret_cast<double*>(team.shared_alloc(pn * an * 8));
    auto* served = reinterpret_cast<std::uint64_t*>(
        team.shared_alloc(2 * pn * 8));
    auto* threw = reinterpret_cast<int*>(team.shared_alloc(pn * sizeof(int)));
    for (int r = 0; r < p; ++r) {
      fill_buffer(send + r * pn * n, pn * n, Datatype::f64, r, ReduceOp::sum);
      fill_buffer(asend + r * an, an, Datatype::f64, r, ReduceOp::sum);
    }
    const auto body = [&](rt::RankCtx& ctx, const coll::CollOpts& o) {
      const int r = ctx.rank();
      std::vector<double> priv(send + r * pn * n, send + (r + 1) * pn * n);
      std::vector<double> apriv(asend + r * an, asend + (r + 1) * an);
      const bool last = r == ctx.nranks() - 1;
      coll::reduce_scatter(ctx, last ? priv.data() : send + r * pn * n,
                           out + r * n, n, Datatype::f64, ReduceOp::sum, o);
      served[2 * r] = coll::plan::last_plan_word();
      coll::allreduce(ctx, last ? apriv.data() : asend + r * an,
                      aout + r * an, an, Datatype::f64, ReduceOp::sum, o);
      served[2 * r + 1] = coll::plan::last_plan_word();
    };
    team.run([&](rt::RankCtx& ctx) { body(ctx, {}); });
    const std::string shape = "p=" + std::to_string(p) + " m=" +
                              std::to_string(m);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(team.last_sync(r).barriers, team.last_sync(0).barriers)
          << shape << " rank " << r;
      for (int k = 0; k < 2; ++k)
        EXPECT_EQ(coll::plan::Plan::unpack(served[2 * r + k]).algorithm,
                  coll::Algorithm::direct)
            << shape << " rank " << r;
      EXPECT_TRUE(check_reduced(out + r * n, n, Datatype::f64, p,
                                ReduceOp::sum, r * n))
          << shape << " reduce_scatter rank " << r;
      EXPECT_TRUE(check_reduced(aout + r * an, an, Datatype::f64, p,
                                ReduceOp::sum))
          << shape << " allreduce rank " << r;
    }
    EXPECT_GT(team.total_sync().flag_posts, 0u) << shape << ": staged arm";

    coll::CollOpts direct;
    direct.algorithm = coll::Algorithm::direct;
    team.run([&](rt::RankCtx& ctx) {
      threw[ctx.rank()] = 0;
      try {
        body(ctx, direct);
      } catch (const Error&) {
        ++threw[ctx.rank()];
      }
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(threw[r], 1) << shape << " rank " << r;
    team.run([&](rt::RankCtx& ctx) { body(ctx, {}); });
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(check_reduced(out + r * n, n, Datatype::f64, p,
                                ReduceOp::sum, r * n))
          << shape << " rank " << r << " after the refused call";

    // A fallback call is one coll record, labelled with the staged arm
    // that finished it, not a direct record followed by a staged one.
    rt::TeamConfig tcfg;
    tcfg.nranks = p;
    tcfg.nsockets = m;
    tcfg.scratch_bytes = 16u << 20;
    tcfg.shared_heap_bytes = 1u << 20;
    tcfg.trace = trace::Mode::spans;
    rt::ProcessTeam traced(tcfg);
    traced.run([&](rt::RankCtx& ctx) { body(ctx, {}); });
    ASSERT_NE(traced.trace_buffer(), nullptr);
    const trace::Harvest h(*traced.trace_buffer());
    const coll::CollOpts defaults;
    const std::vector<std::uint8_t> staged = {
        coll::detail::trace_alg_id(coll::plan::staged_reduction_algorithm(
            coll::CollKind::reduce_scatter, pn * n * 8, defaults,
            traced.topo())),
        coll::detail::trace_alg_id(coll::plan::staged_reduction_algorithm(
            coll::CollKind::allreduce, an * 8, defaults, traced.topo()))};
    for (int r = 0; r < p; ++r) {
      std::vector<std::uint8_t> colls;
      for (const trace::Rec& rec : h.ring(r))
        if ((rec.flags & trace::kFlagMarker) == 0 &&
            rec.phase == static_cast<std::uint8_t>(trace::Phase::coll))
          colls.push_back(rec.variant);
      EXPECT_EQ(colls, staged) << shape << " rank " << r;
    }
  }
}

// A region a rank maps inside its body exists only in that process — and
// the children likely map theirs at one same address — so it is never a
// window: the call falls back and stays correct.
TEST(ProcessWindows, RegionCreatedInsideARankIsNeverAWindow) {
  for (const auto& [p, m] : kWindowShapes) {
    auto& team = process_team(p, m);
    const auto pn = static_cast<std::size_t>(p);
    const std::size_t n = 20000;
    auto* out = reinterpret_cast<double*>(team.shared_alloc(pn * n * 8));
    auto* covered = reinterpret_cast<int*>(team.shared_alloc(pn * 4));
    auto* served = reinterpret_cast<std::uint64_t*>(team.shared_alloc(pn * 8));
    team.run([&](rt::RankCtx& ctx) {
      const int r = ctx.rank();
      rt::ShmRegion mine = rt::ShmRegion::create_anonymous(pn * n * 8);
      auto* s = reinterpret_cast<double*>(mine.data());
      fill_buffer(s, pn * n, Datatype::f64, r, ReduceOp::sum);
      covered[r] = ctx.team().windows().covers(s, pn * n * 8) ? 1 : 0;
      coll::reduce_scatter(ctx, s, out + r * n, n, Datatype::f64,
                           ReduceOp::sum);
      served[r] = coll::plan::last_plan_word();
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(covered[r], 0) << "p=" << p << " rank " << r;
      EXPECT_EQ(coll::plan::Plan::unpack(served[r]).algorithm,
                coll::Algorithm::direct);
      EXPECT_TRUE(check_reduced(out + r * n, n, Datatype::f64, p,
                                ReduceOp::sum, r * n))
          << "p=" << p << " m=" << m << " rank " << r;
    }
  }
}

// The happens-before checker shadows the team heap: direct reduce_scatter
// and allreduce over heap windows on a forked team must stay race-free.
TEST(ProcessWindows, DirectOverTeamHeapWindowsIsHbClean) {
  rt::TeamConfig cfg = window_cfg(4, 2, 8u << 20);
  cfg.hb_check = rt::HbMode::on;
  rt::ProcessTeam team(cfg);
  const std::size_t n = 20000, an = 40000;
  auto* send = reinterpret_cast<double*>(team.shared_alloc(16 * n * 8));
  auto* out = reinterpret_cast<double*>(team.shared_alloc(4 * n * 8));
  auto* abuf = reinterpret_cast<double*>(team.shared_alloc(4 * an * 8));
  for (int r = 0; r < 4; ++r) {
    fill_buffer(send + r * 4 * n, 4 * n, Datatype::f64, r, ReduceOp::sum);
    fill_buffer(abuf + r * an, an, Datatype::f64, r, ReduceOp::sum);
  }
  team.run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    for (int c = 0; c < 2; ++c)
      coll::reduce_scatter(ctx, send + r * 4 * n, out + r * n, n,
                           Datatype::f64, ReduceOp::sum);
    coll::allreduce(ctx, abuf + r * an, abuf + r * an, an, Datatype::f64,
                    ReduceOp::sum);  // in place
  });
  EXPECT_EQ(team.hb_races(), 0u) << team.hb_report();
  EXPECT_EQ(team.total_sync().flag_posts, 0u) << "a staged arm ran";
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(check_reduced(out + r * n, n, Datatype::f64, 4,
                              ReduceOp::sum, r * n));
    EXPECT_TRUE(check_reduced(abuf + r * an, an, Datatype::f64, 4,
                              ReduceOp::sum));
  }
}

}  // namespace
