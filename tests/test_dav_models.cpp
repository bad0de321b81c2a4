// Validates the analytical DAV models (Tables 1-3) against the *measured*
// traffic of the instrumented implementations — the strongest evidence the
// algorithms move exactly the bytes the paper claims.
//
// Geometry is chosen divisible (block a multiple of the slice, p | s) so
// the impl:: formulas are byte-exact; the paper:: formulas must then agree
// within their constant bookkeeping terms.
#include <gtest/gtest.h>

#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/arm_table.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using namespace yhccl::base;
namespace md = yhccl::model;
using test::cached_team;
using test::check_reduced;
using test::fill_buffer;

namespace {

constexpr std::size_t kSliceMax = 16u << 10;

CollOpts exact_opts(Algorithm arm) {
  CollOpts o;
  o.algorithm = arm;
  o.slice_max = kSliceMax;
  return o;
}

/// Run `fn` SPMD and return the measured per-node DAV total.
template <typename Fn>
std::uint64_t measure(rt::ThreadTeam& team, const Fn& fn) {
  team.run(fn);
  return team.total_dav().total();
}

struct Fixture {
  int p, m;
  std::size_t count;  // per-rank block elements (f64) for scatter shapes
  std::vector<std::vector<double>> send, recv;
  std::size_t B() const { return count * 8; }
  std::size_t total() const { return B() * p; }

  Fixture(int p_, int m_, std::size_t count_) : p(p_), m(m_), count(count_) {
    send.resize(p);
    recv.resize(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count * p);
      recv[r].resize(count * p);
      fill_buffer(send[r].data(), count * p, Datatype::f64, r, ReduceOp::sum);
    }
  }
};

TEST(DavModel, MaReduceScatterIsExactlyS3pMinus1) {
  for (auto [p, m] : {std::pair{2, 1}, {4, 1}, {8, 1}}) {
    Fixture f(p, m, 8192);  // B = 64 KiB = 4 slices of 16 KiB
    auto& team = cached_team(p, m);
    const auto o = exact_opts(Algorithm::ma_flat);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      reduce_scatter(ctx, f.send[ctx.rank()].data(),
                     f.recv[ctx.rank()].data(), f.count, Datatype::f64,
                     ReduceOp::sum, o);
    });
    EXPECT_EQ(dav, md::impl::ma_reduce_scatter(f.total(), p)) << "p=" << p;
  }
}

TEST(DavModel, SocketMaReduceScatterIsExactlyS3pPlus1) {
  // The fused socket-combination stage costs (m+1)(s/p) instead of the
  // pairwise chain's 3(m-1)(s/p): the total is s(3p+1) independent of m,
  // at or below the paper's s(3p+2m-3) for every m >= 2.
  for (auto [p, m] : {std::pair{4, 2}, {8, 2}, {8, 4}}) {
    Fixture f(p, m, 8192);
    auto& team = cached_team(p, m);
    const auto o = exact_opts(Algorithm::ma_socket_aware);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      reduce_scatter(ctx, f.send[ctx.rank()].data(),
                     f.recv[ctx.rank()].data(), f.count, Datatype::f64,
                     ReduceOp::sum, o);
    });
    EXPECT_EQ(dav, md::impl::socket_ma_reduce_scatter(f.total(), p, m))
        << "p=" << p << " m=" << m;
    EXPECT_LE(dav, md::paper::socket_ma_reduce_scatter(f.total(), p, m))
        << "p=" << p << " m=" << m;
  }
}

TEST(DavModel, MaAllreduceIsExactlyS5pMinus1) {
  for (int p : {2, 4, 8}) {
    const std::size_t count = 8192 * static_cast<std::size_t>(p);
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
      fill_buffer(send[r].data(), count, Datatype::f64, r, ReduceOp::sum);
    }
    auto& team = cached_team(p, 1);
    const auto o = exact_opts(Algorithm::ma_flat);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), count,
                Datatype::f64, ReduceOp::sum, o);
    });
    EXPECT_EQ(dav, md::impl::ma_allreduce(count * 8, p)) << "p=" << p;
  }
}

TEST(DavModel, SocketMaAllreduceMatchesTable2) {
  for (auto [p, m] : {std::pair{4, 2}, {8, 2}, {8, 4}}) {
    const std::size_t count = 8192 * static_cast<std::size_t>(p);
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
      fill_buffer(send[r].data(), count, Datatype::f64, r, ReduceOp::sum);
    }
    auto& team = cached_team(p, m);
    const auto o = exact_opts(Algorithm::ma_socket_aware);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), count,
                Datatype::f64, ReduceOp::sum, o);
    });
    EXPECT_EQ(dav, md::impl::socket_ma_allreduce(count * 8, p, m));
    // Paper's Table 2 assumes a pairwise socket-combination chain
    // (s(5p+2m-3)); the fused kernel lands at s(5p+1), <= for m >= 2.
    EXPECT_LE(dav, md::paper::socket_ma_allreduce(count * 8, p, m));
  }
}

TEST(DavModel, MaReduceMatchesTable3) {
  for (int p : {2, 4, 8}) {
    const std::size_t count = 8192 * static_cast<std::size_t>(p);
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
      fill_buffer(send[r].data(), count, Datatype::f64, r, ReduceOp::sum);
    }
    auto& team = cached_team(p, 1);
    const auto o = exact_opts(Algorithm::ma_flat);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      reduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), count,
             Datatype::f64, ReduceOp::sum, /*root=*/0, o);
    });
    EXPECT_EQ(dav, md::impl::ma_reduce(count * 8, p));
    EXPECT_EQ(dav, md::paper::ma_reduce(count * 8, p));
  }
}

TEST(DavModel, DpmlAllreduceMatchesFusedModelAndBeatsPaperTable) {
  for (int p : {2, 4, 8}) {
    const std::size_t count = 8192 * static_cast<std::size_t>(p);
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
      fill_buffer(send[r].data(), count, Datatype::f64, r, ReduceOp::sum);
    }
    auto& team = cached_team(p, 1);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      dpml_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                     count, Datatype::f64, ReduceOp::sum);
    });
    const std::size_t s = count * 8;
    EXPECT_EQ(dav, md::impl::dpml_allreduce(s, p));
    // Paper's table says s(7p-1) (pairwise staged reduction + extra copy);
    // direct delivery plus the fused p-ary stage lands at s(5p+1).
    EXPECT_LE(dav, md::paper::dpml_allreduce(s, p));
  }
}

TEST(DavModel, FoldAllreduceIsExactlyPTimesPPlus3S) {
  // Copy-in 2s plus a (p+1)s fused fold on every rank: p(p+3)s per node,
  // one barrier and no flags.  More bytes than DPML's s(5p+1) for p > 2,
  // which is why the arm stops at fold_max_bytes(p).
  for (int p : {2, 4, 8}) {
    const std::size_t count = fold_max_bytes(p) / 8;
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
      fill_buffer(send[r].data(), count, Datatype::f64, r, ReduceOp::sum);
    }
    auto& team = cached_team(p, 1);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), count,
                Datatype::f64, ReduceOp::sum, {.algorithm = Algorithm::fold});
    });
    const std::size_t s = count * 8;
    const auto pp = static_cast<std::uint64_t>(p);
    EXPECT_EQ(dav, pp * (pp + 3) * s) << "p=" << p;
    md::impl::OpGeometry g;
    g.p = p;
    const auto ops = md::impl::fold_allreduce_ops(s, g);
    EXPECT_EQ(ops.dav(), pp * (pp + 3) * s) << "p=" << p;
    EXPECT_EQ(ops.barriers, pp) << "p=" << p;
    EXPECT_EQ(ops.flag_posts + ops.flag_waits, 0u) << "p=" << p;
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(test::check_reduced(recv[r].data(), count, Datatype::f64, p,
                                      ReduceOp::sum))
          << "p=" << p << " rank " << r;
  }
}

TEST(DavModel, DirectReduceScatterIsExactlyPPlus1S) {
  // Each rank reduces its block of all p send buffers straight into its
  // recv: loads p·s, stores s over the input s = p·B, against socket-MA's
  // s(3p+1); two barriers, no flags, one kernel call per slice per rank.
  for (int p : {2, 3, 4, 8}) {
    const std::size_t count = 10007;  // ragged against 16 KB slices
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count * static_cast<std::size_t>(p));
      recv[r].resize(count);
      fill_buffer(send[r].data(), send[r].size(), Datatype::f64, r,
                  ReduceOp::sum);
    }
    CollOpts o;
    o.algorithm = Algorithm::direct;
    o.slice_max = 16u << 10;
    auto& team = cached_team(p, 1);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      reduce_scatter(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                     count, Datatype::f64, ReduceOp::sum, o);
    });
    const auto pp = static_cast<std::uint64_t>(p);
    const std::size_t B = count * 8, s = B * static_cast<std::size_t>(p);
    EXPECT_EQ(dav, (pp + 1) * s) << "p=" << p;
    md::impl::OpGeometry g;
    g.p = p;
    g.slice_max = o.slice_max;
    const auto ops = md::impl::direct_reduce_scatter_ops(s, g);
    EXPECT_EQ(ops.loads, pp * s) << "p=" << p;
    EXPECT_EQ(ops.stores, s) << "p=" << p;
    EXPECT_EQ(ops.barriers, 2 * pp) << "p=" << p;
    EXPECT_EQ(ops.kernel_calls, pp * ceil_div(B, o.slice_max)) << "p=" << p;
    EXPECT_EQ(ops.flag_posts + ops.flag_waits, 0u) << "p=" << p;
    EXPECT_LT(ops.dav(), md::impl::socket_ma_reduce_scatter(s, p, 2)) << "p=" << p;
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(check_reduced(recv[r].data(), count, Datatype::f64, p,
                                ReduceOp::sum, r * count))
          << "p=" << p << " rank " << r;
  }
}

TEST(DavModel, RingMatchesTable1And2ExactlyWithSingleCopy) {
  for (int p : {2, 4, 8}) {
    Fixture f(p, 1, 8192);
    auto& team = cached_team(p, 1);
    const auto rs = measure(team, [&](rt::RankCtx& ctx) {
      ring_reduce_scatter(ctx, f.send[ctx.rank()].data(),
                          f.recv[ctx.rank()].data(), f.count, Datatype::f64,
                          ReduceOp::sum, Transport::single_copy);
    });
    EXPECT_EQ(rs, md::paper::ring_reduce_scatter(f.total(), p)) << p;

    const std::size_t count = 8192 * static_cast<std::size_t>(p);
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
    }
    const auto ar = measure(team, [&](rt::RankCtx& ctx) {
      ring_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                     count, Datatype::f64, ReduceOp::sum,
                     Transport::single_copy);
    });
    EXPECT_EQ(ar, md::paper::ring_allreduce(count * 8, p)) << p;
  }
}

TEST(DavModel, TwoCopyRingPaysTheEagerPenalty) {
  const int p = 4;
  Fixture f(p, 1, 8192);
  auto& team = cached_team(p, 1);
  const auto rs = measure(team, [&](rt::RankCtx& ctx) {
    ring_reduce_scatter(ctx, f.send[ctx.rank()].data(),
                        f.recv[ctx.rank()].data(), f.count, Datatype::f64,
                        ReduceOp::sum, Transport::two_copy);
  });
  EXPECT_EQ(rs, md::impl::ring_reduce_scatter_two_copy(f.total(), p));
}

TEST(DavModel, XpmemAllreduceMatchesHashmisModel) {
  for (int p : {2, 4, 8}) {
    const std::size_t count = 8192 * static_cast<std::size_t>(p);
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].resize(count);
      recv[r].resize(count);
    }
    auto& team = cached_team(p, 1);
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      xpmem_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                      count, Datatype::f64, ReduceOp::sum);
    });
    EXPECT_EQ(dav, md::impl::xpmem_allreduce(count * 8, p)) << p;
    // Hashmi's model (5s(p-1)) assumed a pairwise reduction loop; the
    // fused p-ary direct reduction moves s(3p-1).
    EXPECT_LE(dav, md::paper::xpmem_allreduce(count * 8, p)) << p;
  }
}

TEST(DavModel, PipelinedBroadcastAndAllgather) {
  const int p = 4;
  const std::size_t count = 65536;
  auto& team = cached_team(p, 1);
  std::vector<std::vector<double>> buf(p), recv(p);
  for (int r = 0; r < p; ++r) {
    buf[r].resize(count);
    recv[r].resize(count * p);
  }
  const auto o = exact_opts(Algorithm::pipelined);
  const auto bc = measure(team, [&](rt::RankCtx& ctx) {
    broadcast(ctx, buf[ctx.rank()].data(), count, Datatype::f64, 0, o);
  });
  EXPECT_EQ(bc, md::impl::pipelined_broadcast(count * 8, p));
  const auto ag = measure(team, [&](rt::RankCtx& ctx) {
    allgather(ctx, buf[ctx.rank()].data(), recv[ctx.rank()].data(), count,
              Datatype::f64, o);
  });
  EXPECT_EQ(ag, md::impl::pipelined_allgather(count * 8, p));
}

TEST(DavModel, YhcclBeatsEveryTable1CompetitorFromP4) {
  const std::size_t s = 64u << 20;
  for (int p : {4, 8, 16, 32, 64}) {
    const int m = 2;
    const auto mine = md::paper::socket_ma_reduce_scatter(s, p, m);
    EXPECT_LT(mine, md::paper::ring_reduce_scatter(s, p)) << p;
    EXPECT_LT(mine, md::paper::dpml_reduce_scatter(s, p)) << p;
    EXPECT_LT(mine, md::paper::rabenseifner_reduce_scatter(s, p)) << p;
    // The ~40% saving over DPML the paper quotes (§2.2, §3.3).
    const double saving =
        1.0 - static_cast<double>(mine) /
                  static_cast<double>(md::paper::dpml_reduce_scatter(s, p));
    EXPECT_GT(saving, 0.3) << p;
  }
}

TEST(DavModel, NtSwitchPointReproducesSection54Numbers) {
  // The paper's worked §5.4 numbers plug the flat shm term p*Imax into the
  // numerator: NodeA (C=294912 KB, p=64, Imax=256 KB) -> 2176 KB, NodeB
  // (C=116736 KB, p=48, Imax=128 KB) -> 1152 KB.
  const auto node_a = copy::CacheConfig::node_a();
  EXPECT_EQ(md::nt_switch_point(node_a.available(64), 64,
                                64 * (256u << 10)),
            2176u << 10);
  const auto node_b = copy::CacheConfig::node_b();
  EXPECT_EQ(md::nt_switch_point(node_b.available(48), 48,
                                48 * (128u << 10)),
            1152u << 10);
  // The socket-aware working-set formula (W = 2sp + m*p*Imax) gives a
  // slightly earlier switch.
  EXPECT_LT(md::nt_switch_point_allreduce(node_a.available(64), 64, 2,
                                          256u << 10),
            2176u << 10);
}

TEST(DavModel, RgSeriesIsMonotoneInBranchAndBounded) {
  const std::size_t s = 1u << 20;
  for (int p : {8, 64}) {
    const auto k2 = md::paper::rg_allreduce(s, p, 2);
    const auto k4 = md::paper::rg_allreduce(s, p, 4);
    EXPECT_GT(k2, 2 * static_cast<std::uint64_t>(s));
    EXPECT_GT(k4, k2);  // wider trees copy more per level
    // RG moves more data than MA for any p >= 4 (paper's comparison).
    EXPECT_GT(k2, md::paper::ma_allreduce(s, p) / 2);
  }
}

TEST(DavModel, TimeFromDav) {
  EXPECT_DOUBLE_EQ(md::time_from_dav(1'000'000'000, 2e9), 0.5);
  EXPECT_DOUBLE_EQ(md::time_from_dav(123, 0), 0.0);
}

// ---- operation-count parity matrix ------------------------------------------
// Every arm-table row × team shape × (divisible and ragged) message size,
// on both the thread and the fork() backend: the measured deterministic
// counters — DAV loads/stores, kernel dispatches, barrier arrivals and
// progress-flag posts/waits — must equal the row's ops() model EXACTLY.
// This is the seed matrix for the bench comparator's counter gate
// (docs/benchmarking.md): if an implementation's loop structure drifts,
// this is the test that names the counter that moved.

using OpCounts = md::impl::OpCounts;
using OpGeometry = md::impl::OpGeometry;

constexpr std::size_t kParityScratch = 24u << 20;

OpCounts measured_counts(rt::Team& team) {
  OpCounts c;
  const auto d = team.total_dav();
  c.loads = d.loads;
  c.stores = d.stores;
  c.kernel_calls = team.total_kernels().total();
  const auto s = team.total_sync();
  c.barriers = s.barriers;
  c.flag_posts = s.flag_posts;
  c.flag_waits = s.flag_waits;
  return c;
}

::testing::AssertionResult counts_equal(const OpCounts& got,
                                        const OpCounts& want) {
  if (got == want) return ::testing::AssertionSuccess();
  auto line = [](const char* name, std::uint64_t g, std::uint64_t w) {
    return g == w ? std::string{}
                  : std::string("\n  ") + name + ": measured " +
                        std::to_string(g) + " != model " + std::to_string(w);
  };
  return ::testing::AssertionFailure()
         << line("loads", got.loads, want.loads)
         << line("stores", got.stores, want.stores)
         << line("kernel_calls", got.kernel_calls, want.kernel_calls)
         << line("barriers", got.barriers, want.barriers)
         << line("flag_posts", got.flag_posts, want.flag_posts)
         << line("flag_waits", got.flag_waits, want.flag_waits);
}

/// The table's rows plus one test-local row: the XPMEM baseline, which
/// runs the direct allreduce's pull schedule with baseline copy semantics.
std::vector<ArmRow> parity_rows() {
  std::vector<ArmRow> rows(arm_rows().begin(), arm_rows().end());
  rows.push_back(
      {CollKind::allreduce, Algorithm::direct, ArmNeed::single_copy,
       [](std::size_t s, const OpGeometry& g, const rt::PlanCaps&) {
         return md::impl::xpmem_allreduce_ops(s, g);
       },
       [](rt::RankCtx& ctx, const CollArgs& c, const CollOpts&) {
         xpmem_allreduce(ctx, c.send, c.recv, c.count, c.dtype, c.op);
         return true;
       }});
  return rows;
}

/// Shapes: flat even/odd, even p over even sockets, and the ragged p=3
/// over m=2 split where one socket has 2 ranks and the other 1.
constexpr std::pair<int, int> kParityShapes[] = {
    {2, 1}, {3, 1}, {4, 2}, {3, 2}};

/// Element counts: slice-divisible, ragged tail, and sub-slice tiny.
constexpr std::size_t kParityCounts[] = {4096, 3003, 17};
/// Fold-sized counts: the 4 KB cut of p <= 4, an odd size, and tiny.
constexpr std::size_t kFoldParityCounts[] = {512, 301, 17};

/// A team whose shared heap holds every rank's parity buffers, so the
/// single-copy rows run on a forked team too (its buffers are windows).
rt::TeamConfig parity_cfg(int p, int m) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = kParityScratch;
  cfg.shared_heap_bytes = 4u << 20;
  return cfg;
}

/// Walk every row on `team`: each count the row's need admits, run with
/// the row named explicitly, must match the row's model exactly.  `count`
/// is the per-rank block for reduce_scatter (model s = p·count·esize) and
/// the whole vector otherwise (s = count·esize).
void run_parity_matrix(rt::Team& team, int p, int m) {
  CollOpts o;
  o.slice_max = 4u << 10;
  OpGeometry g;
  g.p = p;
  g.m = m;
  g.slice_max = o.slice_max;
  g.slice_min = o.slice_min;
  g.dpml_chunk = o.dpml_chunk;
  g.scratch_bytes = kParityScratch;
  g.dpml_flat = o.dpml_flat;
  const auto pn = static_cast<std::size_t>(p);
  const std::size_t stride = pn * kParityCounts[0];
  auto* send =
      reinterpret_cast<double*>(team.shared_alloc(pn * stride * 8));
  auto* recv =
      reinterpret_cast<double*>(team.shared_alloc(pn * stride * 8));
  for (const ArmRow& row : parity_rows()) {
    o.algorithm = row.algorithm;
    const bool scatter = row.kind == CollKind::reduce_scatter;
    for (const std::size_t count : row.need == ArmNeed::fold_stage
                                       ? kFoldParityCounts
                                       : kParityCounts) {
      team.run([&](rt::RankCtx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        fill_buffer(send + r * stride, scatter ? pn * count : count,
                    Datatype::f64, ctx.rank(), ReduceOp::sum);
        const CollArgs call{send + r * stride, recv + r * stride, count,
                           Datatype::f64, ReduceOp::sum, /*root=*/0};
        EXPECT_TRUE(row.run(ctx, call, o));
      });
      const std::size_t s = count * 8 * (scatter ? pn : 1);
      EXPECT_TRUE(counts_equal(measured_counts(team),
                               row.ops(s, g, team.caps())))
          << coll_kind_name(row.kind) << " " << algorithm_name(row.algorithm)
          << " p=" << p << " m=" << m << " count=" << count;
    }
  }
}

TEST(CounterParity, MatrixOnThreadTeams) {
  for (auto [p, m] : kParityShapes) {
    rt::ThreadTeam team(parity_cfg(p, m));
    run_parity_matrix(team, p, m);
  }
}

// The direct arm on both sides of its push cut, W = 2ps > p·c'': a 16 KB
// private cache puts the cut at s = 8 KB, so the counts sit just below,
// at and just above it, then ragged and divisible well past it, over
// 4 KB slices.  Each call must match the simulator of the schedule the
// pure cut predicts, and the two simulators must agree on DAV.  Both
// backends run it over window buffers (the team heap), so a forked team
// takes the single-copy path too.
TEST(CounterParity, DirectPullAndPushAcrossTheCut) {
  constexpr std::size_t kMaxCount = 4096;
  for (auto [p, m] : kParityShapes) {
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = kParityScratch;
    cfg.shared_heap_bytes = 1u << 20;
    cfg.cache.l2_per_core = 16u << 10;
    rt::ThreadTeam threads(cfg);
    rt::ProcessTeam procs(cfg);
    CollOpts o;
    o.algorithm = Algorithm::direct;
    o.slice_max = 4u << 10;
    OpGeometry g;
    g.p = p;
    g.m = m;
    g.slice_max = o.slice_max;
    const auto pn = static_cast<std::size_t>(p);
    for (rt::Team* team : {static_cast<rt::Team*>(&threads),
                           static_cast<rt::Team*>(&procs)}) {
      const char* backend = team == &procs ? "process" : "thread";
      auto* send = reinterpret_cast<double*>(
          team->shared_alloc(pn * kMaxCount * 8));
      auto* recv = reinterpret_cast<double*>(
          team->shared_alloc(pn * kMaxCount * 8));
      for (const std::size_t count :
           {std::size_t{1023}, std::size_t{1024}, std::size_t{1025},
            std::size_t{3003}, kMaxCount}) {
        for (int r = 0; r < p; ++r)
          fill_buffer(send + r * kMaxCount, count, Datatype::f64, r,
                      ReduceOp::sum);
        team->run([&](rt::RankCtx& ctx) {
          const int r = ctx.rank();
          allreduce(ctx, send + r * kMaxCount, recv + r * kMaxCount, count,
                    Datatype::f64, ReduceOp::sum, o);
        });
        const std::size_t s = count * 8;
        const bool push = coll::detail::direct_pushes(s, p, cfg.cache);
        EXPECT_EQ(push, s > 8u << 10) << "count=" << count;
        const OpCounts pull_ops = md::impl::xpmem_allreduce_ops(s, g);
        const OpCounts push_ops = md::impl::direct_push_allreduce_ops(s, g);
        EXPECT_TRUE(counts_equal(measured_counts(*team),
                                 push ? push_ops : pull_ops))
            << backend << " " << (push ? "push" : "pull") << " p=" << p
            << " m=" << m << " count=" << count;
        for (int r = 0; r < p; ++r)
          EXPECT_TRUE(check_reduced(recv + r * kMaxCount, count,
                                    Datatype::f64, p, ReduceOp::sum))
              << backend << " p=" << p << " rank " << r
              << " count=" << count;
        // Same bytes either way; the push passes one barrier less.
        EXPECT_EQ(push_ops.loads, pull_ops.loads) << "count=" << count;
        EXPECT_EQ(push_ops.stores, pull_ops.stores) << "count=" << count;
        EXPECT_EQ(push_ops.barriers, 2u * static_cast<std::uint64_t>(p));
        EXPECT_EQ(pull_ops.barriers, 3u * static_cast<std::uint64_t>(p));
      }
    }
  }
}

// The direct reduce_scatter over window buffers (the team heap) matches
// its simulator on both backends, for divisible, ragged and sub-slice
// blocks.  On a forked team whose last rank sends from a private buffer,
// the automatic call pays direct's first barrier, then runs the §5.1
// staged arm: one barrier per rank plus that arm's own counts.
TEST(CounterParity, DirectReduceScatterOnBothBackendsAndItsFallback) {
  for (auto [p, m] : kParityShapes) {
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = kParityScratch;
    cfg.shared_heap_bytes = 4u << 20;
    rt::ThreadTeam threads(cfg);
    rt::ProcessTeam procs(cfg);
    CollOpts o;
    o.slice_max = 4u << 10;
    OpGeometry g;
    g.p = p;
    g.m = m;
    g.slice_max = o.slice_max;
    g.slice_min = o.slice_min;
    g.dpml_chunk = o.dpml_chunk;
    g.scratch_bytes = kParityScratch;
    const auto pn = static_cast<std::size_t>(p);
    const std::size_t big = 16411;  // p = 2: 256 KB + 192 B, above the cut
    for (rt::Team* team : {static_cast<rt::Team*>(&threads),
                           static_cast<rt::Team*>(&procs)}) {
      const bool forked = team == &procs;
      auto* send = reinterpret_cast<double*>(
          team->shared_alloc(pn * pn * big * 8));
      auto* recv = reinterpret_cast<double*>(team->shared_alloc(pn * big * 8));
      for (int r = 0; r < p; ++r)
        fill_buffer(send + r * pn * big, pn * big, Datatype::f64, r,
                    ReduceOp::sum);
      CollOpts direct = o;
      direct.algorithm = Algorithm::direct;
      for (const std::size_t count : kParityCounts) {
        team->run([&](rt::RankCtx& ctx) {
          const int r = ctx.rank();
          reduce_scatter(ctx, send + r * pn * big, recv + r * big, count,
                         Datatype::f64, ReduceOp::sum, direct);
        });
        EXPECT_TRUE(counts_equal(measured_counts(*team),
                                 md::impl::direct_reduce_scatter_ops(
                                     pn * count * 8, g)))
            << (forked ? "process" : "thread") << " p=" << p << " m=" << m
            << " count=" << count;
        for (int r = 0; r < p; ++r)
          EXPECT_TRUE(check_reduced(recv + r * big, count, Datatype::f64, p,
                                    ReduceOp::sum, r * count))
              << "p=" << p << " rank " << r << " count=" << count;
      }
      if (!forked) continue;
      team->run([&](rt::RankCtx& ctx) {
        const int r = ctx.rank();
        std::vector<double> priv(send + r * pn * big,
                                 send + (r + 1) * pn * big);
        reduce_scatter(ctx,
                       r == p - 1 ? priv.data() : send + r * pn * big,
                       recv + r * big, big, Datatype::f64, ReduceOp::sum, o);
      });
      const std::size_t s = pn * big * 8;
      OpCounts want = plan::staged_reduction_algorithm(
                          CollKind::reduce_scatter, s, o, team->topo()) ==
                              Algorithm::ma_socket_aware
                          ? md::impl::socket_ma_reduce_scatter_ops(s, g)
                          : md::impl::ma_reduce_scatter_ops(s, g);
      want.barriers += pn;  // direct's first barrier, before its verdict
      EXPECT_TRUE(counts_equal(measured_counts(*team), want))
          << "fallback p=" << p << " m=" << m;
      for (int r = 0; r < p; ++r)
        EXPECT_TRUE(check_reduced(recv + r * big, big, Datatype::f64, p,
                                  ReduceOp::sum, r * big))
            << "fallback p=" << p << " rank " << r;
    }
  }
}

TEST(CounterParity, MatrixOnProcessTeams) {
  for (auto [p, m] : kParityShapes) {
    rt::ProcessTeam team(parity_cfg(p, m));
    run_parity_matrix(team, p, m);
  }
}

}  // namespace
