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
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using namespace yhccl::base;
namespace md = yhccl::model;
using test::cached_team;
using test::fill_buffer;

namespace {

constexpr std::size_t kSliceMax = 16u << 10;

CollOpts exact_opts() {
  CollOpts o;
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
    const auto o = exact_opts();
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      ma_reduce_scatter(ctx, f.send[ctx.rank()].data(),
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
    const auto o = exact_opts();
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      socket_ma_reduce_scatter(ctx, f.send[ctx.rank()].data(),
                               f.recv[ctx.rank()].data(), f.count,
                               Datatype::f64, ReduceOp::sum, o);
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
    const auto o = exact_opts();
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      ma_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                   count, Datatype::f64, ReduceOp::sum, o);
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
    const auto o = exact_opts();
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      socket_ma_allreduce(ctx, send[ctx.rank()].data(),
                          recv[ctx.rank()].data(), count, Datatype::f64,
                          ReduceOp::sum, o);
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
    const auto o = exact_opts();
    const auto dav = measure(team, [&](rt::RankCtx& ctx) {
      ma_reduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), count,
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
      fold_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                     count, Datatype::f64, ReduceOp::sum);
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
  const auto o = exact_opts();
  const auto bc = measure(team, [&](rt::RankCtx& ctx) {
    pipelined_broadcast(ctx, buf[ctx.rank()].data(), count, Datatype::f64, 0,
                        o);
  });
  EXPECT_EQ(bc, md::impl::pipelined_broadcast(count * 8, p));
  const auto ag = measure(team, [&](rt::RankCtx& ctx) {
    pipelined_allgather(ctx, buf[ctx.rank()].data(), recv[ctx.rank()].data(),
                        count, Datatype::f64, o);
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
// Every collective arm × team shape × (divisible and ragged) message size,
// on both the thread and the fork() backend: the measured deterministic
// counters — DAV loads/stores, kernel dispatches, barrier arrivals and
// progress-flag posts/waits — must equal the md::impl::*_ops simulators
// EXACTLY.  This is the seed matrix for the bench comparator's counter
// gate (docs/benchmarking.md): if an implementation's loop structure
// drifts, this is the test that names the counter that moved.

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

/// One parity arm: how to run the implementation and which simulator
/// predicts it.  `count` is the per-rank block for scatter-shaped input
/// (model s = p·count·esize) and the whole vector otherwise (s = count·esize).
struct ParityArm {
  const char* name;
  bool scatter_shaped;
  OpCounts (*model)(std::size_t, const OpGeometry&);
  void (*run)(rt::RankCtx&, std::size_t count, const CollOpts&);
  bool thread_only = false;  ///< xpmem needs a shared address space
  bool fold_sized = false;   ///< runs only counts within fold_max_bytes(p)
  bool above_fold_cut = false;  ///< runs only counts past fold_max_bytes(p)
};

const ParityArm kParityArms[] = {
    {"ma_reduce_scatter", true, md::impl::ma_reduce_scatter_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count * ctx.nranks()), recv(count);
       fill_buffer(send.data(), send.size(), Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       ma_reduce_scatter(ctx, send.data(), recv.data(), count, Datatype::f64,
                         ReduceOp::sum, o);
     }},
    {"socket_ma_reduce_scatter", true,
     md::impl::socket_ma_reduce_scatter_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count * ctx.nranks()), recv(count);
       fill_buffer(send.data(), send.size(), Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       socket_ma_reduce_scatter(ctx, send.data(), recv.data(), count,
                                Datatype::f64, ReduceOp::sum, o);
     }},
    {"dpml_reduce_scatter", true, md::impl::dpml_reduce_scatter_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count * ctx.nranks()), recv(count);
       fill_buffer(send.data(), send.size(), Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       dpml_two_level_reduce_scatter(ctx, send.data(), recv.data(), count,
                                     Datatype::f64, ReduceOp::sum, o);
     }},
    {"ma_allreduce", false, md::impl::ma_allreduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       ma_allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum, o);
     }},
    {"socket_ma_allreduce", false, md::impl::socket_ma_allreduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       socket_ma_allreduce(ctx, send.data(), recv.data(), count,
                           Datatype::f64, ReduceOp::sum, o);
     }},
    {"dpml_allreduce", false, md::impl::dpml_allreduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       dpml_two_level_allreduce(ctx, send.data(), recv.data(), count,
                                Datatype::f64, ReduceOp::sum, o);
     }},
    {"ma_reduce", false, md::impl::ma_reduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       ma_reduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                 ReduceOp::sum, /*root=*/0, o);
     }},
    {"socket_ma_reduce", false, md::impl::socket_ma_reduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       socket_ma_reduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                        ReduceOp::sum, /*root=*/0, o);
     }},
    {"dpml_reduce", false, md::impl::dpml_reduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       dpml_two_level_reduce(ctx, send.data(), recv.data(), count,
                             Datatype::f64, ReduceOp::sum, /*root=*/0, o);
     }},
    {"pipelined_broadcast", false, md::impl::pipelined_broadcast_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> buf(count);
       fill_buffer(buf.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       pipelined_broadcast(ctx, buf.data(), count, Datatype::f64,
                           /*root=*/0, o);
     }},
    {"pipelined_allgather", false, md::impl::pipelined_allgather_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count * ctx.nranks());
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       pipelined_allgather(ctx, send.data(), recv.data(), count,
                           Datatype::f64, o);
     }},
    {"xpmem_allreduce", false, md::impl::xpmem_allreduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts&) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       xpmem_allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                       ReduceOp::sum);
     },
     /*thread_only=*/true},
    {"fold_allreduce", false, md::impl::fold_allreduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       fold_allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                      ReduceOp::sum, o);
     },
     /*thread_only=*/false, /*fold_sized=*/true},
    // The automatic allreduce above the fold cut: a thread team serves the
    // single-copy direct arm, whose counters are the XPMEM model's.
    {"direct_allreduce (automatic)", false, md::impl::xpmem_allreduce_ops,
     [](rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
       std::vector<double> send(count), recv(count);
       fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                   ReduceOp::sum);
       allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                 ReduceOp::sum, o);
       EXPECT_EQ(plan::Plan::unpack(plan::last_plan_word()).algorithm,
                 Algorithm::direct);
     },
     /*thread_only=*/true, /*fold_sized=*/false, /*above_fold_cut=*/true},
};

/// Shapes: flat even/odd, even p over even sockets, and the ragged p=3
/// over m=2 split where one socket has 2 ranks and the other 1.
constexpr std::pair<int, int> kParityShapes[] = {
    {2, 1}, {3, 1}, {4, 2}, {3, 2}};

/// Element counts: slice-divisible, ragged tail, and sub-slice tiny.
constexpr std::size_t kParityCounts[] = {4096, 3003, 17};
/// Fold-sized counts: the 4 KB cut of p <= 4, an odd size, and tiny.
constexpr std::size_t kFoldParityCounts[] = {512, 301, 17};
/// Past the fold cut of every parity shape (8 KB at p = 2): divisible,
/// ragged, and one element past the p = 2 cut.
constexpr std::size_t kAboveCutParityCounts[] = {4096, 3003, 1025};

void run_parity_matrix(rt::Team& team, int p, int m,
                       bool is_thread_team = true) {
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
  for (const auto& arm : kParityArms) {
    if (arm.thread_only && !is_thread_team) continue;
    const auto& counts = arm.fold_sized       ? kFoldParityCounts
                         : arm.above_fold_cut ? kAboveCutParityCounts
                                              : kParityCounts;
    for (std::size_t count : counts) {
      team.run([&](rt::RankCtx& ctx) { arm.run(ctx, count, o); });
      const std::size_t s =
          count * 8 * (arm.scatter_shaped ? static_cast<std::size_t>(p) : 1);
      EXPECT_TRUE(counts_equal(measured_counts(team), arm.model(s, g)))
          << arm.name << " p=" << p << " m=" << m << " count=" << count;
    }
  }
}

TEST(CounterParity, MatrixOnThreadTeams) {
  for (auto [p, m] : kParityShapes) {
    run_parity_matrix(cached_team(p, m, kParityScratch), p, m);
  }
}

TEST(CounterParity, MatrixOnProcessTeams) {
  for (auto [p, m] : kParityShapes) {
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = kParityScratch;
    cfg.shared_heap_bytes = 4u << 20;
    rt::ProcessTeam team(cfg);
    run_parity_matrix(team, p, m, /*is_thread_team=*/false);
  }
}

}  // namespace
