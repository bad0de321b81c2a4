// Correctness sweeps for every YHCCL collective and algorithm arm, across
// rank counts, socket layouts, message sizes (including ragged tails and
// single elements), datatypes, reduce ops, and copy policies.  Results are
// compared against a sequential reference reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::cached_team;
using test::check_reduced;
using test::fill_buffer;

namespace {

struct TeamShape {
  int p, m;
};

// {3, 2} puts a singleton socket next to a multi-rank one: a rank with no
// intra-socket peers must still match the team-uniform barriers of the
// socket-aware arms (regression: DPML stage-1 barrier deadlock).
const TeamShape kShapes[] = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {4, 2},
                             {6, 2}, {8, 2}, {8, 4}, {5, 2}, {3, 2}};

const std::size_t kCounts[] = {1, 5, 64, 1023, 4096, 100000};

struct RedCase {
  Algorithm alg;
  TeamShape shape;
  std::size_t count;
  Datatype d;
  ReduceOp op;
  std::string name() const {
    std::string s = std::string(algorithm_name(alg)) + "_p" +
                    std::to_string(shape.p) + "m" + std::to_string(shape.m) +
                    "_n" + std::to_string(count) + "_" +
                    std::string(dtype_name(d)) + "_" +
                    std::string(op_name(op));
    for (char& c : s) {
      if (c == '-') c = '_';
    }
    return s;
  }
};

std::vector<RedCase> reduction_cases() {
  const std::pair<Datatype, ReduceOp> dtops[] = {
      {Datatype::f32, ReduceOp::sum}, {Datatype::f64, ReduceOp::sum},
      {Datatype::i32, ReduceOp::sum}, {Datatype::i64, ReduceOp::max},
      {Datatype::i32, ReduceOp::min}, {Datatype::u8, ReduceOp::bor},
      {Datatype::i32, ReduceOp::band}, {Datatype::f64, ReduceOp::prod}};
  std::vector<RedCase> cases;
  for (Algorithm alg : {Algorithm::automatic, Algorithm::ma_flat,
                        Algorithm::ma_socket_aware, Algorithm::dpml_two_level})
    for (const auto& shape : kShapes)
      for (std::size_t count : kCounts)
        for (const auto& [d, op] : dtops) {
          // Keep the sweep affordable: the full dtype/op matrix only at one
          // representative size per shape; f64 sum everywhere.
          if (count != 4096 && !(d == Datatype::f64 && op == ReduceOp::sum) &&
              !(d == Datatype::f32 && op == ReduceOp::sum))
            continue;
          cases.push_back({alg, shape, count, d, op});
        }
  return cases;
}

class ReductionSweep : public ::testing::TestWithParam<RedCase> {};

CollOpts opts_for(const RedCase& c) {
  CollOpts o;
  o.algorithm = c.alg;
  o.slice_max = 16u << 10;  // small Imax => several rounds at larger counts
  return o;
}

TEST_P(ReductionSweep, Allreduce) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  std::vector<std::vector<std::uint8_t>> send(c.shape.p),
      recv(c.shape.p);
  for (int r = 0; r < c.shape.p; ++r) {
    send[r].resize(c.count * e);
    recv[r].assign(c.count * e, 0xcd);
    fill_buffer(send[r].data(), c.count, c.d, r, c.op);
  }
  const auto o = opts_for(c);
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), c.count,
              c.d, c.op, o);
  });
  for (int r = 0; r < c.shape.p; ++r)
    EXPECT_TRUE(
        check_reduced(recv[r].data(), c.count, c.d, c.shape.p, c.op))
        << "rank " << r;
}

TEST_P(ReductionSweep, ReduceScatter) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  // `count` is the per-rank block size for reduce-scatter.
  std::vector<std::vector<std::uint8_t>> send(p), recv(p);
  for (int r = 0; r < p; ++r) {
    send[r].resize(c.count * e * p);
    recv[r].assign(c.count * e, 0xcd);
    fill_buffer(send[r].data(), c.count * p, c.d, r, c.op);
  }
  const auto o = opts_for(c);
  team.run([&](RankCtx& ctx) {
    reduce_scatter(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                   c.count, c.d, c.op, o);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_TRUE(check_reduced(recv[r].data(), c.count, c.d, p, c.op,
                              /*index_offset=*/c.count * r))
        << "rank " << r;
}

TEST_P(ReductionSweep, ReduceToEveryRoot) {
  const auto c = GetParam();
  if (c.count > 4096) GTEST_SKIP() << "root sweep capped at medium sizes";
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  std::vector<std::vector<std::uint8_t>> send(p), recv(p);
  for (int r = 0; r < p; ++r) {
    send[r].resize(c.count * e);
    recv[r].assign(c.count * e, 0xcd);
    fill_buffer(send[r].data(), c.count, c.d, r, c.op);
  }
  const auto o = opts_for(c);
  for (int root = 0; root < p; ++root) {
    for (int r = 0; r < p; ++r) std::fill(recv[r].begin(), recv[r].end(), 0xcd);
    team.run([&](RankCtx& ctx) {
      reduce(ctx, send[ctx.rank()].data(),
             ctx.rank() == root ? recv[ctx.rank()].data() : nullptr, c.count,
             c.d, c.op, root, o);
    });
    EXPECT_TRUE(check_reduced(recv[root].data(), c.count, c.d, p, c.op))
        << "root " << root;
    // Non-roots untouched.
    for (int r = 0; r < p; ++r) {
      if (r != root) {
        EXPECT_EQ(recv[r][0], 0xcd) << "rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReductionSweep,
                         ::testing::ValuesIn(reduction_cases()),
                         [](const auto& info) { return info.param.name(); });

// ---- broadcast / allgather sweeps -----------------------------------------

struct MoveCase {
  TeamShape shape;
  std::size_t count;
  Datatype d;
  copy::CopyPolicy policy;
  std::string name() const {
    return std::string("p") + std::to_string(shape.p) + "m" +
           std::to_string(shape.m) + "_n" + std::to_string(count) + "_" +
           std::string(dtype_name(d)) + "_" +
           (policy == copy::CopyPolicy::adaptive
                ? "adaptive"
                : policy == copy::CopyPolicy::always_nt ? "nt" : "t");
  }
};

std::vector<MoveCase> move_cases() {
  std::vector<MoveCase> cases;
  for (const auto& shape : kShapes)
    for (std::size_t count : kCounts)
      for (auto pol : {copy::CopyPolicy::adaptive,
                       copy::CopyPolicy::always_nt,
                       copy::CopyPolicy::always_temporal}) {
        if (pol != copy::CopyPolicy::adaptive && count != 100000) continue;
        cases.push_back({shape, count, Datatype::f32, pol});
      }
  return cases;
}

class MovementSweep : public ::testing::TestWithParam<MoveCase> {};

TEST_P(MovementSweep, BroadcastFromEveryRoot) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  CollOpts o;
  o.policy = c.policy;
  o.slice_max = 16u << 10;
  std::vector<std::vector<std::uint8_t>> buf(p);
  const int roots_to_try = c.count == 4096 ? p : 1;
  for (int root = 0; root < roots_to_try; ++root) {
    for (int r = 0; r < p; ++r) {
      buf[r].assign(c.count * e, 0);
      fill_buffer(buf[r].data(), c.count, c.d, r == root ? 99 : r,
                  ReduceOp::sum);
    }
    team.run([&](RankCtx& ctx) {
      broadcast(ctx, buf[ctx.rank()].data(), c.count, c.d, root, o);
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(buf[r], buf[root]) << "rank " << r << " root " << root;
  }
}

TEST_P(MovementSweep, AllgatherCollectsRankOrder) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  CollOpts o;
  o.policy = c.policy;
  o.slice_max = 16u << 10;
  std::vector<std::vector<std::uint8_t>> send(p), recv(p);
  for (int r = 0; r < p; ++r) {
    send[r].resize(c.count * e);
    recv[r].assign(c.count * e * p, 0);
    fill_buffer(send[r].data(), c.count, c.d, r, ReduceOp::sum);
  }
  team.run([&](RankCtx& ctx) {
    allgather(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), c.count,
              c.d, o);
  });
  for (int r = 0; r < p; ++r)
    for (int a = 0; a < p; ++a)
      EXPECT_EQ(0, std::memcmp(recv[r].data() + a * c.count * e,
                               send[a].data(), c.count * e))
          << "rank " << r << " block " << a;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MovementSweep,
                         ::testing::ValuesIn(move_cases()),
                         [](const auto& info) { return info.param.name(); });

// ---- semantics edge cases ---------------------------------------------------

TEST(CollEdge, ZeroCountIsANoOp) {
  auto& team = cached_team(4, 2);
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, nullptr, nullptr, 0, Datatype::f64, ReduceOp::sum);
    reduce_scatter(ctx, nullptr, nullptr, 0, Datatype::f64, ReduceOp::sum);
    broadcast(ctx, nullptr, 0, Datatype::f64, 0);
    allgather(ctx, nullptr, nullptr, 0, Datatype::f64);
    ctx.barrier();
  });
}

TEST(CollEdge, InvalidOpDatatypeComboIsRejected) {
  auto& team = cached_team(2, 1);
  EXPECT_THROW(team.run([&](RankCtx& ctx) {
                 float x = 0, y = 0;
                 allreduce(ctx, &x, &y, 1, Datatype::f32, ReduceOp::band);
               }),
               Error);
}

TEST(CollEdge, BackToBackCollectivesReuseScratchSafely) {
  auto& team = cached_team(4, 2);
  const std::size_t n = 50000;
  std::vector<std::vector<double>> send(4, std::vector<double>(n)),
      recv(4, std::vector<double>(n));
  for (int r = 0; r < 4; ++r) fill_buffer(send[r].data(), n, Datatype::f64, r, ReduceOp::sum);
  CollOpts o;
  o.slice_max = 8u << 10;
  team.run([&](RankCtx& ctx) {
    for (int it = 0; it < 20; ++it) {
      ma_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), n,
                   Datatype::f64, ReduceOp::sum, o);
      socket_ma_allreduce(ctx, send[ctx.rank()].data(),
                          recv[ctx.rank()].data(), n, Datatype::f64,
                          ReduceOp::sum, o);
    }
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(check_reduced(recv[r].data(), n, Datatype::f64, 4,
                              ReduceOp::sum));
}

TEST(CollEdge, SwitchingRespectsThresholdAndTopology) {
  // The paper's process setting: the thread team's topology and cache
  // model without the shared address space.
  const auto process_caps = [](const rt::Team& team) {
    return rt::PlanCaps(team.topo(), team.config().cache,
                        /*shared_address_space=*/false);
  };
  const rt::PlanCaps two = process_caps(cached_team(4, 2));
  CollOpts o;
  EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::reduce, 1024, o, two),
            Algorithm::dpml_two_level)
      << "small message should pick dpml_two_level";
  // Allreduces up to the fold cut (4 KB at p = 4) take the fold arm.
  EXPECT_EQ(
      plan::choose_reduction_algorithm(CollKind::allreduce, 1024, o, two),
      Algorithm::fold)
      << "small allreduce should pick fold";
  EXPECT_EQ(
      plan::choose_reduction_algorithm(CollKind::allreduce, 4096, o, two),
      Algorithm::fold)
      << "small allreduce should pick fold";
  EXPECT_EQ(
      plan::choose_reduction_algorithm(CollKind::allreduce, 4097, o, two),
      Algorithm::dpml_two_level)
      << "allreduce past the fold cut should pick dpml_two_level";
  // In the MA regime the rule serves direct on every team; a forked team
  // whose buffers are not all in shared windows falls back to the staged
  // arm, socket-MA on 2 sockets.
  EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::allreduce, 10u << 20,
                                             o, two),
            Algorithm::direct)
      << "large allreduce should pick direct";
  EXPECT_EQ(plan::staged_reduction_algorithm(CollKind::allreduce, 10u << 20,
                                             o, two.topo()),
            Algorithm::ma_socket_aware)
      << "large message on 2 sockets should fall back to socket-MA";
  EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::reduce, 10u << 20, o,
                                             two),
            Algorithm::ma_socket_aware)
      << "large reduce keeps socket-MA";
  o.algorithm = Algorithm::ma_flat;
  EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::allreduce, 10, o, two),
            Algorithm::ma_flat)
      << "forced algorithm must be honoured";
  EXPECT_EQ(plan::choose_reduction_algorithm(CollKind::reduce_scatter,
                                             10u << 20, CollOpts{},
                                             process_caps(cached_team(4, 1))),
            Algorithm::direct)
      << "large reduce_scatter should pick direct";
  EXPECT_EQ(plan::staged_reduction_algorithm(CollKind::reduce_scatter,
                                             10u << 20, CollOpts{},
                                             cached_team(4, 1).topo()),
            Algorithm::ma_flat)
      << "single socket should fall back to flat MA";
}

// The fold arm across every team shape, at its cut, a ragged size and a
// single element, over the dtype/op matrix (explicitly selected, so the
// sweep holds whatever the tuner would serve).
TEST(CollEdge, FoldArmMatchesReferenceUpToItsCut) {
  const std::pair<Datatype, ReduceOp> dtops[] = {
      {Datatype::f32, ReduceOp::sum}, {Datatype::f64, ReduceOp::prod},
      {Datatype::i32, ReduceOp::min}, {Datatype::i64, ReduceOp::max},
      {Datatype::u8, ReduceOp::bor},  {Datatype::i32, ReduceOp::band}};
  CollOpts o;
  o.algorithm = Algorithm::fold;
  for (const auto& shape : kShapes) {
    auto& team = cached_team(shape.p, shape.m);
    for (const auto& [d, op] : dtops) {
      const std::size_t e = dtype_size(d);
      const std::size_t cut = fold_max_bytes(shape.p) / e;
      for (const std::size_t count : {cut, cut / 3 + 1, std::size_t{1}}) {
        std::vector<std::vector<std::uint8_t>> send(shape.p), recv(shape.p);
        for (int r = 0; r < shape.p; ++r) {
          send[r].resize(count * e);
          recv[r].assign(count * e, 0xcd);
          fill_buffer(send[r].data(), count, d, r, op);
        }
        team.run([&](RankCtx& ctx) {
          allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                    count, d, op, o);
        });
        for (int r = 0; r < shape.p; ++r)
          EXPECT_TRUE(check_reduced(recv[r].data(), count, d, shape.p, op))
              << "p=" << shape.p << " m=" << shape.m << " "
              << dtype_name(d) << " " << op_name(op) << " count=" << count
              << " rank " << r;
      }
    }
  }
}

// Automatic allreduces above the fold cut on a thread team take the
// single-copy direct arm: every shape, ragged sizes (empty trailing blocks
// included), the dtype/op matrix, out of place and in place.
TEST(CollEdge, DirectArmServesAutomaticAllreducesAboveTheCut) {
  const std::pair<Datatype, ReduceOp> dtops[] = {
      {Datatype::f32, ReduceOp::sum}, {Datatype::f64, ReduceOp::prod},
      {Datatype::i32, ReduceOp::min}, {Datatype::i64, ReduceOp::max},
      {Datatype::u8, ReduceOp::bor},  {Datatype::i32, ReduceOp::band}};
  for (const auto& shape : kShapes) {
    auto& team = cached_team(shape.p, shape.m);
    for (const auto& [d, op] : dtops) {
      const std::size_t e = dtype_size(d);
      const std::size_t cut = fold_max_bytes(shape.p) / e;
      for (const std::size_t count :
           {cut + 1, 3 * cut + 7, std::size_t{100003}}) {
        // The full dtype/op matrix at the two sizes near the cut; f32 sum
        // (the first pair) also at a large ragged size.
        if (count == 100003 && d != dtops[0].first) continue;
        EXPECT_EQ(plan::query(team, CollKind::allreduce, count * e, d, op)
                      .algorithm,
                  Algorithm::direct);
        std::vector<std::vector<std::uint8_t>> send(shape.p), recv(shape.p),
            both(shape.p);
        for (int r = 0; r < shape.p; ++r) {
          send[r].resize(count * e);
          recv[r].assign(count * e, 0xcd);
          fill_buffer(send[r].data(), count, d, r, op);
          both[r] = send[r];
        }
        team.run([&](RankCtx& ctx) {
          const int r = ctx.rank();
          allreduce(ctx, send[r].data(), recv[r].data(), count, d, op);
          allreduce(ctx, both[r].data(), both[r].data(), count, d, op);
        });
        for (int r = 0; r < shape.p; ++r) {
          EXPECT_TRUE(check_reduced(recv[r].data(), count, d, shape.p, op))
              << "p=" << shape.p << " m=" << shape.m << " "
              << dtype_name(d) << " " << op_name(op) << " count=" << count
              << " rank " << r;
          EXPECT_TRUE(check_reduced(both[r].data(), count, d, shape.p, op))
              << "in place p=" << shape.p << " count=" << count;
        }
      }
    }
  }
}

/// Random operands: non-integer floats make sums order-sensitive; i32 stays
/// small enough that a 4-rank sum cannot overflow.
template <typename T>
std::vector<std::vector<T>> random_operands(std::size_t p, std::size_t count,
                                            std::uint64_t seed) {
  std::vector<std::vector<T>> in(p, std::vector<T>(count));
  std::uint64_t x = seed;
  for (auto& v : in)
    for (T& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto k = static_cast<std::int64_t>(x % 2000001) - 1000000;
      e = std::is_integral_v<T> ? static_cast<T>(k)
                                : static_cast<T>(static_cast<double>(k) /
                                                 997.0);
    }
  return in;
}

/// Direct allreduce of `in` on `team`, out of place and in place; returns
/// the number of elements on any rank, in either call, whose bits differ
/// from a scalar fold in rank order 0..p-1.
template <typename T>
std::size_t direct_mismatches(rt::ThreadTeam& team,
                              const std::vector<std::vector<T>>& in,
                              Datatype d, ReduceOp op, const CollOpts& o) {
  const std::size_t p = in.size(), count = in[0].size();
  std::vector<std::vector<T>> out(p, std::vector<T>(count)), inplace = in;
  team.run([&](RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    allreduce(ctx, in[r].data(), out[r].data(), count, d, op, o);
    allreduce(ctx, inplace[r].data(), inplace[r].data(), count, d, op, o);
  });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    T acc = in[0][i];
    for (std::size_t q = 1; q < p; ++q)
      acc = op == ReduceOp::sum ? static_cast<T>(acc + in[q][i])
                                : std::max(acc, in[q][i]);
    for (std::size_t r = 0; r < p; ++r) {
      mismatches += std::memcmp(&out[r][i], &acc, sizeof(T)) != 0 ? 1 : 0;
      mismatches += std::memcmp(&inplace[r][i], &acc, sizeof(T)) != 0 ? 1 : 0;
    }
  }
  return mismatches;
}

// The direct arm reduces each block in rank order 0..p-1, in place or not,
// and the push schedule must give the pull schedule's bits.  One team's
// private caches are so large that it always pulls, the other's so small
// that it pushes from 33 bytes on; both must match the scalar rank-order
// fold on every rank, out of place and in place.  17 elements leave
// trailing blocks empty; 4 KB slices make the larger counts push many
// ragged slices.
TEST(CollEdge, DirectPushIsBitwiseEqualToPullAndRankOrder) {
  for (const auto& shape : {TeamShape{2, 1}, TeamShape{3, 1}, TeamShape{4, 2},
                            TeamShape{3, 2}, TeamShape{5, 2}}) {
    rt::TeamConfig cfg;
    cfg.nranks = shape.p;
    cfg.nsockets = shape.m;
    cfg.cache.l2_per_core = std::size_t{1} << 30;
    rt::ThreadTeam pull_team(cfg);
    cfg.cache.l2_per_core = 64;
    rt::ThreadTeam push_team(cfg);
    CollOpts o;
    o.algorithm = Algorithm::direct;
    o.slice_max = 4u << 10;
    const auto pn = static_cast<std::size_t>(shape.p);
    for (const std::size_t count :
         {std::size_t{17}, std::size_t{1000}, std::size_t{20011}}) {
      for (const ReduceOp op : {ReduceOp::sum, ReduceOp::max}) {
        const std::uint64_t seed = 0x9e3779b97f4a7c15ull + count;
        const auto f32 = random_operands<float>(pn, count, seed);
        const auto f64 = random_operands<double>(pn, count, seed);
        const auto i32 = random_operands<std::int32_t>(pn, count, seed);
        for (rt::ThreadTeam* team : {&pull_team, &push_team}) {
          const bool push = team == &push_team;
          ASSERT_EQ(coll::detail::direct_pushes(count * 4, shape.p,
                                                team->config().cache),
                    push);
          const std::string where =
              std::string(push ? "push" : "pull") + " p=" +
              std::to_string(shape.p) + " count=" + std::to_string(count) +
              " " + std::string(op_name(op));
          EXPECT_EQ(direct_mismatches(*team, f32, Datatype::f32, op, o), 0u)
              << "f32 " << where;
          EXPECT_EQ(direct_mismatches(*team, f64, Datatype::f64, op, o), 0u)
              << "f64 " << where;
          EXPECT_EQ(direct_mismatches(*team, i32, Datatype::i32, op, o), 0u)
              << "i32 " << where;
        }
      }
    }
  }
}

TEST(CollEdge, DirectArmServesAllreduceAndReduceScatterOnly) {
  auto& team = cached_team(4, 2);
  const std::size_t n = 4096;
  CollOpts o;
  o.algorithm = Algorithm::direct;
  EXPECT_THROW(team.run([&](RankCtx& ctx) {
    std::vector<double> send(n * 4), recv(n * 4);
    reduce(ctx, send.data(), recv.data(), n, Datatype::f64, ReduceOp::sum, 0,
           o);
  }),
               Error);
  // The team stays usable after the rejected call.
  std::vector<std::vector<double>> send(4, std::vector<double>(n)),
      recv(4, std::vector<double>(n));
  for (int r = 0; r < 4; ++r)
    fill_buffer(send[r].data(), n, Datatype::f64, r, ReduceOp::sum);
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), n,
              Datatype::f64, ReduceOp::sum, o);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(check_reduced(recv[r].data(), n, Datatype::f64, 4,
                              ReduceOp::sum));
  std::vector<std::vector<double>> full(4, std::vector<double>(4 * n));
  for (int r = 0; r < 4; ++r)
    fill_buffer(full[r].data(), 4 * n, Datatype::f64, r, ReduceOp::sum);
  team.run([&](RankCtx& ctx) {
    reduce_scatter(ctx, full[ctx.rank()].data(), recv[ctx.rank()].data(), n,
                   Datatype::f64, ReduceOp::sum, o);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(check_reduced(recv[r].data(), n, Datatype::f64, 4,
                              ReduceOp::sum, r * n));
}

TEST(CollEdge, DpmlFlatModeMatchesReference) {
  auto& team = cached_team(6, 2);
  const std::size_t n = 30000;
  std::vector<std::vector<float>> send(6, std::vector<float>(n)),
      recv(6, std::vector<float>(n));
  for (int r = 0; r < 6; ++r)
    fill_buffer(send[r].data(), n, Datatype::f32, r, ReduceOp::sum);
  CollOpts o;
  o.dpml_flat = true;  // the paper's original single-level DPML baseline
  team.run([&](RankCtx& ctx) {
    dpml_two_level_allreduce(ctx, send[ctx.rank()].data(),
                             recv[ctx.rank()].data(), n, Datatype::f32,
                             ReduceOp::sum, o);
  });
  for (int r = 0; r < 6; ++r)
    EXPECT_TRUE(
        check_reduced(recv[r].data(), n, Datatype::f32, 6, ReduceOp::sum));
}

}  // namespace
