// Property-based tests: algebraic invariants that must hold for every
// collective implementation, checked over randomized sizes/seeds with
// parameterized sweeps.
//
//  * composition: allreduce == reduce-scatter ∘ allgather == reduce ∘ bcast
//  * input-permutation invariance for commutative ops
//  * result independence from tuning knobs (slice size, copy policy,
//    algorithm arm, socket count)
//  * all arms agree with each other bit-for-bit on integer data
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::cached_team;

namespace {

class PropertySweep : public ::testing::TestWithParam<unsigned> {};

/// Randomized case geometry from the seed.
struct Geometry {
  int p, m;
  std::size_t count;
  explicit Geometry(unsigned seed) {
    std::mt19937 rng(seed);
    const std::pair<int, int> shapes[] = {{2, 1}, {3, 1}, {4, 2},
                                          {6, 2}, {8, 2}, {8, 4}};
    auto [pp, mm] = shapes[rng() % std::size(shapes)];
    p = pp;
    m = mm;
    count = 1 + rng() % 60000;
  }
};

std::vector<std::vector<std::int64_t>> random_inputs(int p,
                                                     std::size_t count,
                                                     unsigned seed) {
  std::mt19937 rng(seed * 7919 + 13);
  std::vector<std::vector<std::int64_t>> v(p);
  for (auto& b : v) {
    b.resize(count);
    for (auto& x : b) x = static_cast<std::int64_t>(rng() % 1000);
  }
  return v;
}

TEST_P(PropertySweep, AllreduceEqualsReduceScatterPlusAllgather) {
  const Geometry g(GetParam());
  // reduce_scatter needs count divisible into blocks: use per-rank blocks.
  const std::size_t block = 1 + g.count / static_cast<std::size_t>(g.p);
  const std::size_t total = block * static_cast<std::size_t>(g.p);
  auto& team = cached_team(g.p, g.m);
  auto inputs = random_inputs(g.p, total, GetParam());

  std::vector<std::vector<std::int64_t>> direct(g.p), composed(g.p);
  for (int r = 0; r < g.p; ++r) {
    direct[r].assign(total, -1);
    composed[r].assign(total, -2);
  }
  team.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    allreduce(ctx, inputs[r].data(), direct[r].data(), total, Datatype::i64,
              ReduceOp::sum);
    std::vector<std::int64_t> block_out(block);
    reduce_scatter(ctx, inputs[r].data(), block_out.data(), block,
                   Datatype::i64, ReduceOp::sum);
    allgather(ctx, block_out.data(), composed[r].data(), block,
              Datatype::i64);
  });
  for (int r = 0; r < g.p; ++r)
    EXPECT_EQ(direct[r], composed[r]) << "rank " << r;
}

TEST_P(PropertySweep, AllreduceEqualsReducePlusBroadcast) {
  const Geometry g(GetParam());
  auto& team = cached_team(g.p, g.m);
  auto inputs = random_inputs(g.p, g.count, GetParam());
  std::vector<std::vector<std::int64_t>> direct(g.p), composed(g.p);
  for (int r = 0; r < g.p; ++r) {
    direct[r].assign(g.count, -1);
    composed[r].assign(g.count, -2);
  }
  const int root = static_cast<int>(GetParam()) % g.p;
  team.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    allreduce(ctx, inputs[r].data(), direct[r].data(), g.count,
              Datatype::i64, ReduceOp::sum);
    reduce(ctx, inputs[r].data(), composed[r].data(), g.count, Datatype::i64,
           ReduceOp::sum, root);
    if (r != root) composed[r] = std::vector<std::int64_t>(g.count, 0);
    // Broadcast the root's reduction to everyone.
    if (r != root) composed[r].assign(g.count, 0);
    broadcast(ctx, r == root ? composed[r].data() : composed[r].data(),
              g.count, Datatype::i64, root);
  });
  for (int r = 0; r < g.p; ++r)
    EXPECT_EQ(direct[r], composed[r]) << "rank " << r;
}

TEST_P(PropertySweep, PermutingRankInputsLeavesSumUnchanged) {
  const Geometry g(GetParam());
  if (g.p < 2) GTEST_SKIP();
  auto& team = cached_team(g.p, g.m);
  auto inputs = random_inputs(g.p, g.count, GetParam());
  std::vector<std::int64_t> first, second;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::vector<std::int64_t>> recv(
        g.p, std::vector<std::int64_t>(g.count));
    team.run([&](RankCtx& ctx) {
      // Second pass: rank r uses rank (r+1)'s input — a permutation.
      const auto& in =
          inputs[(ctx.rank() + pass) % static_cast<std::size_t>(g.p)];
      allreduce(ctx, in.data(), recv[ctx.rank()].data(), g.count,
                Datatype::i64, ReduceOp::sum);
    });
    (pass == 0 ? first : second) = recv[0];
  }
  EXPECT_EQ(first, second);
}

TEST_P(PropertySweep, ResultIndependentOfSliceSizeAndPolicy) {
  const Geometry g(GetParam());
  auto& team = cached_team(g.p, g.m);
  auto inputs = random_inputs(g.p, g.count, GetParam());
  std::vector<std::int64_t> reference;
  const std::size_t slices[] = {64, 4096, 64u << 10, 1u << 20};
  const copy::CopyPolicy policies[] = {
      copy::CopyPolicy::adaptive, copy::CopyPolicy::always_nt,
      copy::CopyPolicy::always_temporal, copy::CopyPolicy::memmove_model};
  for (std::size_t si = 0; si < std::size(slices); ++si) {
    CollOpts o;
    o.slice_max = slices[si];
    o.policy = policies[si % std::size(policies)];
    std::vector<std::vector<std::int64_t>> recv(
        g.p, std::vector<std::int64_t>(g.count));
    team.run([&](RankCtx& ctx) {
      allreduce(ctx, inputs[ctx.rank()].data(), recv[ctx.rank()].data(),
                g.count, Datatype::i64, ReduceOp::sum, o);
    });
    if (si == 0)
      reference = recv[0];
    else
      EXPECT_EQ(recv[0], reference) << "slice_max=" << slices[si];
    for (int r = 1; r < g.p; ++r) EXPECT_EQ(recv[r], recv[0]);
  }
}

TEST_P(PropertySweep, AllArmsAgreeBitForBit) {
  const Geometry g(GetParam());
  auto& team = cached_team(g.p, g.m);
  auto inputs = random_inputs(g.p, g.count, GetParam());
  std::vector<std::int64_t> reference;
  using Arm = std::function<void(RankCtx&, const std::int64_t*,
                                 std::int64_t*, std::size_t)>;
  std::vector<std::pair<const char*, Arm>> arms = {
      {"ma", [](RankCtx& c, const std::int64_t* i, std::int64_t* o,
                std::size_t n) {
         allreduce(c, i, o, n, Datatype::i64, ReduceOp::sum,
                   {.algorithm = Algorithm::ma_flat});
       }},
      {"socket",
       [](RankCtx& c, const std::int64_t* i, std::int64_t* o, std::size_t n) {
         allreduce(c, i, o, n, Datatype::i64, ReduceOp::sum,
                   {.algorithm = Algorithm::ma_socket_aware});
       }},
      {"dpml2l",
       [](RankCtx& c, const std::int64_t* i, std::int64_t* o, std::size_t n) {
         allreduce(c, i, o, n, Datatype::i64, ReduceOp::sum,
                   {.algorithm = Algorithm::dpml_two_level});
       }},
      {"ring",
       [](RankCtx& c, const std::int64_t* i, std::int64_t* o, std::size_t n) {
         base::ring_allreduce(c, i, o, n, Datatype::i64, ReduceOp::sum);
       }},
      {"rg",
       [](RankCtx& c, const std::int64_t* i, std::int64_t* o, std::size_t n) {
         base::rg_allreduce(c, i, o, n, Datatype::i64, ReduceOp::sum);
       }},
      {"xpmem",
       [](RankCtx& c, const std::int64_t* i, std::int64_t* o, std::size_t n) {
         base::xpmem_allreduce(c, i, o, n, Datatype::i64, ReduceOp::sum);
       }},
  };
  for (const auto& [name, arm] : arms) {
    std::vector<std::vector<std::int64_t>> recv(
        g.p, std::vector<std::int64_t>(g.count));
    team.run([&](RankCtx& ctx) {
      arm(ctx, inputs[ctx.rank()].data(), recv[ctx.rank()].data(), g.count);
    });
    if (reference.empty())
      reference = recv[0];
    else
      EXPECT_EQ(recv[0], reference) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(1u, 13u));

}  // namespace
