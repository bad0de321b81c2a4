// In-place collective tests: MPI programs routinely pass MPI_IN_PLACE;
// the YHCCL equivalent is send == recv.  Every reduction arm must produce
// the same result when the input and output alias — this exercises the
// round-structure property that reads of sub-slice t strictly precede any
// write to it.
#include <gtest/gtest.h>

#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::cached_team;
using test::check_reduced;
using test::fill_buffer;

namespace {

struct Arm {
  const char* name;
  std::function<void(rt::RankCtx&, void*, std::size_t)> run;  // in-place
};

std::vector<Arm> inplace_arms() {
  return {
      {"ma_flat",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         CollOpts o;
         o.algorithm = Algorithm::ma_flat;
         o.slice_max = 8u << 10;
         allreduce(c, buf, buf, n, Datatype::f64, ReduceOp::sum, o);
       }},
      {"socket_ma",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         allreduce(c, buf, buf, n, Datatype::f64, ReduceOp::sum,
                   {.algorithm = Algorithm::ma_socket_aware});
       }},
      {"dpml_2l",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         allreduce(c, buf, buf, n, Datatype::f64, ReduceOp::sum,
                   {.algorithm = Algorithm::dpml_two_level});
       }},
      {"ring",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         base::ring_allreduce(c, buf, buf, n, Datatype::f64, ReduceOp::sum);
       }},
      {"rabenseifner",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         base::rabenseifner_allreduce(c, buf, buf, n, Datatype::f64,
                                      ReduceOp::sum);
       }},
      {"rg",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         base::rg_allreduce(c, buf, buf, n, Datatype::f64, ReduceOp::sum);
       }},
      {"xpmem",
       [](rt::RankCtx& c, void* buf, std::size_t n) {
         base::xpmem_allreduce(c, buf, buf, n, Datatype::f64,
                               ReduceOp::sum);
       }},
  };
}

class InPlaceSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(InPlaceSweep, AllreduceAliasedBuffers) {
  const auto [p, count] = GetParam();
  auto& team = cached_team(p, p >= 4 ? 2 : 1);
  for (const auto& arm : inplace_arms()) {
    std::vector<std::vector<double>> buf(p, std::vector<double>(count));
    for (int r = 0; r < p; ++r)
      fill_buffer(buf[r].data(), count, Datatype::f64, r, ReduceOp::sum);
    team.run([&](rt::RankCtx& ctx) {
      arm.run(ctx, buf[ctx.rank()].data(), count);
    });
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(check_reduced(buf[r].data(), count, Datatype::f64, p,
                                ReduceOp::sum))
          << arm.name << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InPlaceSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{1000},
                                         std::size_t{50000})),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(InPlace, GenericEntryPointAcceptsAliasedBuffers) {
  const int p = 4;
  auto& team = cached_team(p, 2);
  const std::size_t count = 70000;  // large: MA path
  std::vector<std::vector<double>> buf(p, std::vector<double>(count));
  for (int r = 0; r < p; ++r)
    fill_buffer(buf[r].data(), count, Datatype::f64, r, ReduceOp::sum);
  team.run([&](rt::RankCtx& ctx) {
    allreduce(ctx, buf[ctx.rank()].data(), buf[ctx.rank()].data(), count,
              Datatype::f64, ReduceOp::sum);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_TRUE(check_reduced(buf[r].data(), count, Datatype::f64, p,
                              ReduceOp::sum));
}

}  // namespace
