// Tests for trace record & replay: recording fidelity, CSV round-trip,
// replay correctness under different algorithm arms, and the end-to-end
// workflow of extracting an application's communication kernel.
#include <gtest/gtest.h>

#include <vector>

#include "yhccl/apps/miniamr.hpp"
#include "yhccl/coll/trace.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::cached_team;

namespace {

TEST(Trace, RecordsSequenceInOrderWithDurations) {
  const int p = 4;
  auto& team = cached_team(p, 2);
  std::vector<CollTrace> traces(p);
  const std::size_t n = 4000;
  std::vector<std::vector<double>> send(p, std::vector<double>(n, 1)),
      recv(p, std::vector<double>(n * p));
  team.run([&](rt::RankCtx& ctx) {
    auto& tr = traces[ctx.rank()];
    collective(tr, ctx, CollKind::allreduce,
               {send[ctx.rank()].data(), recv[ctx.rank()].data(), n,
                Datatype::f64, ReduceOp::sum});
    collective(tr, ctx, CollKind::broadcast,
               {recv[ctx.rank()].data(), recv[ctx.rank()].data(), n / 2,
                Datatype::f64, ReduceOp::sum, 1});
    collective(tr, ctx, CollKind::allgather,
               {send[ctx.rank()].data(), recv[ctx.rank()].data(), n / 4,
                Datatype::f64});
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(traces[r].size(), 3u);
    EXPECT_EQ(traces[r].events()[0].kind, CollKind::allreduce);
    EXPECT_EQ(traces[r].events()[0].count, n);
    EXPECT_EQ(traces[r].events()[1].kind, CollKind::broadcast);
    EXPECT_EQ(traces[r].events()[1].root, 1);
    EXPECT_EQ(traces[r].events()[2].kind, CollKind::allgather);
    EXPECT_GT(traces[r].recorded_seconds(), 0.0);
    // All ranks record the same logical sequence.
    EXPECT_EQ(traces[r].events()[0], traces[0].events()[0]);
  }
}

TEST(Trace, CsvRoundTripPreservesEverything) {
  CollTrace t;
  t.record({CollKind::allreduce, 123456, Datatype::f32, ReduceOp::sum, 0,
            0.0123});
  t.record({CollKind::reduce, 77, Datatype::i64, ReduceOp::max, 3, 0.5});
  t.record({CollKind::broadcast, 1, Datatype::u8, ReduceOp::sum, 2, 1e-7});
  const auto csv = t.to_csv();
  const auto back = CollTrace::from_csv(csv);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.events()[i], t.events()[i]) << i;
    EXPECT_NEAR(back.events()[i].seconds, t.events()[i].seconds, 1e-9);
  }
}

TEST(Trace, FromCsvRejectsGarbage) {
  EXPECT_THROW(CollTrace::from_csv("kind,count,dtype,op,root,seconds\n"
                                   "warpdrive,1,f64,sum,0,0.1\n"),
               Error);
}

/// Expect from_csv to raise and name the offending line in its message.
void expect_csv_error(const std::string& csv, const std::string& needle) {
  try {
    CollTrace::from_csv(csv);
    ADD_FAILURE() << "accepted: " << csv;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

TEST(Trace, FromCsvRejectsMalformedInputWithLineNumbers) {
  const std::string hdr = "kind,count,dtype,op,root,seconds\n";
  expect_csv_error("", "missing header");
  expect_csv_error("bogus,header\n", "line 1");
  expect_csv_error(hdr + "allreduce,1,f64,sum,0\n", "expected 6 fields");
  expect_csv_error(hdr + "allreduce,1,f64,sum,0,0.1,extra\n", "got 7");
  expect_csv_error(hdr + "warpdrive,1,f64,sum,0,0.1\n",
                   "unknown collective kind");
  expect_csv_error(hdr + "allreduce,1,f128,sum,0,0.1\n", "unknown dtype");
  expect_csv_error(hdr + "allreduce,1,f64,xor,0,0.1\n", "unknown op");
  expect_csv_error(hdr + "allreduce,12x,f64,sum,0,0.1\n", "bad count");
  expect_csv_error(hdr + "allreduce,-3,f64,sum,0,0.1\n", "bad count");
  expect_csv_error(hdr + "allreduce,1,f64,sum,-1,0.1\n", "out of range");
  expect_csv_error(hdr + "allreduce,1,f64,sum,100000,0.1\n", "out of range");
  expect_csv_error(hdr + "allreduce,1,f64,sum,0,fast\n", "bad seconds");
  expect_csv_error(hdr + "allreduce,1,f64,sum,0,-0.5\n", "negative");
  // The line number counts from the top of the file, header included.
  expect_csv_error(hdr + "allreduce,1,f64,sum,0,0.1\n"
                         "reduce,zz,f64,sum,0,0.1\n",
                   "line 3");
}

TEST(Trace, FromCsvToleratesCrlfAndBlankLines) {
  const auto t = CollTrace::from_csv(
      "kind,count,dtype,op,root,seconds\r\n"
      "allreduce,42,f32,sum,0,0.25\r\n"
      "\r\n"
      "reduce,7,i64,max,3,0.5\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.events()[0].kind, CollKind::allreduce);
  EXPECT_EQ(t.events()[0].count, 42u);
  EXPECT_EQ(t.events()[1].root, 3);
}

TEST(Trace, ReplayExecutesEveryEventUnderAnyArm) {
  const int p = 4;
  auto& team = cached_team(p, 2);
  CollTrace t;
  t.record({CollKind::allreduce, 30000, Datatype::f64, ReduceOp::sum, 0, 0});
  t.record({CollKind::reduce_scatter, 2000, Datatype::f32, ReduceOp::sum, 0,
            0});
  t.record({CollKind::broadcast, 10000, Datatype::i32, ReduceOp::sum, 2, 0});
  t.record({CollKind::allgather, 5000, Datatype::f64, ReduceOp::sum, 0, 0});
  for (auto alg : {Algorithm::automatic, Algorithm::ma_flat,
                   Algorithm::dpml_two_level}) {
    CollOpts o;
    o.algorithm = alg;
    std::vector<ReplayResult> res(p);
    team.run([&](rt::RankCtx& ctx) {
      res[ctx.rank()] = replay(ctx, t, o);
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(res[r].events, 4u);
      EXPECT_GT(res[r].seconds, 0.0);
      EXPECT_EQ(res[r].payload_bytes,
                30000u * 8 + 2000u * 4 + 10000u * 4 + 5000u * 8);
    }
  }
}

TEST(Trace, MiniAmrKernelExtractionWorkflow) {
  // Record the proxy app's collective mix, then replay it standalone —
  // the §5.6 methodology as a library feature.
  const int p = 4;
  auto& team = cached_team(p, 2);
  apps::miniamr::Config cfg;
  cfg.tsteps = 3;
  cfg.refine_metric_len = 8192;
  std::vector<CollTrace> traces(p);
  team.run([&](rt::RankCtx& ctx) {
    auto& tr = traces[ctx.rank()];
    apps::miniamr::run_rank(
        ctx, cfg,
        [&tr](rt::RankCtx& c, const double* in, double* out, std::size_t n) {
          collective(tr, c, CollKind::allreduce,
                     {in, out, n, Datatype::f64, ReduceOp::sum});
        });
  });
  // 3 steps x small all-reduce + refinement episodes' big all-reduces.
  ASSERT_GE(traces[0].size(), 3u);
  const auto csv = traces[0].to_csv();
  const auto kernel = CollTrace::from_csv(csv);
  std::vector<ReplayResult> res(p);
  team.run(
      [&](rt::RankCtx& ctx) { res[ctx.rank()] = replay(ctx, kernel); });
  EXPECT_EQ(res[0].events, traces[0].size());
}

}  // namespace
