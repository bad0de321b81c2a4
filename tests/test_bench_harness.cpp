// Unit tests for the unified benchmark harness (src/bench): the robust
// statistics kernels, the exact-integer JSON round-trip, the report
// validator/merger, the comparator verdicts, and one tiny end-to-end
// measure_series whose counters must equal the md::impl:: simulator —
// the same gate the CI perf-smoke leg applies.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "yhccl/bench/compare.hpp"
#include "yhccl/bench/harness.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::bench;
namespace md = yhccl::model;
using test::cached_team;
using test::fill_buffer;

namespace {

// ---- statistics -------------------------------------------------------------

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median_of({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
  EXPECT_DOUBLE_EQ(median_of({7}), 7.0);
}

TEST(BenchStats, MadIsRobustToOneOutlier) {
  const std::vector<double> v = {10, 10.1, 9.9, 10.05, 9.95, 1000};
  const double med = median_of(v);
  EXPECT_NEAR(med, 10.025, 1e-9);
  EXPECT_LT(mad_of(v, med), 0.2);  // the outlier cannot inflate the MAD
}

TEST(BenchStats, RejectOutliersDropsInjectedSpikes) {
  // Synthetic distribution: tight cluster + two injected timing spikes
  // (the paper's "some other process stole the core" samples).
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) v.push_back(1.0 + 0.001 * i);
  v.push_back(50.0);
  v.push_back(80.0);
  const auto kept = reject_outliers(v, 5.0);
  EXPECT_EQ(kept.size(), 20u);
  for (double x : kept) EXPECT_LT(x, 2.0);
}

TEST(BenchStats, RejectOutliersNeverDropsMoreThanHalf) {
  // Bimodal run: both modes are data, not noise.
  std::vector<double> v;
  for (int i = 0; i < 10; ++i) v.push_back(1.0);
  for (int i = 0; i < 10; ++i) v.push_back(100.0);
  EXPECT_GE(reject_outliers(v, 5.0).size(), v.size() / 2);
}

TEST(BenchStats, ZeroMadRejectsOnlyExactMismatches) {
  std::vector<double> v(10, 3.0);
  v.push_back(3.5);
  const auto kept = reject_outliers(v, 5.0);
  EXPECT_EQ(kept.size(), 10u);
  for (double x : kept) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(BenchStats, TinySamplesPassThroughUntouched) {
  const std::vector<double> v = {1.0, 100.0, 1.5};
  EXPECT_EQ(reject_outliers(v, 5.0).size(), v.size());
}

TEST(BenchStats, CiRanksWidenWithConfidenceAndClamp) {
  std::size_t lo = 0, hi = 0;
  median_ci_ranks(3, lo, hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);  // tiny n degenerates to the whole sample
  median_ci_ranks(100, lo, hi);
  EXPECT_GT(lo, 35u);
  EXPECT_LT(hi, 65u);
  EXPECT_LT(lo, hi);
}

TEST(BenchStats, SummarizeConvergesTightSample) {
  std::vector<double> v;
  for (int i = 0; i < 30; ++i) v.push_back(1.0 + 1e-4 * (i % 5));
  const auto s = summarize(v);
  EXPECT_EQ(s.reps, 30u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_NEAR(s.median, 1.0002, 1e-3);
  EXPECT_LE(s.ci_low, s.median);
  EXPECT_GE(s.ci_high, s.median);
  EXPECT_LT(s.rel_ci(), 0.01);
  EXPECT_LE(s.min, s.max);
}

TEST(BenchStats, SummarizeCountsRejected) {
  std::vector<double> v(20, 2.0);
  v.push_back(500.0);
  const auto s = summarize(v);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

// ---- JSON -------------------------------------------------------------------

TEST(BenchJson, Int64RoundTripIsExact) {
  // Counter gating is exact equality; 2^53-adjacent values must not be
  // laundered through a double.
  const std::int64_t big = (std::int64_t{1} << 62) + 1;
  Json obj = Json::object();
  obj.set("v", big);
  const Json back = Json::parse(obj.dump());
  ASSERT_TRUE(back.find("v"));
  EXPECT_TRUE(back["v"].is_integer());
  EXPECT_EQ(back["v"].as_int(), big);
}

TEST(BenchJson, RoundTripPreservesTypesAndKeyOrder) {
  Json obj = Json::object();
  obj.set("z_first", 1);
  obj.set("a_second", "text with \"quotes\" and \n control");
  obj.set("m_third", 0.5);
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(nullptr);
  arr.push_back(-7);
  obj.set("arr", arr);
  std::string err;
  const Json back = Json::parse(obj.dump(2), &err);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(back.members().size(), 4u);
  EXPECT_EQ(back.members()[0].first, "z_first");  // insertion order kept
  EXPECT_EQ(back.members()[1].first, "a_second");
  EXPECT_EQ(back["a_second"].as_string(), "text with \"quotes\" and \n control");
  EXPECT_DOUBLE_EQ(back["m_third"].as_double(), 0.5);
  ASSERT_EQ(back["arr"].size(), 3u);
  EXPECT_TRUE(back["arr"].at(0).as_bool());
  EXPECT_TRUE(back["arr"].at(1).is_null());
  EXPECT_EQ(back["arr"].at(2).as_int(), -7);
}

TEST(BenchJson, ParseErrorsAreReported) {
  std::string err;
  EXPECT_TRUE(Json::parse("{\"a\": }", &err).is_null());
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_TRUE(Json::parse("[1, 2] trailing", &err).is_null());
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_TRUE(Json::parse("", &err).is_null());
  EXPECT_FALSE(err.empty());
}

TEST(BenchJson, MissingKeyLookupsAreSafe) {
  const Json obj = Json::object();
  EXPECT_EQ(obj.find("nope"), nullptr);
  EXPECT_TRUE(obj["nope"].is_null());
}

// ---- Series / report round-trip ---------------------------------------------

Series sample_series(const std::string& algo, double median,
                     std::uint64_t loads) {
  Series s;
  s.bench = "unit";
  s.collective = "allreduce";
  s.algorithm = algo;
  s.ranks = 4;
  s.sockets = 2;
  s.bytes = 1 << 20;
  s.time.reps = 9;
  s.time.median = median;
  s.time.mean = median;
  s.time.min = median * 0.98;
  s.time.max = median * 1.02;
  s.time.ci_low = median * 0.99;
  s.time.ci_high = median * 1.01;
  s.dab = 1e9;
  s.counters.dav.loads = loads;
  s.counters.dav.stores = loads / 2;
  s.counters.kernels.calls[1] = 12;
  s.counters.sync.barriers = 8;
  s.isa = "avx2";
  return s;
}

Json report_of(const std::vector<Series>& series) {
  Json j = Json::object();
  j.set("schema", kSchemaVersion);
  j.set("name", "unit");
  j.set("machine", MachineInfo::detect().to_json());
  j.set("policy", RunPolicy{}.to_json());
  Json arr = Json::array();
  for (const auto& s : series) arr.push_back(s.to_json());
  j.set("series", arr);
  return j;
}

TEST(BenchReport, SeriesRoundTrip) {
  const Series s = sample_series("ma", 1e-3, 123456789);
  const Series back = Series::from_json(Json::parse(s.to_json().dump()));
  EXPECT_EQ(back.key(), s.key());
  EXPECT_EQ(back.ranks, 4);
  EXPECT_EQ(back.sockets, 2);
  EXPECT_EQ(back.bytes, std::size_t{1} << 20);
  EXPECT_DOUBLE_EQ(back.time.median, 1e-3);
  EXPECT_TRUE(back.counters == s.counters);
  EXPECT_EQ(back.isa, "avx2");
}

TEST(BenchReport, ValidatorAcceptsGoodRejectsBad) {
  std::vector<std::string> errors;
  EXPECT_TRUE(validate_report(report_of({sample_series("ma", 1e-3, 100)}),
                              errors))
      << (errors.empty() ? "" : errors.front());

  // Wrong schema string.
  Json bad = report_of({});
  bad.set("schema", "yhccl-bench/999");
  errors.clear();
  EXPECT_FALSE(validate_report(bad, errors));
  EXPECT_FALSE(errors.empty());

  // Negative counter: deterministic counts are unsigned by construction.
  Series neg = sample_series("ma", 1e-3, 100);
  Json jneg = report_of({neg});
  errors.clear();
  Json series_arr = Json::array();
  Json one = neg.to_json();
  Json counters = *one.find("counters");
  counters.set("dav_loads", -5);
  one.set("counters", counters);
  series_arr.push_back(one);
  jneg.set("series", series_arr);
  EXPECT_FALSE(validate_report(jneg, errors));

  // Duplicate series key.
  errors.clear();
  EXPECT_FALSE(validate_report(report_of({sample_series("ma", 1e-3, 1),
                                          sample_series("ma", 2e-3, 1)}),
                               errors));
}

TEST(BenchTrajectory, ValidatorAcceptsGoodRejectsBad) {
  const auto quartiles = [](double q1, double med, double q3) {
    Json q = Json::object();
    q.set("median", med);
    q.set("q1", q1);
    q.set("q3", q3);
    return q;
  };
  const auto entry = [&](const std::string& side, double q1) {
    Json e = Json::object();
    e.set("commit", std::string(40, 'a'));
    e.set("side", side);
    e.set("change", "single-copy reduce_scatter");
    e.set("method", "perfbench --seed 1 --seconds 10");
    e.set("runs", std::int64_t{9});
    Json w = Json::object();
    w.set("ops_per_s", quartiles(q1, 2.0, 3.0));
    Json res = Json::object();
    res.set("step-process", std::move(w));
    e.set("results", std::move(res));
    return e;
  };
  const auto doc = [&](std::vector<Json> entries) {
    Json d = Json::object();
    d.set("schema", kTrajectorySchema);
    d.set("benchmark", "perfbench");
    Json wl = Json::array();
    wl.push_back("step-process");
    d.set("workloads", std::move(wl));
    Json m = Json::object();
    m.set("name", "ops_per_s");
    m.set("unit", "1/s");
    m.set("better", "higher");
    Json ms = Json::array();
    ms.push_back(std::move(m));
    d.set("metrics", std::move(ms));
    Json arr = Json::array();
    for (auto& e : entries) arr.push_back(std::move(e));
    d.set("entries", std::move(arr));
    return d;
  };
  std::vector<std::string> errors;
  EXPECT_TRUE(validate_trajectory(
      doc({entry("parent", 1.0), entry("change", 1.0)}), errors))
      << (errors.empty() ? "" : errors.front());
  errors.clear();
  EXPECT_FALSE(validate_trajectory(
      doc({entry("parent", 1.0), entry("parent", 1.0)}), errors))
      << "duplicate (commit, side)";
  errors.clear();
  EXPECT_FALSE(validate_trajectory(doc({entry("change", 1.0)}), errors))
      << "change before its parent";
  errors.clear();
  EXPECT_FALSE(validate_trajectory(doc({entry("parent", 2.5)}), errors))
      << "q1 above the median";
  errors.clear();
  Json bad = entry("parent", 1.0);
  Json res = Json::object();
  res.set("step-process", Json::object());
  bad.set("results", std::move(res));
  EXPECT_FALSE(validate_trajectory(doc({std::move(bad)}), errors))
      << "missing metric";
}

TEST(BenchReport, MergeConcatenatesAndFlagsDuplicates) {
  std::string err;
  const Json merged =
      merge_reports({report_of({sample_series("a", 1e-3, 1)}),
                     report_of({sample_series("b", 2e-3, 2)})},
                    "merged", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ((*merged.find("series")).size(), 2u);
  EXPECT_EQ(merged["name"].as_string(), "merged");

  const Json dup =
      merge_reports({report_of({sample_series("a", 1e-3, 1)}),
                     report_of({sample_series("a", 9e-3, 9)})},
                    "dup", &err);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ((*dup.find("series")).size(), 1u);  // first wins, dup dropped
}

// ---- comparator verdicts -----------------------------------------------------

TEST(BenchCompare, VerdictFixtures) {
  const Series base = sample_series("ma", 1.0e-3, 100);

  // Overlapping CIs -> unchanged.
  Series same = base;
  same.time.median = 1.005e-3;
  same.time.ci_low = 0.995e-3;
  same.time.ci_high = 1.015e-3;
  // Candidate CI entirely below baseline CI -> improved.
  Series faster = base;
  faster.algorithm = "fast";
  faster.time.median = 0.5e-3;
  faster.time.ci_low = 0.49e-3;
  faster.time.ci_high = 0.51e-3;
  // Candidate CI entirely above -> regressed.
  Series slower = base;
  slower.algorithm = "slow";
  slower.time.median = 2.0e-3;
  slower.time.ci_low = 1.98e-3;
  slower.time.ci_high = 2.02e-3;
  // Identical timing but a counter moved -> counter_mismatch.
  Series drift = base;
  drift.algorithm = "drift";
  drift.counters.dav.loads += 1;

  Series fast_base = faster;
  fast_base.time = base.time;
  Series slow_base = slower;
  slow_base.time = base.time;
  Series drift_base = drift;
  drift_base.counters = base.counters;
  Series removed = base;
  removed.algorithm = "removed";
  Series added = base;
  added.algorithm = "added";

  const Json b = report_of({base, fast_base, slow_base, drift_base, removed});
  const Json c = report_of({same, faster, slower, drift, added});
  const CompareResult r = compare_reports(b, c);
  EXPECT_EQ(r.unchanged, 1);
  EXPECT_EQ(r.improved, 1);
  EXPECT_EQ(r.regressed, 1);
  EXPECT_EQ(r.counter_mismatches, 1);
  EXPECT_EQ(r.added, 1);
  EXPECT_EQ(r.removed, 1);
  EXPECT_FALSE(r.clean());
  const std::string rep = r.report(/*verbose=*/true);
  EXPECT_NE(rep.find("counter-mismatch"), std::string::npos);
  EXPECT_NE(rep.find("dav_loads"), std::string::npos);

  // Self-diff is clean and all-unchanged.
  const CompareResult self = compare_reports(b, b);
  EXPECT_TRUE(self.clean());
  EXPECT_EQ(self.unchanged, static_cast<int>(b["series"].size()));
  EXPECT_EQ(self.improved + self.regressed + self.counter_mismatches +
                self.added + self.removed,
            0);
}

TEST(BenchCompare, CounterMismatchBeatsTimingVerdict) {
  // Even a clear timing *improvement* is a hard failure when counters
  // drift: the candidate did different work, not the same work faster.
  Series base = sample_series("ma", 1.0e-3, 100);
  Series cand = base;
  cand.time.median = 0.1e-3;
  cand.time.ci_low = 0.09e-3;
  cand.time.ci_high = 0.11e-3;
  cand.counters.sync.flag_waits = 77;
  const CompareResult r = compare_reports(report_of({base}), report_of({cand}));
  EXPECT_EQ(r.counter_mismatches, 1);
  EXPECT_EQ(r.improved, 0);
  EXPECT_FALSE(r.clean());
}

// ---- end-to-end perf smoke ---------------------------------------------------

md::impl::OpCounts expected_ma_allreduce(std::size_t bytes, int p, int m,
                                         const coll::CollOpts& o,
                                         std::size_t scratch) {
  md::impl::OpGeometry g;
  g.p = p;
  g.m = m;
  g.slice_max = o.slice_max;
  g.slice_min = o.slice_min;
  g.dpml_chunk = o.dpml_chunk;
  g.scratch_bytes = scratch;
  return md::impl::ma_allreduce_ops(bytes, g);
}

RankFn ma_allreduce_fn(coll::CollOpts o, std::size_t count) {
  o.algorithm = coll::Algorithm::ma_flat;
  return [o, count](rt::RankCtx& ctx) {
    std::vector<double> send(count), recv(count);
    fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                ReduceOp::sum);
    coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum, o);
  };
}

TEST(BenchHarnessE2E, MeasureSeriesGatesOnModelCountersThreadTeam) {
  const int p = 4, m = 2;
  const std::size_t count = 6000, scratch = 24u << 20;
  auto& team = cached_team(p, m, scratch);
  coll::CollOpts o;
  o.slice_max = 4u << 10;

  RunPolicy policy;
  policy.warmup = 1;
  policy.min_reps = 3;
  policy.max_reps = 5;
  policy.budget_s = 0.2;

  Series meta;
  meta.bench = "smoke";
  meta.collective = "allreduce";
  meta.algorithm = "flat-MA";
  meta.bytes = count * 8;
  const Series s =
      measure_series(team, std::move(meta), ma_allreduce_fn(o, count), policy);

  EXPECT_GE(s.time.reps, 3u);
  EXPECT_GT(s.time.median, 0.0);
  EXPECT_GT(s.dab, 0.0);
  EXPECT_EQ(s.ranks, p);
  EXPECT_EQ(s.sockets, m);
  EXPECT_FALSE(s.isa.empty());

  const auto want = expected_ma_allreduce(count * 8, p, m, o, scratch);
  EXPECT_EQ(s.counters.dav.loads, want.loads);
  EXPECT_EQ(s.counters.dav.stores, want.stores);
  EXPECT_EQ(s.counters.kernels.total(), want.kernel_calls);
  EXPECT_EQ(s.counters.sync.barriers, want.barriers);
  EXPECT_EQ(s.counters.sync.flag_posts, want.flag_posts);
  EXPECT_EQ(s.counters.sync.flag_waits, want.flag_waits);

  // The series embeds into a valid self-diffable report.
  const Json rep = report_of({s});
  std::vector<std::string> errors;
  EXPECT_TRUE(validate_report(rep, errors))
      << (errors.empty() ? "" : errors.front());
  EXPECT_TRUE(compare_reports(rep, rep).clean());
}

TEST(BenchHarnessE2E, MeasureCountersMatchesModelProcessTeam) {
  const int p = 3, m = 2;  // ragged socket split on the fork() backend
  const std::size_t count = 5000, scratch = 24u << 20;
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = scratch;
  cfg.shared_heap_bytes = 4u << 20;
  rt::ProcessTeam team(cfg);
  coll::CollOpts o;
  o.slice_max = 4u << 10;

  const Counters c = measure_counters(team, ma_allreduce_fn(o, count));
  const auto want = expected_ma_allreduce(count * 8, p, m, o, scratch);
  EXPECT_EQ(c.dav.loads, want.loads);
  EXPECT_EQ(c.dav.stores, want.stores);
  EXPECT_EQ(c.kernels.total(), want.kernel_calls);
  EXPECT_EQ(c.sync.barriers, want.barriers);
  EXPECT_EQ(c.sync.flag_posts, want.flag_posts);
  EXPECT_EQ(c.sync.flag_waits, want.flag_waits);
}

}  // namespace
