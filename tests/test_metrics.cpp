// Tests for the always-on metrics registry (src/metrics): log2 bucket
// edges, buffer/hook semantics, thread-vs-fork snapshot parity, the
// off-mode zero-overhead guarantee (counter exactness + allocation
// parity), exporter schema round-trips and validators, the MAD straggler
// detector against an injected stall@barrier schedule, serve-mode sampler
// files + shm mirror, and the trace-dir mkdir fix that rides along.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/bench/harness.hpp"
#include "yhccl/coll/arm_table.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/export.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/shm_region.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "yhccl/trace/export.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::fill_buffer;

// ---- allocation counter (the zero-overhead assertion) -----------------------

static std::atomic<std::uint64_t> g_allocs{0};

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
// GCC flags free() on a replaced operator new's result; ours is malloc-backed.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace ym = yhccl::metrics;

enum class Backend { threads, procs };

std::unique_ptr<rt::Team> make_team(Backend b, int p, int m, ym::Mode mode,
                                    trace::Mode tmode = trace::Mode::off) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = 8u << 20;
  cfg.metrics = mode;
  cfg.trace = tmode;
  cfg.sync_timeout = 20.0;
  if (b == Backend::procs) return std::make_unique<rt::ProcessTeam>(cfg);
  return std::make_unique<rt::ThreadTeam>(cfg);
}

/// Deterministic mixed schedule (one call per collective kind), with an
/// allreduce of `ar_count` doubles.
void schedule(rt::RankCtx& ctx, std::size_t ar_count) {
  const std::size_t n = 2048;
  std::vector<double> send(n), recv(n * static_cast<std::size_t>(4));
  fill_buffer(send.data(), n, Datatype::f64, ctx.rank(), ReduceOp::sum);
  allreduce(ctx, send.data(), recv.data(), ar_count, Datatype::f64,
            ReduceOp::sum);
  reduce_scatter(ctx, send.data(), recv.data(),
                 n / static_cast<std::size_t>(ctx.nranks()), Datatype::f64,
                 ReduceOp::sum);
  reduce(ctx, send.data(), recv.data(), n, Datatype::f64, ReduceOp::sum, 0);
  broadcast(ctx, recv.data(), n, Datatype::f64, 0);
  allgather(ctx, send.data(), recv.data(), n / 4, Datatype::f64);
}

void run_schedule(rt::RankCtx& ctx) { schedule(ctx, 2048); }

struct ScopedEnv {
  ScopedEnv(const char* k, const char* v) : key(k) {
    const char* old = std::getenv(k);
    had = old != nullptr;
    if (had) saved = old;
    if (v != nullptr)
      ::setenv(k, v, 1);
    else
      ::unsetenv(k);
  }
  ~ScopedEnv() {
    if (had)
      ::setenv(key.c_str(), saved.c_str(), 1);
    else
      ::unsetenv(key.c_str());
  }
  std::string key, saved;
  bool had = false;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> dir_entries(const std::string& dir,
                                     const std::string& suffix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      out.push_back(dir + "/" + name);
  }
  ::closedir(d);
  return out;
}

std::string fresh_tmpdir(const char* tag) {
  std::string dir = "/tmp/yhccl_metrics_test_" + std::string(tag) + "_" +
                    std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

// ---- bucket edges -----------------------------------------------------------

TEST(MetricsBuckets, Log2EdgesZeroAndMax) {
  // Bucket 0 holds exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b).
  EXPECT_EQ(ym::log2_bucket(0, ym::kLatBuckets), 0);
  EXPECT_EQ(ym::log2_bucket(1, ym::kLatBuckets), 1);
  for (int k = 1; k <= 40; ++k) {
    const std::uint64_t pow2 = 1ull << k;
    const int cap = ym::kSizeBuckets;
    const int at = ym::log2_bucket(pow2, cap);
    const int below = ym::log2_bucket(pow2 - 1, cap);
    EXPECT_EQ(at, std::min(k + 1, cap - 1)) << "2^" << k;
    EXPECT_EQ(below, std::min(k, cap - 1)) << "2^" << k << " - 1";
  }
  // The last bucket absorbs the whole upper tail, including UINT64_MAX.
  EXPECT_EQ(ym::log2_bucket(~0ull, ym::kLatBuckets), ym::kLatBuckets - 1);
  EXPECT_EQ(ym::log2_bucket(~0ull, ym::kSizeBuckets), ym::kSizeBuckets - 1);

  // bucket_limit is the exclusive upper bound: every value lands strictly
  // below its bucket's limit and at/above the previous one.
  for (int b = 0; b < ym::kLatBuckets - 1; ++b)
    EXPECT_EQ(ym::bucket_limit(b, ym::kLatBuckets), b == 0 ? 1ull : 1ull << b);
  EXPECT_EQ(ym::bucket_limit(ym::kLatBuckets - 1, ym::kLatBuckets), ~0ull);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1023ull, 1024ull, ~0ull}) {
    const int b = ym::log2_bucket(v, ym::kLatBuckets);
    EXPECT_LE(v, ym::bucket_limit(b, ym::kLatBuckets));
    if (v != ~0ull) EXPECT_LT(v, ym::bucket_limit(b, ym::kLatBuckets));
    if (b > 0) EXPECT_GE(v, ym::bucket_limit(b - 1, ym::kLatBuckets));
  }
}

TEST(MetricsBuckets, PlanGaugePackRoundTrips) {
  const std::uint64_t g = ym::plan_gauge_pack(3, 2, 1, 12);
  EXPECT_TRUE(ym::gauge_valid(g));
  EXPECT_EQ(ym::gauge_alg(g), 3);
  EXPECT_EQ(ym::gauge_arm(g), 2);
  EXPECT_EQ(ym::gauge_source(g), 1);
  EXPECT_EQ(ym::gauge_bucket(g), 12);
  EXPECT_FALSE(ym::gauge_valid(0));
}

// ---- buffer + hooks ---------------------------------------------------------

TEST(MetricsBuffer, HooksAccountIntoOwnSlot) {
  const int nranks = 2;
  const std::size_t bytes = ym::MetricsBuffer::required_bytes(nranks);
  void* mem = ::operator new(bytes, std::align_val_t{64});
  auto* buf = ym::MetricsBuffer::create(mem, bytes, nranks, ym::Mode::on);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->nranks(), nranks);
  EXPECT_FALSE(ym::active());
  {
    ym::RunScope rs(buf, 1, /*run_seq=*/7);
    EXPECT_TRUE(ym::active());
    ym::note_flag_post();
    ym::note_flag_post();
    ym::note_flag_wait();
    ym::note_plan(1, ym::plan_gauge_pack(2, 0, 0, 5));
    { ym::BarrierScope bs(/*trace_scope=*/0); }
    { ym::BarrierScope bs(/*trace_scope=*/1); }  // socket: no window entry
  }
  EXPECT_FALSE(ym::active());

  const ym::Snapshot s = ym::Snapshot::capture(*buf);
  EXPECT_EQ(s.nranks, nranks);
  ASSERT_EQ(s.ranks.size(), 2u);
  const ym::RankSnap& r0 = s.ranks[0];
  const ym::RankSnap& r1 = s.ranks[1];
  // Rank 0 never ran: its slot is untouched (single-writer isolation).
  EXPECT_EQ(r0.flag_posts, 0u);
  EXPECT_EQ(r0.barriers, 0u);
  EXPECT_TRUE(r0.cells.empty());
  EXPECT_TRUE(r1.cells.empty());  // cells land from coll::collective only
  EXPECT_EQ(r1.flag_posts, 2u);
  EXPECT_EQ(r1.flag_waits, 1u);
  EXPECT_EQ(r1.barriers, 2u);
  EXPECT_TRUE(ym::gauge_valid(r1.plan_gauge[1]));
  EXPECT_EQ(ym::gauge_alg(r1.plan_gauge[1]), 2);
  // Only the node barrier lands in the straggler window; the ordinal mixes
  // the run ordinal with the per-run count.
  ASSERT_EQ(r1.window.size(), 1u);
  EXPECT_EQ(r1.window[0].ordinal, (7ull << 24) | 1u);
  EXPECT_GE(r1.window[0].depart, r1.window[0].arrive);
  EXPECT_GT(buf->ticks_per_second(), 0.0);
  ::operator delete(mem, std::align_val_t{64});
}

TEST(MetricsEnv, ModeAndIntervalParsing) {
  {
    ScopedEnv e("YHCCL_METRICS", nullptr);
    EXPECT_EQ(ym::mode_from_env(), ym::Mode::off);
  }
  {
    ScopedEnv e("YHCCL_METRICS", "on");
    EXPECT_EQ(ym::mode_from_env(), ym::Mode::on);
  }
  {
    ScopedEnv e("YHCCL_METRICS", "serve");
    EXPECT_EQ(ym::mode_from_env(), ym::Mode::serve);
  }
  {
    ScopedEnv e("YHCCL_METRICS", "bogus");
    EXPECT_THROW(ym::mode_from_env(), Error);
  }
  {
    ScopedEnv e("YHCCL_METRICS_INTERVAL_MS", nullptr);
    EXPECT_EQ(ym::interval_ms_from_env(), 1000);
  }
  {
    ScopedEnv e("YHCCL_METRICS_INTERVAL_MS", "5");
    EXPECT_EQ(ym::interval_ms_from_env(), 10);  // clamped
  }
  {
    ScopedEnv e("YHCCL_METRICS_INTERVAL_MS", "abc");
    EXPECT_THROW(ym::interval_ms_from_env(), Error);
  }
}

// ---- off-mode zero overhead -------------------------------------------------

TEST(MetricsOffMode, NoSectionExactCountersNoExtraAllocations) {
  auto off = make_team(Backend::threads, 4, 2, ym::Mode::off);
  auto on = make_team(Backend::threads, 4, 2, ym::Mode::on);
  EXPECT_EQ(off->metrics_buffer(), nullptr);
  EXPECT_EQ(off->metrics_mode(), ym::Mode::off);
  ASSERT_NE(on->metrics_buffer(), nullptr);
  EXPECT_EQ(on->metrics_mode(), ym::Mode::on);

  // Metering must not perturb the deterministic counter model: the same
  // schedule produces byte-for-byte identical DAV/kernel/sync counts.
  const auto c_off = bench::measure_counters(*off, run_schedule);
  const auto c_on = bench::measure_counters(*on, run_schedule);
  EXPECT_EQ(c_off, c_on);
  EXPECT_GT(c_off.dav.total(), 0u);

  // Zero-allocation warm path: metering a run allocates exactly as much as
  // not metering it (the hooks are relaxed stores into the shared mapping).
  const auto run_allocs = [](rt::Team& team) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    team.run(run_schedule);
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  run_allocs(*off);  // warm both teams once (lazy statics)
  run_allocs(*on);
  EXPECT_EQ(run_allocs(*off), run_allocs(*on));
}

// ---- thread vs fork parity --------------------------------------------------

TEST(MetricsParity, ThreadAndProcessBackendsAgree) {
  auto tt = make_team(Backend::threads, 4, 2, ym::Mode::on);
  auto pt = make_team(Backend::procs, 4, 2, ym::Mode::on);
  // Above the fold cut the thread team serves the single-copy direct arm,
  // which forked ranks cannot run.  So the schedule's allreduce runs at
  // the cut, where both backends' priors serve fold.
  EXPECT_EQ(plan::query(*tt, CollKind::allreduce, 2048 * sizeof(double),
                        Datatype::f64, ReduceOp::sum)
                .algorithm,
            Algorithm::direct);
  const std::size_t ar_bytes = fold_max_bytes(4);
  for (const rt::Team* team : {tt.get(), pt.get()})
    EXPECT_EQ(plan::query(*team, CollKind::allreduce, ar_bytes,
                          Datatype::f64, ReduceOp::sum)
                  .algorithm,
              Algorithm::fold);
  const auto parity_schedule = [ar_bytes](rt::RankCtx& ctx) {
    schedule(ctx, ar_bytes / sizeof(double));
  };
  tt->run(parity_schedule);
  pt->run(parity_schedule);
  ASSERT_NE(tt->metrics_buffer(), nullptr);
  ASSERT_NE(pt->metrics_buffer(), nullptr);
  const ym::Snapshot a = ym::Snapshot::capture(*tt->metrics_buffer());
  const ym::Snapshot b = ym::Snapshot::capture(*pt->metrics_buffer());
  EXPECT_EQ(a.team.runs, 1u);
  EXPECT_EQ(b.team.runs, 1u);
  EXPECT_EQ(a.team.active_ranks, 4u);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const ym::RankSnap& x = a.ranks[r];
    const ym::RankSnap& y = b.ranks[r];
    // Counter-deterministic fields: identical across backends (children's
    // slot writes survive in the shared mapping; dav folds from the
    // parent-side mailboxes either way).  Ticks/windows are timing.
    EXPECT_EQ(x.barriers, y.barriers) << "rank " << r;
    EXPECT_EQ(x.flag_posts, y.flag_posts) << "rank " << r;
    EXPECT_EQ(x.flag_waits, y.flag_waits) << "rank " << r;
    EXPECT_EQ(x.runs, 1u);
    EXPECT_EQ(y.runs, 1u);
    EXPECT_EQ(x.dav_loads, y.dav_loads) << "rank " << r;
    EXPECT_EQ(x.dav_stores, y.dav_stores) << "rank " << r;
    ASSERT_EQ(x.cells.size(), y.cells.size()) << "rank " << r;
    EXPECT_GT(x.barriers, 0u);
    EXPECT_FALSE(x.cells.empty());
    for (std::size_t c = 0; c < x.cells.size(); ++c) {
      EXPECT_EQ(x.cells[c].coll, y.cells[c].coll);
      EXPECT_EQ(x.cells[c].alg, y.cells[c].alg);
      EXPECT_EQ(x.cells[c].size_bucket, y.cells[c].size_bucket);
      EXPECT_EQ(x.cells[c].calls, y.cells[c].calls);
      EXPECT_EQ(x.cells[c].bytes, y.cells[c].bytes);
    }
    // Each schedule entry landed one sample; hist mass equals calls.
    std::uint64_t calls = 0, hist = 0;
    for (const auto& cell : x.cells) {
      calls += cell.calls;
      for (std::uint64_t h : cell.hist) hist += h;
    }
    EXPECT_EQ(calls, 5u) << "rank " << r;
    EXPECT_EQ(hist, calls) << "rank " << r;
    // The default prior tuner served every kind: the gauges are populated.
    EXPECT_TRUE(ym::gauge_valid(x.plan_gauge[1])) << "rank " << r;
  }
}

// ---- exporters and validators -----------------------------------------------

TEST(MetricsExport, JsonRoundTripAndValidators) {
  auto team = make_team(Backend::threads, 4, 2, ym::Mode::on);
  team->run(run_schedule);
  const ym::Snapshot s = ym::Snapshot::capture(*team->metrics_buffer());

  std::string err;
  const bench::Json j = s.to_json();
  EXPECT_TRUE(ym::validate_metrics_json(j, &err)) << err;
  EXPECT_EQ(j["schema"].as_string(), ym::kMetricsSchema);

  // from_json(to_json(s)) is the identity on the document.
  const ym::Snapshot back = ym::Snapshot::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());

  const std::string prom = s.prometheus();
  EXPECT_TRUE(ym::validate_prometheus(prom, &err)) << err;
  EXPECT_NE(prom.find("yhccl_coll_latency_seconds_bucket"), std::string::npos);
  EXPECT_NE(prom.find("yhccl_sync_barriers_total"), std::string::npos);

  // Garbage never validates.
  EXPECT_FALSE(ym::validate_metrics_json(bench::Json::object(), &err));
  std::string wrong_tag = j.dump();
  const std::size_t tag_at = wrong_tag.find(ym::kMetricsSchema);
  ASSERT_NE(tag_at, std::string::npos);
  wrong_tag.replace(tag_at, std::strlen(ym::kMetricsSchema),
                    "yhccl-metrics/9");
  EXPECT_FALSE(
      ym::validate_metrics_json(bench::Json::parse(wrong_tag), &err));
  EXPECT_FALSE(ym::validate_prometheus("yhccl_undeclared 1\n", &err));
  EXPECT_FALSE(
      ym::validate_prometheus("# TYPE x counter\nx nope\n", &err));
  EXPECT_FALSE(ym::validate_prometheus("# TYPE x teapot\n", &err));

  // Merge: counters double, gauges stay (max), result still validates.
  ym::Snapshot merged = s;
  merged.merge(s);
  EXPECT_EQ(merged.team.runs, 2 * s.team.runs);
  EXPECT_EQ(merged.team.epoch, s.team.epoch);
  EXPECT_EQ(merged.ranks[0].barriers, 2 * s.ranks[0].barriers);
  EXPECT_TRUE(ym::validate_metrics_json(merged.to_json(), &err)) << err;

  // The renderer produces a non-trivial frame for a live snapshot.
  const std::string frame = ym::render_top(s, nullptr, /*color=*/false);
  EXPECT_NE(frame.find("rank"), std::string::npos);
  EXPECT_NE(frame.find("allreduce"), std::string::npos);
}

TEST(MetricsExport, MirrorSeqlockRoundTrips) {
  std::vector<unsigned char> seg(1 << 16, 0);
  const std::string payload = "{\"hello\": 1}";
  EXPECT_TRUE(ym::mirror_publish(seg.data(), seg.size(), payload));
  std::string out;
  EXPECT_TRUE(ym::mirror_read(seg.data(), seg.size(), out));
  EXPECT_EQ(out, payload);
  // Oversized payloads are refused, the previous content stays readable.
  const std::string huge(seg.size(), 'x');
  EXPECT_FALSE(ym::mirror_publish(seg.data(), seg.size(), huge));
  EXPECT_TRUE(ym::mirror_read(seg.data(), seg.size(), out));
  EXPECT_EQ(out, payload);
}

// One generic call is one sample in its own rank's (collective, algorithm,
// size bucket) cell: cell identity and hist/calls consistency.
TEST(MetricsCells, GenericCallLandsOneSampleInItsCell) {
  auto team = make_team(Backend::threads, 2, 1, ym::Mode::on);
  team->run([&](rt::RankCtx& ctx) {
    std::vector<double> in(512, 1.0), out(512);  // 4096 bytes
    allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
              ReduceOp::sum, {.algorithm = Algorithm::ma_flat});
  });
  const ym::Snapshot s = ym::Snapshot::capture(*team->metrics_buffer());
  ASSERT_EQ(s.ranks.size(), 2u);
  for (const ym::RankSnap& r : s.ranks) {
    ASSERT_EQ(r.cells.size(), 1u) << "rank " << r.rank;
    EXPECT_EQ(r.cells[0].coll, 1);
    EXPECT_EQ(r.cells[0].alg, 2);
    EXPECT_EQ(r.cells[0].size_bucket, ym::size_bucket(4096));
    EXPECT_EQ(r.cells[0].calls, 1u);
    EXPECT_EQ(r.cells[0].bytes, 4096u);
    std::uint64_t hist_sum = 0;
    for (std::uint64_t h : r.cells[0].hist) hist_sum += h;
    EXPECT_EQ(hist_sum, r.cells[0].calls);
  }
}

// 1 + Algorithm::fold must fit kAlgSlots: a clamped id would merge fold's
// calls into pipelined's cell, and the JSON validator must know its name.
TEST(MetricsCells, FoldAllreduceGetsItsOwnAlgorithmCell) {
  const int fold_id = 1 + static_cast<int>(Algorithm::fold);
  EXPECT_STREQ(ym::alg_slot_name(fold_id), "fold");
  auto team = make_team(Backend::threads, 4, 2, ym::Mode::on);
  CollOpts fold;
  fold.algorithm = Algorithm::fold;
  team->run([&](rt::RankCtx& ctx) {
    double in = 1, out = 0;
    allreduce(ctx, &in, &out, 1, Datatype::f64, ReduceOp::sum, fold);
    broadcast(ctx, &out, 1, Datatype::f64, 0);
  });
  const ym::Snapshot s = ym::Snapshot::capture(*team->metrics_buffer());
  for (const auto& r : s.ranks) {
    ASSERT_EQ(r.cells.size(), 2u) << "rank " << r.rank;
    for (const auto& c : r.cells)
      EXPECT_EQ(c.alg, c.coll == 1 ? fold_id
                                   : 1 + static_cast<int>(Algorithm::pipelined))
          << "rank " << r.rank << " coll " << c.coll;
  }
  std::string err;
  EXPECT_TRUE(ym::validate_metrics_json(s.to_json(), &err)) << err;
  EXPECT_EQ(ym::Snapshot::from_json(s.to_json()).to_json().dump(),
            s.to_json().dump());
}

// Likewise 1 + Algorithm::direct, the last slot: an automatic allreduce
// above the fold cut on a thread team lands in direct's own cell.
TEST(MetricsCells, DirectAllreduceGetsItsOwnAlgorithmCell) {
  const int direct_id = 1 + static_cast<int>(Algorithm::direct);
  EXPECT_EQ(direct_id, ym::kAlgSlots - 1);
  EXPECT_STREQ(ym::alg_slot_name(direct_id), "direct");
  auto team = make_team(Backend::threads, 4, 2, ym::Mode::on);
  team->run([&](rt::RankCtx& ctx) {
    std::vector<double> in(4096, 1.0), out(4096);
    allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
              ReduceOp::sum);
  });
  const ym::Snapshot s = ym::Snapshot::capture(*team->metrics_buffer());
  for (const auto& r : s.ranks) {
    ASSERT_EQ(r.cells.size(), 1u) << "rank " << r.rank;
    EXPECT_EQ(r.cells[0].alg, direct_id) << "rank " << r.rank;
  }
  std::string err;
  EXPECT_TRUE(ym::validate_metrics_json(s.to_json(), &err)) << err;
}

// ---- one record per call ----------------------------------------------------

/// (collective id, algorithm id, size bucket) -> (calls, bytes).
using CallTally =
    std::map<std::tuple<int, int, int>, std::pair<std::uint64_t,
                                                  std::uint64_t>>;

/// Rank r's Phase::coll records, tallied like its metrics cells.
CallTally coll_records(const trace::Harvest& h, int r) {
  CallTally t;
  for (const trace::Rec& rec : h.ring(r)) {
    if ((rec.flags & trace::kFlagMarker) != 0 ||
        rec.phase != static_cast<std::uint8_t>(trace::Phase::coll))
      continue;
    auto& v = t[{rec.coll, 1 + rec.variant, ym::size_bucket(rec.arg)}];
    ++v.first;
    v.second += rec.arg;
  }
  return t;
}

CallTally metric_cells(const ym::RankSnap& r) {
  CallTally t;
  for (const auto& c : r.cells)
    t[{c.coll, c.alg, c.size_bucket}] = {c.calls, c.bytes};
  return t;
}

/// The trace and the metrics of `team` describe the same calls: per rank
/// and per (collective, algorithm, size bucket), as many coll records with
/// as many bytes as the cell's calls and bytes.
void expect_records_match_cells(const rt::Team& team, const char* what) {
  ASSERT_NE(team.trace_buffer(), nullptr);
  ASSERT_NE(team.metrics_buffer(), nullptr);
  const trace::Harvest h(*team.trace_buffer());
  const ym::Snapshot s = ym::Snapshot::capture(*team.metrics_buffer());
  ASSERT_EQ(static_cast<int>(s.ranks.size()), h.nranks()) << what;
  for (int r = 0; r < h.nranks(); ++r) {
    ASSERT_EQ(team.trace_buffer()->first_kept(r), 0u)
        << what << ": ring " << r << " wrapped";
    const CallTally recs = coll_records(h, r);
    EXPECT_FALSE(recs.empty()) << what << " rank " << r;
    EXPECT_EQ(recs, metric_cells(s.ranks[r])) << what << " rank " << r;
  }
}

/// The algorithm labels of rank r's coll records of one collective and
/// size, in call order.
std::vector<int> labels_of(const rt::Team& team, int r, CollKind kind,
                           std::uint64_t bytes) {
  const trace::Harvest h(*team.trace_buffer());
  std::vector<int> out;
  for (const trace::Rec& rec : h.ring(r))
    if ((rec.flags & trace::kFlagMarker) == 0 &&
        rec.phase == static_cast<std::uint8_t>(trace::Phase::coll) &&
        rec.coll == 1 + static_cast<int>(kind) && rec.arg == bytes)
      out.push_back(rec.variant);
  return out;
}

/// Run every arm-table row once, explicitly, over team-heap buffers (the
/// direct rows need shared windows on a forked team), two baselines built
/// on an arm's body, then automatic calls in the fold, direct, DPML and MA
/// regimes.
void run_rows_and_regimes(rt::Team& team) {
  const int p = team.nranks();
  const auto pn = static_cast<std::size_t>(p);
  const std::size_t n = 256;  // 2 KB: inside the fold cut at p = 4
  auto* send = reinterpret_cast<double*>(team.shared_alloc(pn * pn * n * 8));
  auto* recv = reinterpret_cast<double*>(team.shared_alloc(pn * pn * n * 8));
  for (const ArmRow& row : arm_rows()) {
    CollOpts o;
    o.algorithm = row.algorithm;
    team.run([&](rt::RankCtx& ctx) {
      const auto at = static_cast<std::size_t>(ctx.rank()) * pn * n;
      collective(ctx, row.kind,
                 {send + at, recv + at, n, Datatype::f64, ReduceOp::sum, 0},
                 o);
    });
  }
  // DPML runs its row through the generic entry: one record and one
  // sample.  XPMEM runs the direct body alone: neither.
  team.run([&](rt::RankCtx& ctx) {
    const auto at = static_cast<std::size_t>(ctx.rank()) * pn * n;
    base::dpml_allreduce(ctx, send + at, recv + at, n, Datatype::f64,
                         ReduceOp::sum);
    base::xpmem_allreduce(ctx, send + at, recv + at, n, Datatype::f64,
                          ReduceOp::sum);
  });
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> in((512u << 10) / 8, 1.0), out(in.size());
    const auto d = Datatype::f64;
    const auto op = ReduceOp::sum;
    allreduce(ctx, in.data(), out.data(), 32, d, op);      // fold
    allreduce(ctx, in.data(), out.data(), 2048, d, op);    // direct | DPML
    reduce(ctx, in.data(), out.data(), 2048, d, op, 0);    // DPML
    reduce(ctx, in.data(), out.data(), in.size(), d, op, 0);  // MA
    reduce_scatter(ctx, in.data(), out.data(), 2048, d, op);  // DPML
    broadcast(ctx, out.data(), 2048, d, 1);
    allgather(ctx, in.data(), out.data(), 2048, d);
  });
}

// Every call the library runs is one coll record and one metrics sample,
// and the two tools agree on every backend: every arm-table row named
// explicitly, automatic calls across the regimes, socket-MA where the
// socket layout is unusable, and (forked) the served direct allreduce over
// private buffers, which hands the call to the staged arm.  Each fallback
// is one record, labelled with the arm that finished it.
TEST(MetricsCells, EveryCallIsOneTraceRecordAndOneSampleOnBothBackends) {
  for (const Backend b : {Backend::threads, Backend::procs}) {
    const char* what = b == Backend::threads ? "threads" : "procs";
    auto team = make_team(b, 4, 2, ym::Mode::on, trace::Mode::spans);
    run_rows_and_regimes(*team);
    // 512 KB over private buffers: above the DPML threshold, so the prior
    // serves direct; a forked team's window verdict sends it to socket-MA.
    const std::uint64_t big = 512u << 10;
    team->run([&](rt::RankCtx& ctx) {
      std::vector<double> in(big / 8, 1.0), out(in.size());
      allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
                ReduceOp::sum);
    });
    expect_records_match_cells(*team, what);
    const int finished_by = static_cast<int>(
        b == Backend::threads ? Algorithm::direct : Algorithm::ma_socket_aware);
    for (int r = 0; r < team->nranks(); ++r)
      EXPECT_EQ(labels_of(*team, r, CollKind::allreduce, big),
                std::vector<int>{finished_by})
          << what << " rank " << r;

    // {3, 2}: the sockets do not divide the ranks, so socket-MA runs the
    // flat schedule inside its own row: one record, labelled socket-ma.
    auto odd = make_team(b, 3, 2, ym::Mode::on, trace::Mode::spans);
    const std::uint64_t s = 3u * 8192;
    odd->run([&](rt::RankCtx& ctx) {
      std::vector<double> in(3 * 8192 / 8, 1.0), out(in.size());
      allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
                ReduceOp::sum, {.algorithm = Algorithm::ma_socket_aware});
    });
    expect_records_match_cells(*odd, what);
    for (int r = 0; r < odd->nranks(); ++r)
      EXPECT_EQ(labels_of(*odd, r, CollKind::allreduce, s),
                std::vector<int>{static_cast<int>(Algorithm::ma_socket_aware)})
          << what << " rank " << r;
  }
}

// ---- straggler detection ----------------------------------------------------

TEST(MetricsStraggler, DetectorFlagsInjectedStall) {
  auto team = make_team(Backend::threads, 4, 2, ym::Mode::on,
                        trace::Mode::spans);
  // Rank 2 stalls 80 ms at its 4th barrier arrival; everyone else arrives
  // on time.  The deterministic schedule gives the detector 8 full-team
  // ordinals to group.
  team->set_fault_plan(rt::FaultPlan::parse("stall@barrier:rank=2:ms=80:iter=3"));
  team->run([](rt::RankCtx& ctx) {
    for (int i = 0; i < 8; ++i) ctx.barrier();
  });

  const ym::StragglerReport rep = team->straggler_check();
  EXPECT_GE(rep.ordinals, 4);
  ASSERT_EQ(rep.flagged.size(), 1u) << "exactly the stalled rank";
  EXPECT_EQ(rep.flagged[0], 2);
  double dev2 = 0;
  for (const auto& v : rep.ranks)
    if (v.rank == 2) dev2 = v.mean_dev_seconds;
  EXPECT_GT(dev2, 2e-4);  // well past the detector floor

  // The flag is counted once and lands as a flight-recorder instant.
  const ym::Snapshot s = ym::Snapshot::capture(*team->metrics_buffer());
  EXPECT_EQ(s.team.straggler_flags, 1u);
  team->straggler_check();  // level-triggered detector, edge-triggered count
  const ym::Snapshot s2 = ym::Snapshot::capture(*team->metrics_buffer());
  EXPECT_EQ(s2.team.straggler_flags, 1u);

  auto* tb = team->trace_buffer();
  ASSERT_NE(tb, nullptr);
  bool saw_instant = false;
  const int ring = tb->control_ring();
  for (std::uint64_t i = tb->first_kept(ring); i < tb->count(ring); ++i) {
    const trace::Rec r = tb->read(ring, i);
    if (r.phase == static_cast<std::uint8_t>(trace::Phase::straggler) &&
        r.arg == 2)
      saw_instant = true;
  }
  EXPECT_TRUE(saw_instant);
}

TEST(MetricsStraggler, QuietTeamFlagsNobody) {
  auto team = make_team(Backend::threads, 4, 2, ym::Mode::on);
  team->run([](rt::RankCtx& ctx) {
    for (int i = 0; i < 8; ++i) ctx.barrier();
  });
  const ym::StragglerReport rep = team->straggler_check();
  EXPECT_TRUE(rep.flagged.empty());
  const ym::Snapshot s = ym::Snapshot::capture(*team->metrics_buffer());
  EXPECT_EQ(s.team.straggler_flags, 0u);
}

// The detector's verdicts on a synthetic window: 4 ranks pass 8 barriers
// of run 5, each 1 µs of work apart, and leave each barrier together once
// the last arrives.  Rank 1 spends longer before one barrier.  3 ms late
// at the fourth barrier, it is flagged, and nobody else is, although the
// others leave that barrier late too.  Lateness at the run's first
// barrier, which has no departure before it (spawn skew), is never
// examined — nor are the ranks held up by it at the next one.
TEST(MetricsStraggler, DepartureRelativeTimingSkipsEachRunsFirstBarrier) {
  const auto snap = [](double late_s, std::uint64_t late_at) {
    ym::Snapshot s;
    s.nranks = 4;
    s.ticks_per_second = 1e9;
    s.ranks.resize(4);
    std::uint64_t released = 0;
    for (std::uint64_t o = 1; o <= 8; ++o) {
      std::uint64_t arrive[4], last = 0;
      for (int r = 0; r < 4; ++r) {
        arrive[r] = released + 1000 + static_cast<std::uint64_t>(r);
        if (r == 1 && o == late_at)
          arrive[r] += static_cast<std::uint64_t>(late_s * 1e9);
        last = std::max(last, arrive[r]);
      }
      released = last + 10;
      for (int r = 0; r < 4; ++r)
        s.ranks[r].window.push_back(
            {(std::uint64_t{5} << 24) | o, arrive[r], released});
    }
    for (int r = 0; r < 4; ++r) s.ranks[r].rank = r;
    return s;
  };
  ym::StragglerReport rep = ym::detect_stragglers(snap(3e-3, 4));
  EXPECT_EQ(rep.ordinals, 7);
  EXPECT_EQ(rep.flagged, std::vector<int>{1});

  rep = ym::detect_stragglers(snap(80e-3, 1));
  EXPECT_EQ(rep.ordinals, 7);
  EXPECT_TRUE(rep.flagged.empty());
}

// ---- serve mode: sampler files + live mirror --------------------------------

TEST(MetricsServe, SamplerExportsAndMirrorAttach) {
  const std::string dir = fresh_tmpdir("serve");
  ScopedEnv e1("YHCCL_METRICS_DIR", dir.c_str());
  ScopedEnv e2("YHCCL_METRICS_INTERVAL_MS", "50");
  {
    auto team = make_team(Backend::threads, 4, 2, ym::Mode::serve);
    team->run(run_schedule);
    // Let the sampler tick at least once with data in the registry.
    timespec ts{0, 150 * 1'000'000L};
    nanosleep(&ts, nullptr);

    // External attach: the shm mirror serves a validating snapshot.
    auto mirror = rt::ShmRegion::open_named(ym::mirror_shm_name(::getpid()),
                                            ym::kMirrorBytes);
    std::string text, err;
    ASSERT_TRUE(ym::mirror_read(mirror.data(), mirror.size(), text));
    const bench::Json j = bench::Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(ym::validate_metrics_json(j, &err)) << err;
    const ym::Snapshot live = ym::Snapshot::from_json(j);
    EXPECT_EQ(live.nranks, 4);
    EXPECT_FALSE(ym::render_top(live).empty());

    // The live file pair refreshes in place.
    std::string jerr;
    const bench::Json lj = bench::load_json_file(
        dir + "/yhccl_metrics_" + std::to_string(::getpid()) + "_live.json",
        &jerr);
    ASSERT_TRUE(jerr.empty()) << jerr;
    EXPECT_TRUE(ym::validate_metrics_json(lj, &err)) << err;
  }
  // Teardown leaves a final numbered snapshot + exposition pair behind.
  bool have_final_json = false, have_final_prom = false;
  std::string err;
  for (const std::string& p : dir_entries(dir, ".json"))
    if (p.find("_live") == std::string::npos) {
      have_final_json = true;
      EXPECT_TRUE(ym::validate_metrics_json(bench::load_json_file(p), &err))
          << p << ": " << err;
    }
  for (const std::string& p : dir_entries(dir, ".prom"))
    if (p.find("_live") == std::string::npos) {
      have_final_prom = true;
      EXPECT_TRUE(ym::validate_prometheus(slurp(p), &err)) << p << ": " << err;
    }
  EXPECT_TRUE(have_final_json);
  EXPECT_TRUE(have_final_prom);
}

// ---- trace-dir mkdir fix (satellite) ----------------------------------------

TEST(TraceDirExport, MissingDirectoryIsCreated) {
  const std::string dir = fresh_tmpdir("trace") + "/nested/deeper";
  ScopedEnv e("YHCCL_TRACE_DIR", dir.c_str());
  {
    auto team = make_team(Backend::threads, 2, 1, ym::Mode::off,
                          trace::Mode::spans);
    team->run([](rt::RankCtx& ctx) { ctx.barrier(); });
  }
  // Pre-fix the chrome export was silently dropped; now the directory is
  // created on demand and the harvest lands.
  const std::string path =
      dir + "/yhccl_trace_" + std::to_string(::getpid()) + ".json";
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
}

}  // namespace
