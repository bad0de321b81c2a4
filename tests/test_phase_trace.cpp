// Tests for the intra-collective phase tracer (src/trace): ring semantics,
// span nesting across every collective arm, thread-vs-process harvest
// parity, flight-recorder dumps on injected rank death, and the off-mode
// zero-impact guarantee.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <set>
#include <tuple>
#include <vector>

#include "yhccl/bench/harness.hpp"
#include "yhccl/coll/arm_table.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/export.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "yhccl/trace/export.hpp"
#include "yhccl/trace/trace.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::fill_buffer;

namespace {

enum class Backend { threads, procs };

std::unique_ptr<rt::Team> make_team(Backend b, int p, int m,
                                    trace::Mode mode) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = 8u << 20;
  cfg.trace = mode;
  cfg.sync_timeout = 20.0;
  if (b == Backend::procs) return std::make_unique<rt::ProcessTeam>(cfg);
  return std::make_unique<rt::ThreadTeam>(cfg);
}

/// The deterministic schedule both backend-parity runs execute.
void run_schedule(rt::RankCtx& ctx) {
  const std::size_t n = 2048;
  std::vector<double> send(n), recv(n * static_cast<std::size_t>(4));
  fill_buffer(send.data(), n, Datatype::f64, ctx.rank(), ReduceOp::sum);
  CollOpts ma;
  ma.algorithm = Algorithm::ma_flat;
  allreduce(ctx, send.data(), recv.data(), n, Datatype::f64, ReduceOp::sum,
            ma);
  CollOpts dpml;
  dpml.algorithm = Algorithm::dpml_two_level;
  reduce_scatter(ctx, send.data(), recv.data(),
                 n / static_cast<std::size_t>(ctx.nranks()), Datatype::f64,
                 ReduceOp::sum, dpml);
  reduce(ctx, send.data(), recv.data(), n, Datatype::f64, ReduceOp::sum, 0);
  broadcast(ctx, recv.data(), n, Datatype::f64, 0);
  allgather(ctx, send.data(), recv.data(), n / 4, Datatype::f64);
}

constexpr int kScheduleColls = 5;

TEST(PhaseTrace, CollIdNamesMirrorCollKinds) {
  EXPECT_STREQ(trace::coll_id_name(0), "");  // outside any collective
  for (int k = 0; k < static_cast<int>(CollKind::kCount_); ++k) {
    const auto kind = static_cast<CollKind>(k);
    EXPECT_STREQ(trace::coll_id_name(static_cast<std::uint8_t>(1 + k)),
                 coll_kind_name(kind));
  }
}

// One name table: every Algorithm and CollKind round-trips through its
// name, and after one explicit call of every arm-table row the Chrome
// trace's coll spans and the metrics cells name exactly the table's
// (collective, algorithm) pairs.
TEST(PhaseTrace, ArmNamesRoundTripThroughTheTableAndTheExports) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto alg = static_cast<Algorithm>(a);
    EXPECT_EQ(algorithm_from_name(algorithm_name(alg)), alg);
  }
  for (int k = 0; k < kCollKindCount; ++k) {
    const auto kind = static_cast<CollKind>(k);
    EXPECT_EQ(coll_kind_from_name(coll_kind_name(kind)), kind);
  }
  EXPECT_FALSE(algorithm_from_name("automatic"));
  EXPECT_FALSE(algorithm_from_name("ma_flat"));

  rt::TeamConfig cfg;
  cfg.nranks = 4;
  cfg.nsockets = 2;
  cfg.trace = trace::Mode::spans;
  cfg.metrics = metrics::Mode::on;
  rt::ThreadTeam team(cfg);
  std::set<std::pair<std::string, std::string>> rows;
  for (const ArmRow& row : arm_rows()) {
    rows.emplace(coll_kind_name(row.kind), algorithm_name(row.algorithm));
    CollOpts o;
    o.algorithm = row.algorithm;
    team.run([&](rt::RankCtx& ctx) {
      const std::size_t n = 256;  // inside the fold cut
      std::vector<double> send(4 * n, 1.0), recv(4 * n);
      switch (row.kind) {
        case CollKind::allreduce:
          allreduce(ctx, send.data(), recv.data(), n, Datatype::f64,
                    ReduceOp::sum, o);
          break;
        case CollKind::reduce:
          reduce(ctx, send.data(), recv.data(), n, Datatype::f64,
                 ReduceOp::sum, 0, o);
          break;
        case CollKind::reduce_scatter:
          reduce_scatter(ctx, send.data(), recv.data(), n, Datatype::f64,
                         ReduceOp::sum, o);
          break;
        case CollKind::broadcast:
          broadcast(ctx, send.data(), n, Datatype::f64, 0, o);
          break;
        default:
          allgather(ctx, send.data(), recv.data(), n, Datatype::f64, o);
          break;
      }
    });
  }
  std::set<std::pair<std::string, std::string>> spans, cells;
  const bench::Json chrome = trace::Harvest(*team.trace_buffer()).chrome_json();
  for (const bench::Json& e : chrome["traceEvents"].items())
    if (e["name"].is_string() && e["name"].as_string() == "coll")
      spans.emplace(e["cat"].as_string(),
                    e["args"]["algorithm"].as_string());
  const bench::Json snap =
      metrics::Snapshot::capture(*team.metrics_buffer()).to_json();
  for (const bench::Json& r : snap["ranks"].items())
    for (const bench::Json& c : r["cells"].items())
      cells.emplace(c["coll"].as_string(), c["alg"].as_string());
  EXPECT_EQ(spans, rows);
  EXPECT_EQ(cells, rows);
}

TEST(PhaseTrace, OffModeAllocatesNoRingsAndKeepsCountersExact) {
  auto off = make_team(Backend::threads, 4, 2, trace::Mode::off);
  auto on = make_team(Backend::threads, 4, 2, trace::Mode::spans);
  EXPECT_EQ(off->trace_buffer(), nullptr);
  EXPECT_EQ(off->trace_mode(), trace::Mode::off);
  ASSERT_NE(on->trace_buffer(), nullptr);
  EXPECT_EQ(on->trace_mode(), trace::Mode::spans);

  // Tracing must not perturb the deterministic counter model: the same
  // schedule produces byte-for-byte identical DAV/kernel/sync counts.
  const auto c_off = bench::measure_counters(*off, run_schedule);
  const auto c_on = bench::measure_counters(*on, run_schedule);
  EXPECT_EQ(c_off, c_on);
  EXPECT_GT(c_off.dav.total(), 0u);
}

TEST(PhaseTrace, RingWraparoundKeepsNewestRecords) {
  const int nranks = 2;
  const std::uint32_t slots = 64;
  const std::size_t bytes = trace::TraceBuffer::required_bytes(nranks, slots);
  void* mem = ::operator new(bytes, std::align_val_t{64});
  auto* buf =
      trace::TraceBuffer::create(mem, bytes, nranks, slots, trace::Mode::spans);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->nranks(), nranks);
  EXPECT_EQ(buf->nrings(), nranks + 1);
  EXPECT_EQ(buf->slots(), slots);

  const std::uint64_t pushes = 1000;
  for (std::uint64_t i = 0; i < pushes; ++i)
    buf->push(0, trace::Rec{i + 1, i + 2, /*arg=*/i,
                            static_cast<std::uint8_t>(trace::Phase::reduce),
                            0, 0, 0, 0});
  EXPECT_EQ(buf->count(0), pushes);
  EXPECT_EQ(buf->first_kept(0), pushes - slots);
  for (std::uint64_t i = buf->first_kept(0); i < buf->count(0); ++i) {
    const trace::Rec r = buf->read(0, i);
    EXPECT_EQ(r.arg, i);  // newest `slots` records survive, in order
    EXPECT_EQ(r.seq, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(buf->count(1), 0u);  // other rings untouched
  EXPECT_EQ(buf->count(buf->control_ring()), 0u);
  EXPECT_GT(buf->ticks_per_second(), 0.0);
  ::operator delete(mem, std::align_val_t{64});
}

TEST(PhaseTrace, SpanNestingBalancedAndChromeExportValid) {
  auto team = make_team(Backend::threads, 4, 2, trace::Mode::spans);
  team->run(run_schedule);

  ASSERT_NE(team->trace_buffer(), nullptr);
  trace::Harvest h(*team->trace_buffer());
  EXPECT_EQ(h.nranks(), 4);
  EXPECT_GT(h.total_events(), 0u);
  for (int r = 0; r < 4; ++r) {
    int coll_spans = 0;
    bool saw_copy_in = false, saw_reduce = false, saw_barrier = false;
    for (const trace::Rec& rec : h.ring(r)) {
      ASSERT_LT(rec.phase, static_cast<std::uint8_t>(trace::Phase::kCount_));
      if (rec.flags & trace::kFlagMarker) continue;
      EXPECT_GE(rec.t1, rec.t0) << "rank " << r;
      EXPECT_GE(rec.t0, team->trace_buffer()->t_origin());
      const auto ph = static_cast<trace::Phase>(rec.phase);
      if (ph == trace::Phase::coll) {
        ++coll_spans;
        EXPECT_NE(rec.coll, 0) << "coll span without a collective id";
      }
      saw_copy_in = saw_copy_in || ph == trace::Phase::copy_in;
      saw_reduce = saw_reduce || ph == trace::Phase::reduce;
      saw_barrier = saw_barrier || ph == trace::Phase::barrier;
    }
    // One balanced whole-collective span per schedule entry: nesting depth
    // returned to zero each time on every backend path (incl. fallbacks).
    EXPECT_EQ(coll_spans, kScheduleColls) << "rank " << r;
    EXPECT_TRUE(saw_copy_in) << "rank " << r;
    EXPECT_TRUE(saw_reduce) << "rank " << r;
    EXPECT_TRUE(saw_barrier) << "rank " << r;
  }

  const bench::Json cj = h.chrome_json();
  std::string err;
  EXPECT_TRUE(trace::validate_chrome(cj, &err)) << err;
  // One process_name metadata row per rank plus the parent control row.
  int meta_rows = 0;
  const bench::Json& events = cj["traceEvents"];
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events.at(i)["ph"].as_string() == "M") ++meta_rows;
  EXPECT_EQ(meta_rows, 5);

  // Garbage never validates.
  EXPECT_FALSE(trace::validate_chrome(bench::Json::object(), &err));
  EXPECT_FALSE(trace::validate_flight(bench::Json::object(), &err));
}

// An automatic allreduce above the fold cut on a thread team runs the
// direct arm: one coll span per rank carries its alg id, its reduce and
// copy-out spans nest inside, and the Chrome export validates the id.
TEST(PhaseTrace, DirectArmSpansCarryItsAlgIdAndExport) {
  auto team = make_team(Backend::threads, 4, 2, trace::Mode::spans);
  const std::size_t n = 2048;  // 16 KB
  team->run([&](rt::RankCtx& ctx) {
    std::vector<double> s(n, 1.0), r(n);
    allreduce(ctx, s.data(), r.data(), n, Datatype::f64, ReduceOp::sum);
  });
  ASSERT_NE(team->trace_buffer(), nullptr);
  trace::Harvest h(*team->trace_buffer());
  for (int r = 0; r < h.nranks(); ++r) {
    int direct = 0, reduce = 0, copy_out = 0;
    for (const trace::Rec& rec : h.ring(r)) {
      const auto ph = static_cast<trace::Phase>(rec.phase);
      if (ph == trace::Phase::coll &&
          rec.variant == static_cast<std::uint8_t>(Algorithm::direct))
        ++direct;
      reduce += ph == trace::Phase::reduce;
      copy_out += ph == trace::Phase::copy_out;
    }
    EXPECT_EQ(direct, 1) << "rank " << r;
    EXPECT_EQ(reduce, 1) << "rank " << r;
    EXPECT_EQ(copy_out, 1) << "rank " << r;
  }
  std::string err;
  EXPECT_TRUE(trace::validate_chrome(h.chrome_json(), &err)) << err;
}

// The plan's NT advisory for the direct arm must name the store type the
// arm's copy-out spans record, on both sides of the push cut.  A 64 KB
// private cache puts the cut at s = 32 KB; the sweep crosses it with
// power-of-two and ragged sizes.
TEST(PhaseTrace, DirectNtAdvisoryMatchesTheCopyOutStores) {
  rt::TeamConfig cfg;
  cfg.nranks = 4;
  cfg.nsockets = 2;
  cfg.scratch_bytes = 8u << 20;
  cfg.trace = trace::Mode::spans;
  cfg.cache.l2_per_core = 64u << 10;
  int pulls = 0, pushes = 0;
  for (const std::size_t n :
       {std::size_t{1} << 11, std::size_t{3001}, std::size_t{1} << 12,
        std::size_t{4097}, std::size_t{1} << 13, std::size_t{20011},
        std::size_t{1} << 16}) {
    rt::ThreadTeam team(cfg);
    const plan::Plan plan = plan::query(team, CollKind::allreduce,
                                        n * sizeof(float), Datatype::f32,
                                        ReduceOp::sum);
    ASSERT_EQ(plan.algorithm, Algorithm::direct) << "n=" << n;
    team.run([&](rt::RankCtx& ctx) {
      std::vector<float> s(n, 1.0f), r(n);
      allreduce(ctx, s.data(), r.data(), n, Datatype::f32, ReduceOp::sum);
    });
    ASSERT_NE(team.trace_buffer(), nullptr);
    trace::Harvest h(*team.trace_buffer());
    int spans = 0;
    for (int r = 0; r < h.nranks(); ++r)
      for (const trace::Rec& rec : h.ring(r)) {
        if (static_cast<trace::Phase>(rec.phase) != trace::Phase::copy_out)
          continue;
        ++spans;
        EXPECT_EQ((rec.variant & 1u) != 0, plan.nt_prior)
            << "n=" << n << " rank " << r;
      }
    EXPECT_GT(spans, 0) << "n=" << n;
    (plan.nt_prior ? pushes : pulls) += 1;
  }
  EXPECT_GT(pulls, 0);
  EXPECT_GT(pushes, 0);
}

using DetRec = std::tuple<std::uint8_t, std::uint8_t, std::uint64_t>;

/// The schedule's movement phases (copy/reduce/coll) are deterministic for
/// a fixed (schedule, p, m, opts): extract them for cross-backend parity.
std::vector<DetRec> deterministic_seq(const trace::Harvest& h, int rank) {
  std::vector<DetRec> out;
  for (const trace::Rec& rec : h.ring(rank)) {
    const auto ph = static_cast<trace::Phase>(rec.phase);
    if (ph == trace::Phase::coll || ph == trace::Phase::copy_in ||
        ph == trace::Phase::copy_out || ph == trace::Phase::reduce)
      out.emplace_back(rec.phase, rec.coll, rec.arg);
  }
  return out;
}

TEST(PhaseTrace, ProcessHarvestMatchesThreadHarvest) {
  auto threads = make_team(Backend::threads, 4, 2, trace::Mode::spans);
  auto procs = make_team(Backend::procs, 4, 2, trace::Mode::spans);
  // The schedule pins its allreduce to flat MA: left automatic, this size
  // runs the direct arm on the thread team only.
  EXPECT_EQ(plan::query(*threads, CollKind::allreduce, 2048 * sizeof(double),
                        Datatype::f64, ReduceOp::sum)
                .algorithm,
            Algorithm::direct);
  threads->run(run_schedule);
  procs->run(run_schedule);

  ASSERT_NE(threads->trace_buffer(), nullptr);
  ASSERT_NE(procs->trace_buffer(), nullptr);
  trace::Harvest ht(*threads->trace_buffer());
  trace::Harvest hp(*procs->trace_buffer());
  ASSERT_EQ(ht.nranks(), hp.nranks());
  for (int r = 0; r < ht.nranks(); ++r) {
    const auto t = deterministic_seq(ht, r);
    const auto p = deterministic_seq(hp, r);
    ASSERT_FALSE(t.empty()) << "rank " << r;
    // Children _exit instead of returning: the fork()-backed rings must
    // still hold the full record sequence after the parent reaps them.
    EXPECT_EQ(t, p) << "rank " << r;
  }
}

TEST(PhaseTrace, FlightDumpOnInjectedDeathAtBarrier) {
  for (Backend b : {Backend::threads, Backend::procs}) {
    char tmpl[] = "/tmp/yhccl_trace_test_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    ASSERT_EQ(setenv("YHCCL_TRACE_DIR", dir, 1), 0);

    {
      auto team = make_team(b, 4, 2, trace::Mode::flight);
      const std::uint64_t epoch0 = team->team_epoch();
      team->set_fault_plan(rt::FaultPlan::parse("die@barrier:rank=2:iter=0"));
      bool aborted = false;
      try {
        team->run([&](rt::RankCtx& ctx) {
          std::vector<double> s(1024, 1), r(1024);
          coll::allreduce(ctx, s.data(), r.data(), 1024, Datatype::f64,
                          ReduceOp::sum);
        });
      } catch (const Error& e) {
        aborted = true;
        EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead);
        EXPECT_EQ(e.fault_rank(), 2);
      }
      ASSERT_TRUE(aborted);

      const std::string path = std::string(dir) + "/yhccl_flight_" +
                               std::to_string(getpid()) + ".json";
      std::ifstream in(path);
      ASSERT_TRUE(in.good()) << "missing flight dump " << path;
      std::stringstream ss;
      ss << in.rdbuf();
      std::string perr;
      const bench::Json fj = bench::Json::parse(ss.str(), &perr);
      ASSERT_TRUE(perr.empty()) << perr;
      std::string err;
      EXPECT_TRUE(trace::validate_flight(fj, &err)) << err;
      EXPECT_EQ(fj["site"].as_string(), "barrier");
      EXPECT_EQ(fj["rank"].as_int(), 2);
      EXPECT_EQ(fj["epoch"].as_uint(), epoch0);
      EXPECT_NE(fj["fault"].as_string().find("rank 2"), std::string::npos)
          << fj["fault"].as_string();

      // Every rank's last events made it into the dump — including the
      // dying rank, whose ring survives in the shared mapping.
      const bench::Json& ranks = fj["ranks"];
      ASSERT_EQ(ranks.size(), 4u);
      EXPECT_TRUE(fj["team"].is_array());  // parent control ring
      bool victim_has_fault_event = false;
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        const bench::Json& entry = ranks.at(i);
        EXPECT_GT(entry["events"].size(), 0u)
            << "rank " << entry["rank"].as_int() << " dumped no events";
        if (entry["rank"].as_int() == 2)
          for (std::size_t e = 0; e < entry["events"].size(); ++e)
            victim_has_fault_event =
                victim_has_fault_event ||
                entry["events"].at(e)["phase"].as_string() == "fault";
      }
      EXPECT_TRUE(victim_has_fault_event)
          << "dying rank's injected-death instant missing";
    }
    unsetenv("YHCCL_TRACE_DIR");
  }
}

}  // namespace
