// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One caller, this process, drives a team of kRanks ranks on kSockets
// logical sockets in a closed loop: an op is issued only after the previous
// one finished on every rank.  Every output is checked against the sum of
// the generated inputs.  The report ends with one JSON line holding the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"
#include "yhccl/bench/json.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/shm_region.hpp"
#include "yhccl/runtime/thread_team.hpp"

extern char** environ;

using namespace yhccl;
using namespace perfbench;
using coll::CollKind;

namespace {

constexpr float kPoison = -1.0f;
constexpr int kKinds = static_cast<int>(CollKind::kCount_);

struct Args {
  Workload workload = Workload::allreduce_small;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc != 9) return false;
  int seen = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      if (!workload_from_name(v, a.workload)) return false;
      seen |= 1;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
      seen |= 2;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 120)) return false;
      seen |= 4;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
      seen |= 8;
    } else {
      return false;
    }
  }
  return seen == 15;
}

/// Every knob the benchmark measures is pinned in its TeamConfig; an
/// inherited YHCCL_* variable could still change the library underneath.
bool env_is_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "YHCCL_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

// ---- rank data -------------------------------------------------------------

/// Rank data buffers in one anonymous shared mapping made before any team:
/// per-rank inputs and one output buffer per rank.  Forked ranks inherit
/// it at the same address, so every team of a run, thread- or
/// process-backed, works on the same buffers.
class Pool {
 public:
  Pool(std::size_t in_elems, std::size_t out_elems)
      : in_(page_round(in_elems)),
        out_(page_round(out_elems)),
        region_(rt::ShmRegion::create_anonymous(kRanks * (in_ + out_) *
                                                sizeof(float))),
        base_(reinterpret_cast<float*>(region_.data())) {
    for (int r = 0; r < kRanks; ++r) {
      float* in = base_ + static_cast<std::size_t>(r) * in_;
      for (std::size_t j = 0; j < in_elems; ++j) in[j] = input_value(r, j);
      std::fill(out(r), out(r) + out_, kPoison);
    }
  }

  const float* in(int r) const noexcept {
    return base_ + static_cast<std::size_t>(r) * in_;
  }
  float* out(int r) const noexcept {
    return base_ + kRanks * in_ + static_cast<std::size_t>(r) * out_;
  }

 private:
  static std::size_t page_round(std::size_t elems) {
    constexpr std::size_t kPage = 4096 / sizeof(float);
    return (elems + kPage - 1) / kPage * kPage;
  }

  std::size_t in_;
  std::size_t out_;
  rt::ShmRegion region_;
  float* base_;
};

// ---- rank side -------------------------------------------------------------

struct CallRec {
  double seconds = 0;
  std::uint64_t dav = 0;
};

/// Per-rank results of one run(), written by the ranks into the team's
/// shared heap: a forked rank has no other way to return them.
struct Slots {
  double* lat[kRanks] = {};
  std::uint8_t* bad[kRanks] = {};
  CallRec* rec[kRanks] = {};

  Slots(rt::Team& team, std::size_t ops, int calls_per_op) {
    for (int r = 0; r < kRanks; ++r) {
      lat[r] = reinterpret_cast<double*>(
          team.shared_alloc(ops * sizeof(double)));
      bad[r] = reinterpret_cast<std::uint8_t*>(team.shared_alloc(ops));
      rec[r] = reinterpret_cast<CallRec*>(team.shared_alloc(
          ops * static_cast<std::size_t>(calls_per_op) * sizeof(CallRec)));
    }
  }
};

/// One run(): ops [first, first + n) of the schedule.
struct Batch {
  std::uint64_t first = 0;
  std::size_t n = 0;
  bool traced = false;  ///< record each call's time and DAV
};

void issue(rt::RankCtx& ctx, const Call& c, const Pool& pool) {
  const float* in = pool.in(ctx.rank());
  float* out = pool.out(ctx.rank());
  switch (c.kind) {
    case CollKind::broadcast:
      coll::broadcast(ctx, out, c.count, Datatype::f32, c.root);
      break;
    case CollKind::allgather:
      coll::allgather(ctx, in, out, c.count, Datatype::f32);
      break;
    case CollKind::reduce_scatter:
      coll::reduce_scatter(ctx, in, out, c.count, Datatype::f32,
                           ReduceOp::sum);
      break;
    default:
      coll::allreduce(ctx, in, out, c.count, Datatype::f32, ReduceOp::sum);
      break;
  }
}

/// Compares out[j] with want(first + j) for j < n, then poisons out, so a
/// call that leaves its output untouched fails the next check.  Every
/// expected value repeats with period kValuePeriod in the index.
template <class Want>
bool match_and_poison(float* out, std::size_t n, std::size_t first,
                      Want want) {
  float cycle[kValuePeriod];
  for (std::size_t i = 0; i < kValuePeriod; ++i) cycle[i] = want(first + i);
  unsigned bad = 0;
  for (std::size_t j = 0; j < n; j += kValuePeriod) {
    const std::size_t m = std::min(kValuePeriod, n - j);
    for (std::size_t i = 0; i < m; ++i) {
      bad |= out[j + i] != cycle[i] ? 1u : 0u;
      out[j + i] = kPoison;
    }
  }
  return bad == 0;
}

bool check(int r, const Call& c, const Pool& pool) {
  float* out = pool.out(r);
  switch (c.kind) {
    case CollKind::broadcast:
      return match_and_poison(out, c.count, 0, [&](std::size_t j) {
        return input_value(c.root, j);
      });
    case CollKind::allgather: {
      bool ok = true;
      for (int q = 0; q < kRanks; ++q)
        ok &= match_and_poison(
            out + static_cast<std::size_t>(q) * c.count, c.count, 0,
            [q](std::size_t j) { return input_value(q, j); });
      return ok;
    }
    case CollKind::reduce_scatter:
      return match_and_poison(out, c.count,
                              static_cast<std::size_t>(r) * c.count,
                              expected_sum);
    default:
      return match_and_poison(out, c.count, 0, expected_sum);
  }
}

void rank_body(rt::RankCtx& ctx, const Schedule& s, const Pool& pool,
               const Slots& slots, const Batch& b) {
  const int r = ctx.rank();
  const int cpo = s.calls_per_op();
  // Thread workloads time each op from a common start.  A step-process op
  // is timed whole, Team::run included, by the caller.
  const bool align = !s.process_ranks();
  for (std::size_t k = 0; k < b.n; ++k) {
    bool ok = true;
    double op_s = 0;
    for (int j = 0; j < cpo; ++j) {
      const Call c = s.call(b.first + k, j);
      if (c.kind == CollKind::broadcast && r == c.root)
        std::memcpy(pool.out(r), pool.in(r), c.count * sizeof(float));
      if (align) ctx.barrier();
      const copy::Dav dav0 = b.traced ? copy::dav_read() : copy::Dav{};
      const double t0 = wall_seconds();
      issue(ctx, c, pool);
      const double dt = wall_seconds() - t0;
      if (b.traced)
        slots.rec[r][k * static_cast<std::size_t>(cpo) +
                     static_cast<std::size_t>(j)] = {
            dt, (copy::dav_read() - dav0).total()};
      op_s += dt;
      ok = check(r, c, pool) && ok;
    }
    slots.lat[r][k] = op_s;
    slots.bad[r][k] = ok ? 0 : 1;
  }
}

// ---- caller side -----------------------------------------------------------

/// What the caller saw over a series of run() calls.
struct Tally {
  /// Per-op latency: the slowest rank's time in the op's calls (thread
  /// workloads) or the whole Team::run (step-process).  Single precision
  /// keeps the benchmark's own memory small beside peak_rss_mb.
  std::vector<float> op_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double payload_bytes = 0;

  // Traced batches only.
  std::vector<double> run_s;       ///< parent-side Team::run wall time
  std::vector<double> dispatch_s;  ///< run_s minus the slowest rank body
  std::vector<double> call_s[kKinds];  ///< slowest-rank time per call
  std::uint64_t dav = 0;           ///< Team::total_dav, summed
  std::uint64_t kernels = 0;       ///< Team::total_kernels, summed
  rt::SyncCounts sync;             ///< Team::total_sync minus our barriers
  std::uint64_t calls = 0;
  std::uint64_t nt_calls = 0;       ///< calls whose plan predicts NT stores
  double reduce_dav = 0;            ///< measured DAV of the reductions
  double reduce_model_dav = 0;      ///< model::impl DAV of the served arms

  double p50() const { return quantile(op_s, 0.5); }
  double busy_s() const {
    double s = 0;
    for (double v : op_s) s += v;
    return s;
  }
};

/// A team plus the result slots its ranks write.
struct Rig {
  std::unique_ptr<rt::Team> team;
  Slots slots;
};

/// Plan-layer facts about one call shape, from coll::plan::query.
struct CallInfo {
  bool nt_prior = false;
  bool reduction = false;
  std::uint64_t model_dav = 0;  ///< model::impl DAV of the served arm
};

class Bench {
 public:
  explicit Bench(const Args& a)
      : sched_(a.workload, a.seed),
        pool_(sched_.max_input_elems(), sched_.max_output_elems()),
        cache_(copy::CacheConfig::detect()) {}

  const Schedule& schedule() const noexcept { return sched_; }
  const copy::CacheConfig& cache() const noexcept { return cache_; }

  /// Ops per run() while measuring, and in the untimed first run().
  std::size_t batch_ops() const noexcept {
    switch (sched_.workload()) {
      case Workload::allreduce_small: return 4096;
      case Workload::allreduce_large: return 4;
      case Workload::step_process: break;
    }
    return 1;
  }
  std::size_t warmup_ops() const noexcept {
    return sched_.workload() == Workload::allreduce_small ? 64 : 1;
  }

  rt::TeamConfig config(trace::Mode tr, metrics::Mode me) const {
    rt::TeamConfig c;
    c.nranks = kRanks;
    c.nsockets = kSockets;
    c.cache = cache_;
    c.scratch_bytes = 64u << 20;
    c.shared_heap_bytes = 16u << 20;
    c.chunk_bytes = 16u << 10;
    c.hb_check = rt::HbMode::off;
    c.sync_timeout = 30.0;  // a wedged op fails the run instead of hanging it
    c.trace = tr;
    c.tune = rt::TuneMode::prior;
    c.metrics = me;
    c.resilience.max_retries = 0;
    return c;
  }

  /// Constructs a team and makes its first, untimed run().
  Rig make_rig(trace::Mode tr, metrics::Mode me, Tally& warm) {
    const rt::TeamConfig cfg = config(tr, me);
    std::unique_ptr<rt::Team> team;
    if (sched_.process_ranks())
      team = std::make_unique<rt::ProcessTeam>(cfg);
    else
      team = std::make_unique<rt::ThreadTeam>(cfg);
    Slots slots(*team, std::max(batch_ops(), warmup_ops()),
                sched_.calls_per_op());
    Rig rig{std::move(team), slots};
    run_batch(rig, {0, warmup_ops(), false}, warm);
    return rig;
  }

  /// Runs ops [first, first + n) in batches.
  void run_ops(Rig& rig, std::uint64_t first, std::size_t n, bool traced,
               Tally& t) {
    for (std::size_t done = 0; done < n; done += batch_ops())
      run_batch(rig, {first + done, std::min(batch_ops(), n - done), traced},
                t);
  }

  void run_batch(Rig& rig, const Batch& b, Tally& t) {
    rt::Team& team = *rig.team;
    t.attempted += b.n;
    const double t0 = wall_seconds();
    try {
      run_team(team, [&](rt::RankCtx& ctx) {
        rank_body(ctx, sched_, pool_, rig.slots, b);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
      t.failed += b.n;
      team.recover();
      return;
    }
    const double wall = wall_seconds() - t0;
    const int cpo = sched_.calls_per_op();
    for (std::size_t k = 0; k < b.n; ++k) {
      double lat = 0;
      bool bad = false;
      for (int r = 0; r < kRanks; ++r) {
        lat = std::max(lat, rig.slots.lat[r][k]);
        bad = bad || rig.slots.bad[r][k] != 0;
      }
      t.op_s.push_back(static_cast<float>(sched_.process_ranks() ? wall : lat));
      t.failed += bad ? 1 : 0;
      for (int j = 0; j < cpo; ++j)
        t.payload_bytes += static_cast<double>(
            message_bytes(sched_.call(b.first + k, j)));
    }
    if (b.traced) fold_traced(team, rig.slots, b, wall, t);
  }

  /// RankCtx::barrier in a loop on the team: microseconds per barrier.
  double barrier_us(Rig& rig) {
    constexpr int kIters = 2000;
    std::vector<double> per;
    for (int rep = 0; rep < 3; ++rep) {
      run_team(*rig.team, [&](rt::RankCtx& ctx) {
        ctx.barrier();
        const double t0 = wall_seconds();
        for (int i = 0; i < kIters; ++i) ctx.barrier();
        rig.slots.lat[ctx.rank()][0] = wall_seconds() - t0;
      });
      double slowest = 0;
      for (int r = 0; r < kRanks; ++r)
        slowest = std::max(slowest, rig.slots.lat[r][0]);
      per.push_back(slowest / kIters);
    }
    return median(per) * 1e6;
  }

  /// The sustainable-bandwidth roof: every rank t_copy's its own buffers
  /// at once.  DAV per second, in GB/s, counted as the collectives count it.
  double stream_gbps(Rig& rig) {
    constexpr std::size_t kBytes = 32u << 20;
    constexpr int kReps = 4;
    run_team(*rig.team, [&](rt::RankCtx& ctx) {
      std::vector<std::byte> src(kBytes, std::byte{1});
      std::vector<std::byte> dst(kBytes);
      ctx.barrier();
      const copy::Dav dav0 = copy::dav_read();
      const double t0 = wall_seconds();
      for (int i = 0; i < kReps; ++i)
        copy::t_copy(dst.data(), src.data(), kBytes);
      const int r = ctx.rank();
      rig.slots.lat[r][0] = wall_seconds() - t0;
      rig.slots.rec[r][0].dav = (copy::dav_read() - dav0).total();
    });
    double slowest = 0;
    double dav = 0;
    for (int r = 0; r < kRanks; ++r) {
      slowest = std::max(slowest, rig.slots.lat[r][0]);
      dav += static_cast<double>(rig.slots.rec[r][0].dav);
    }
    return ratio(dav, slowest) / 1e9;
  }

 private:
  /// Team::run with process-backend hygiene: a forked rank flushes the
  /// stdio buffers it inherited, so they must be empty when it forks.
  static void run_team(rt::Team& team,
                       const std::function<void(rt::RankCtx&)>& fn) {
    std::fflush(stdout);
    std::fflush(stderr);
    team.run(fn);
  }

  void fold_traced(const rt::Team& team, const Slots& slots, const Batch& b,
                   double wall, Tally& t) {
    t.run_s.push_back(wall);
    t.dispatch_s.push_back(wall - team.max_time());
    t.dav += team.total_dav().total();
    t.kernels += team.total_kernels().total();
    rt::SyncCounts sync = team.total_sync();
    if (!sched_.process_ranks())
      sync.barriers -= static_cast<std::uint64_t>(kRanks) * b.n;
    t.sync += sync;
    const int cpo = sched_.calls_per_op();
    for (std::size_t k = 0; k < b.n; ++k) {
      for (int j = 0; j < cpo; ++j) {
        const Call c = sched_.call(b.first + k, j);
        const std::size_t idx = k * static_cast<std::size_t>(cpo) +
                                static_cast<std::size_t>(j);
        double slowest = 0;
        std::uint64_t dav = 0;
        for (int r = 0; r < kRanks; ++r) {
          slowest = std::max(slowest, slots.rec[r][idx].seconds);
          dav += slots.rec[r][idx].dav;
        }
        t.call_s[static_cast<int>(c.kind)].push_back(slowest);
        const CallInfo& info = call_info(team, c);
        ++t.calls;
        t.nt_calls += info.nt_prior ? 1 : 0;
        if (info.reduction) {
          t.reduce_dav += static_cast<double>(dav);
          t.reduce_model_dav += static_cast<double>(info.model_dav);
        }
      }
    }
  }

  const CallInfo& call_info(const rt::Team& team, const Call& c) {
    const auto key = std::make_pair(static_cast<int>(c.kind), c.count);
    auto it = info_.find(key);
    if (it != info_.end()) return it->second;
    const coll::plan::Plan plan = coll::plan::query(
        team, c.kind, message_bytes(c), Datatype::f32, ReduceOp::sum);
    CallInfo info;
    info.nt_prior = plan.nt_prior;
    if (c.kind == CollKind::allreduce || c.kind == CollKind::reduce_scatter) {
      const coll::CollOpts defaults;
      model::impl::OpGeometry g;
      g.p = kRanks;
      g.m = kSockets;
      g.slice_max = plan.slice_log2 != 0 ? std::size_t{1} << plan.slice_log2
                                         : defaults.slice_max;
      g.slice_min = defaults.slice_min;
      g.dpml_chunk = plan.chunk_log2 != 0 ? std::size_t{1} << plan.chunk_log2
                                          : defaults.dpml_chunk;
      g.scratch_bytes = team.config().scratch_bytes;
      g.dpml_flat = defaults.dpml_flat;
      const std::size_t s = message_bytes(c);
      const bool rs = c.kind == CollKind::reduce_scatter;
      model::impl::OpCounts ops;
      switch (plan.algorithm) {
        case coll::Algorithm::dpml_two_level:
          ops = rs ? model::impl::dpml_reduce_scatter_ops(s, g)
                   : model::impl::dpml_allreduce_ops(s, g);
          break;
        case coll::Algorithm::ma_socket_aware:
          ops = rs ? model::impl::socket_ma_reduce_scatter_ops(s, g)
                   : model::impl::socket_ma_allreduce_ops(s, g);
          break;
        default:
          ops = rs ? model::impl::ma_reduce_scatter_ops(s, g)
                   : model::impl::ma_allreduce_ops(s, g);
          break;
      }
      info.reduction = true;
      info.model_dav = ops.dav();
    }
    return info_.emplace(key, info).first->second;
  }

  Schedule sched_;
  Pool pool_;
  copy::CacheConfig cache_;
  std::map<std::pair<int, std::size_t>, CallInfo> info_;
};

// ---- report ----------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Prints the metrics as a table, then the result as the last line.
int report(const std::vector<Metric>& ms, std::uint64_t attempted,
           std::uint64_t failed) {
  bench::Json metrics = bench::Json::object();
  for (const Metric& m : ms) {
    const double v = std::isfinite(m.value) ? m.value : 0;
    std::printf("  %-28s %16.6f %s\n", m.name, v, m.unit);
    bench::Json entry = bench::Json::object();
    entry.set("value", v);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  std::printf("  %-28s %16.6f %s   (%llu of %llu ops)\n", "fail_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  bench::Json out = bench::Json::object();
  out.set("correct", failed == 0);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

/// Team construction plus its first run(), in seconds.
double time_setup(Bench& b, Tally& warm, std::unique_ptr<Rig>& rig) {
  const double t0 = wall_seconds();
  rig = std::make_unique<Rig>(
      b.make_rig(trace::Mode::off, metrics::Mode::off, warm));
  return wall_seconds() - t0;
}

int run_end_to_end(const Args& a, Bench& b) {
  // The window is cut into segments and each timing is the quiet decile
  // over segments (stats.hpp): an episode of host contention that covers
  // most of the run moves it little.  A set-up is timed before each segment,
  // on a team that is then dropped, so set-up samples spread over the run
  // too; setup_s is their median.
  constexpr int kSegments = 30;
  Tally warm;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s{time_setup(b, warm, rig)};
  std::vector<double> rate, p50, p90, gbps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t op = 0;
  const double start = wall_seconds();
  for (int k = 1; k <= kSegments; ++k) {
    std::unique_ptr<Rig> dropped;
    setup_s.push_back(time_setup(b, warm, dropped));
    dropped.reset();
    Tally t;
    const double end = start + a.seconds * k / kSegments;
    do {
      b.run_batch(*rig, {op, b.batch_ops(), false}, t);
      op += b.batch_ops();
    } while (wall_seconds() < end);
    const double busy = t.busy_s();
    rate.push_back(ratio(static_cast<double>(t.op_s.size()), busy));
    p50.push_back(quantile(t.op_s, 0.5));
    p90.push_back(quantile(t.op_s, 0.9));
    gbps.push_back(ratio(t.payload_bytes, busy) / 1e9);
    attempted += t.attempted;
    failed += t.failed;
  }
  const double rss_mb = peak_rss_mb();
  std::printf("  segments=%d ops=%llu\n", kSegments,
              static_cast<unsigned long long>(attempted));
  return report(
      {
          {"ops_per_s", quiet_rate(rate), "1/s"},
          {"op_p50_us", quiet_cost(p50) * 1e6, "us"},
          {"op_p90_us", quiet_cost(p90) * 1e6, "us"},
          {"payload_gbps", quiet_rate(gbps), "GB/s"},
          {"setup_s", median(setup_s), "s"},
          {"peak_rss_mb", rss_mb, "MB"},
      },
      attempted + warm.attempted, failed + warm.failed);
}

/// Ops per traced round: enough for stable medians, fixed so the counters
/// repeat exactly for a given seed.
std::size_t round_ops(Workload w) {
  switch (w) {
    case Workload::allreduce_small: return 16384;
    case Workload::allreduce_large: return 8;
    case Workload::step_process: break;
  }
  return 128;
}

int run_traced(const Args& a, Bench& b) {
  Tally warm;
  Rig off = b.make_rig(trace::Mode::off, metrics::Mode::off, warm);
  Rig metered = b.make_rig(trace::Mode::off, metrics::Mode::on, warm);
  Rig spanned = b.make_rig(trace::Mode::spans, metrics::Mode::off, warm);
  const std::size_t n = round_ops(a.workload);

  // Rounds alternate the four variants of the same op stream so drift in
  // the machine hits them alike; the counters come from the first round.
  std::vector<Tally> traced;
  std::vector<double> p50_off, p50_traced, p50_metered, p50_spanned;
  rt::PlanRegistryStats plans;
  std::uint64_t attempted = warm.attempted;
  std::uint64_t failed = warm.failed;
  bool counters_repeat = true;
  const double deadline = wall_seconds() + a.seconds;
  do {
    Tally u, m, s;
    Tally& t = traced.emplace_back();
    b.run_ops(off, 0, n, false, u);
    b.run_ops(off, 0, n, true, t);
    if (traced.size() == 1) plans = coll::plan::tune_stats(*off.team);
    b.run_ops(metered, 0, n, false, m);
    b.run_ops(spanned, 0, n, false, s);
    p50_off.push_back(u.p50());
    p50_traced.push_back(t.p50());
    p50_metered.push_back(m.p50());
    p50_spanned.push_back(s.p50());
    for (const Tally* x : {&u, &t, &m, &s}) {
      attempted += x->attempted;
      failed += x->failed;
    }
    const Tally& t0 = traced.front();
    counters_repeat = counters_repeat && t.dav == t0.dav &&
                      t.kernels == t0.kernels && t.sync == t0.sync;
  } while (wall_seconds() < deadline);
  if (!counters_repeat)
    std::printf("  note: counters differed between rounds\n");

  const double barrier = b.barrier_us(off);
  const double stream = b.stream_gbps(off);

  const Tally& c = traced.front();
  const double ops = static_cast<double>(c.op_s.size());
  std::vector<double> run_s, dispatch_s, call_s[kKinds];
  double dav = 0;
  double busy = 0;
  for (const Tally& t : traced) {
    run_s.insert(run_s.end(), t.run_s.begin(), t.run_s.end());
    dispatch_s.insert(dispatch_s.end(), t.dispatch_s.begin(),
                      t.dispatch_s.end());
    for (int k = 0; k < kKinds; ++k)
      call_s[k].insert(call_s[k].end(), t.call_s[k].begin(), t.call_s[k].end());
    dav += static_cast<double>(t.dav);
    busy += t.busy_s();
  }
  const double dab = ratio(dav, busy) / 1e9;
  auto coll_us = [&](CollKind k) {
    return median(call_s[static_cast<int>(k)]) * 1e6;
  };
  const double p50_base = median(p50_off);
  std::printf("  rounds=%zu ops/round=%zu\n", traced.size(), n);
  return report(
      {
          {"copy.dav_bytes_per_op", ratio(static_cast<double>(c.dav), ops), "B"},
          {"copy.kernel_calls_per_op",
           ratio(static_cast<double>(c.kernels), ops), "count"},
          {"copy.stream_gbps", stream, "GB/s"},
          {"copy.dab_gbps", dab, "GB/s"},
          {"copy.dab_ratio", ratio(dab, stream), "ratio"},
          {"runtime.barrier_us", barrier, "us"},
          {"runtime.barriers_per_op",
           ratio(static_cast<double>(c.sync.barriers), ops), "count"},
          {"runtime.flag_posts_per_op",
           ratio(static_cast<double>(c.sync.flag_posts), ops), "count"},
          {"runtime.flag_waits_per_op",
           ratio(static_cast<double>(c.sync.flag_waits), ops), "count"},
          {"runtime.run_us", median(run_s) * 1e6, "us"},
          {"runtime.dispatch_us", median(dispatch_s) * 1e6, "us"},
          {"coll.allreduce_us", coll_us(CollKind::allreduce), "us"},
          {"coll.broadcast_us", coll_us(CollKind::broadcast), "us"},
          {"coll.allgather_us", coll_us(CollKind::allgather), "us"},
          {"coll.reduce_scatter_us", coll_us(CollKind::reduce_scatter), "us"},
          {"coll.plan_hit_ratio",
           ratio(static_cast<double>(plans.hits),
                 static_cast<double>(plans.lookups)),
           "ratio"},
          {"coll.nt_prior_share",
           ratio(static_cast<double>(c.nt_calls),
                 static_cast<double>(c.calls)),
           "ratio"},
          {"model.dav_ratio", ratio(c.reduce_dav, c.reduce_model_dav), "ratio"},
          {"metrics.on_overhead_frac", overhead(median(p50_metered), p50_base),
           "ratio"},
          {"trace.spans_overhead_frac",
           overhead(median(p50_spanned), p50_base), "ratio"},
          {"bench.trace_overhead_frac",
           overhead(median(p50_traced), p50_base), "ratio"},
      },
      attempted, failed);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "allreduce-small|allreduce-large|step-process --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  if (!env_is_clean()) return 2;
  try {
    Bench b(a);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload_name(a.workload),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0);
    std::printf(
        "# isa=%s cache={%s} nproc=%ld ranks=%d sockets=%d backend=%s "
        "tune=prior metrics=off trace=off hb=off retries=0\n",
        copy::isa_name(copy::active_isa()), b.cache().describe().c_str(),
        sysconf(_SC_NPROCESSORS_ONLN), kRanks, kSockets,
        b.schedule().process_ranks() ? "process" : "thread");
    return a.trace ? run_traced(a, b) : run_end_to_end(a, b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
