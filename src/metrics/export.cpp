#include "yhccl/metrics/export.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "yhccl/common/error.hpp"

namespace yhccl::metrics {

namespace {

int coll_id_from_name(const std::string& s) noexcept {
  for (int i = 1; i < kCollSlots; ++i)
    if (s == coll_slot_name(i)) return i;
  return 0;
}

int alg_id_from_name(const std::string& s) noexcept {
  for (int i = 1; i < kAlgSlots; ++i)
    if (s == alg_slot_name(i)) return i;
  return 0;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const double lo =
        *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (m + lo) / 2;
  }
  return m;
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n),
                                      sizeof buf - 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot capture
// ---------------------------------------------------------------------------

Snapshot Snapshot::capture(const MetricsBuffer& buf) {
  Snapshot s;
  s.pid = static_cast<int>(::getpid());
  s.nranks = buf.nranks();
  s.ticks_per_second = buf.ticks_per_second();
  s.t_origin = buf.t_origin();

  const TeamGauges& g = buf.team();
  const auto rd = [](const mc::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  s.team.runs = rd(g.runs);
  s.team.epoch = rd(g.epoch);
  s.team.active_ranks = rd(g.active_ranks);
  s.team.straggler_flags = rd(g.straggler_flags);
  s.team.rs_faults = rd(g.rs_faults);
  s.team.rs_retries = rd(g.rs_retries);
  s.team.rs_recoveries = rd(g.rs_recoveries);
  s.team.rs_degrades = rd(g.rs_degrades);
  s.team.rs_quarantines = rd(g.rs_quarantines);
  s.team.rs_corruptions = rd(g.rs_corruptions);
  s.team.rs_giveups = rd(g.rs_giveups);
  s.team.rs_heals = rd(g.rs_heals);
  s.team.plan_lookups = rd(g.plan_lookups);
  s.team.plan_hits = rd(g.plan_hits);
  s.team.plan_misses = rd(g.plan_misses);
  s.team.plan_inserts = rd(g.plan_inserts);
  s.team.plan_explores = rd(g.plan_explores);
  s.team.plan_commits = rd(g.plan_commits);
  s.team.plan_loaded = rd(g.plan_loaded);
  s.team.plan_entries = rd(g.plan_entries);
  s.team.plan_quarantines = rd(g.plan_quarantines);

  s.ranks.reserve(static_cast<std::size_t>(s.nranks));
  for (int r = 0; r < s.nranks; ++r) {
    const RankSlot& slot = buf.rank(r);
    RankSnap rs;
    rs.rank = r;
    rs.barriers = rd(slot.barriers);
    rs.flag_posts = rd(slot.flag_posts);
    rs.flag_waits = rd(slot.flag_waits);
    rs.barrier_wait_ticks = rd(slot.barrier_wait_ticks);
    for (int c = 0; c < kCollSlots; ++c)
      rs.plan_gauge[c] = rd(slot.plan_gauge[c]);
    rs.runs = rd(slot.runs);
    rs.wall_ns = rd(slot.wall_ns);
    rs.dav_loads = rd(slot.dav_loads);
    rs.dav_stores = rd(slot.dav_stores);

    // Window: acquire the counter, then read the published slots.  A live
    // writer may lap us on the oldest entries; torn entries are dropped by
    // the ordinal-grouping in detect_stragglers, not here.
    const std::uint64_t next =
        slot.window_next.load(std::memory_order_acquire);
    const std::uint64_t have =
        next < kWindowSlots ? next : static_cast<std::uint64_t>(kWindowSlots);
    for (std::uint64_t i = next - have; i < next; ++i) {
      const WindowEntry& w = slot.window[i & (kWindowSlots - 1)];
      WindowSnap ws;
      ws.ordinal = rd(w.ordinal);
      ws.arrive = rd(w.arrive);
      ws.depart = rd(w.depart);
      rs.window.push_back(ws);
    }

    for (int idx = 0; idx < kCellCount; ++idx) {
      const Cell& cell = slot.cells[idx];
      CellSnap cs;
      cs.calls = rd(cell.calls);
      cs.bytes = rd(cell.bytes);
      cs.ticks = rd(cell.ticks);
      std::uint64_t any = cs.calls | cs.bytes | cs.ticks;
      for (int b = 0; b < kLatBuckets; ++b) {
        cs.hist[b] = rd(cell.hist[b]);
        any |= cs.hist[b];
      }
      if (any == 0) continue;
      cs.size_bucket = idx % kSizeBuckets;
      cs.alg = (idx / kSizeBuckets) % kAlgSlots;
      cs.coll = idx / (kSizeBuckets * kAlgSlots);
      rs.cells.push_back(cs);
    }
    s.ranks.push_back(std::move(rs));
  }
  return s;
}

// ---------------------------------------------------------------------------
// yhccl-metrics/1 JSON
// ---------------------------------------------------------------------------

bench::Json Snapshot::to_json() const {
  bench::Json j = bench::Json::object();
  j.set("schema", kMetricsSchema);
  j.set("pid", static_cast<std::int64_t>(pid));
  j.set("nranks", static_cast<std::int64_t>(nranks));
  j.set("ticks_per_second", ticks_per_second);
  j.set("t_origin", t_origin);

  bench::Json t = bench::Json::object();
  t.set("runs", team.runs);
  t.set("epoch", team.epoch);
  t.set("active_ranks", team.active_ranks);
  t.set("straggler_flags", team.straggler_flags);
  bench::Json rs = bench::Json::object();
  rs.set("faults", team.rs_faults);
  rs.set("retries", team.rs_retries);
  rs.set("recoveries", team.rs_recoveries);
  rs.set("degrades", team.rs_degrades);
  rs.set("quarantines", team.rs_quarantines);
  rs.set("corruptions", team.rs_corruptions);
  rs.set("giveups", team.rs_giveups);
  rs.set("heals", team.rs_heals);
  t.set("resilience", std::move(rs));
  bench::Json pl = bench::Json::object();
  pl.set("lookups", team.plan_lookups);
  pl.set("hits", team.plan_hits);
  pl.set("misses", team.plan_misses);
  pl.set("inserts", team.plan_inserts);
  pl.set("explores", team.plan_explores);
  pl.set("commits", team.plan_commits);
  pl.set("loaded", team.plan_loaded);
  pl.set("entries", team.plan_entries);
  pl.set("quarantines", team.plan_quarantines);
  t.set("plans", std::move(pl));
  j.set("team", std::move(t));

  bench::Json arr = bench::Json::array();
  for (const RankSnap& r : ranks) {
    bench::Json o = bench::Json::object();
    o.set("rank", static_cast<std::int64_t>(r.rank));
    bench::Json sync = bench::Json::object();
    sync.set("barriers", r.barriers);
    sync.set("flag_posts", r.flag_posts);
    sync.set("flag_waits", r.flag_waits);
    o.set("sync", std::move(sync));
    o.set("barrier_wait_ticks", r.barrier_wait_ticks);
    o.set("runs", r.runs);
    o.set("wall_ns", r.wall_ns);
    bench::Json dav = bench::Json::object();
    dav.set("loads", r.dav_loads);
    dav.set("stores", r.dav_stores);
    o.set("dav", std::move(dav));

    bench::Json plans = bench::Json::array();
    for (int c = 1; c < kCollSlots; ++c) {
      const std::uint64_t gge = r.plan_gauge[c];
      if (!gauge_valid(gge)) continue;
      bench::Json p = bench::Json::object();
      p.set("coll", coll_slot_name(c));
      p.set("alg", alg_slot_name(gauge_alg(gge)));
      p.set("arm", static_cast<std::int64_t>(gauge_arm(gge)));
      p.set("source", static_cast<std::int64_t>(gauge_source(gge)));
      p.set("size_bucket", static_cast<std::int64_t>(gauge_bucket(gge)));
      plans.push_back(std::move(p));
    }
    o.set("plans", std::move(plans));

    bench::Json win = bench::Json::array();
    for (const WindowSnap& w : r.window) {
      bench::Json e = bench::Json::object();
      e.set("ordinal", w.ordinal);
      e.set("arrive", w.arrive);
      e.set("depart", w.depart);
      win.push_back(std::move(e));
    }
    o.set("window", std::move(win));

    bench::Json cells = bench::Json::array();
    for (const CellSnap& c : r.cells) {
      bench::Json e = bench::Json::object();
      e.set("coll", coll_slot_name(c.coll));
      e.set("alg", alg_slot_name(c.alg));
      e.set("size_bucket", static_cast<std::int64_t>(c.size_bucket));
      e.set("calls", c.calls);
      e.set("bytes", c.bytes);
      e.set("ticks", c.ticks);
      bench::Json h = bench::Json::array();
      for (int b = 0; b < kLatBuckets; ++b) h.push_back(c.hist[b]);
      e.set("hist", std::move(h));
      cells.push_back(std::move(e));
    }
    o.set("cells", std::move(cells));
    arr.push_back(std::move(o));
  }
  j.set("ranks", std::move(arr));

  bench::Json st = bench::Json::array();
  for (int r : stragglers) st.push_back(static_cast<std::int64_t>(r));
  j.set("stragglers", std::move(st));
  return j;
}

Snapshot Snapshot::from_json(const bench::Json& j) {
  YHCCL_REQUIRE(j.is_object() && j["schema"].as_string() == kMetricsSchema,
                "not a yhccl-metrics/1 document");
  Snapshot s;
  s.pid = static_cast<int>(j["pid"].as_int());
  s.nranks = static_cast<int>(j["nranks"].as_int());
  s.ticks_per_second = j["ticks_per_second"].as_double();
  s.t_origin = j["t_origin"].as_uint();

  const bench::Json& t = j["team"];
  s.team.runs = t["runs"].as_uint();
  s.team.epoch = t["epoch"].as_uint();
  s.team.active_ranks = t["active_ranks"].as_uint();
  s.team.straggler_flags = t["straggler_flags"].as_uint();
  const bench::Json& rsj = t["resilience"];
  s.team.rs_faults = rsj["faults"].as_uint();
  s.team.rs_retries = rsj["retries"].as_uint();
  s.team.rs_recoveries = rsj["recoveries"].as_uint();
  s.team.rs_degrades = rsj["degrades"].as_uint();
  s.team.rs_quarantines = rsj["quarantines"].as_uint();
  s.team.rs_corruptions = rsj["corruptions"].as_uint();
  s.team.rs_giveups = rsj["giveups"].as_uint();
  s.team.rs_heals = rsj["heals"].as_uint();
  const bench::Json& plj = t["plans"];
  s.team.plan_lookups = plj["lookups"].as_uint();
  s.team.plan_hits = plj["hits"].as_uint();
  s.team.plan_misses = plj["misses"].as_uint();
  s.team.plan_inserts = plj["inserts"].as_uint();
  s.team.plan_explores = plj["explores"].as_uint();
  s.team.plan_commits = plj["commits"].as_uint();
  s.team.plan_loaded = plj["loaded"].as_uint();
  s.team.plan_entries = plj["entries"].as_uint();
  s.team.plan_quarantines = plj["quarantines"].as_uint();

  for (const bench::Json& o : j["ranks"].items()) {
    RankSnap r;
    r.rank = static_cast<int>(o["rank"].as_int());
    r.barriers = o["sync"]["barriers"].as_uint();
    r.flag_posts = o["sync"]["flag_posts"].as_uint();
    r.flag_waits = o["sync"]["flag_waits"].as_uint();
    r.barrier_wait_ticks = o["barrier_wait_ticks"].as_uint();
    r.runs = o["runs"].as_uint();
    r.wall_ns = o["wall_ns"].as_uint();
    r.dav_loads = o["dav"]["loads"].as_uint();
    r.dav_stores = o["dav"]["stores"].as_uint();
    for (const bench::Json& p : o["plans"].items()) {
      const int c = coll_id_from_name(p["coll"].as_string());
      if (c <= 0) continue;
      r.plan_gauge[c] = plan_gauge_pack(
          alg_id_from_name(p["alg"].as_string()),
          static_cast<int>(p["arm"].as_int()),
          static_cast<int>(p["source"].as_int()),
          static_cast<int>(p["size_bucket"].as_int()));
    }
    for (const bench::Json& w : o["window"].items()) {
      WindowSnap ws;
      ws.ordinal = w["ordinal"].as_uint();
      ws.arrive = w["arrive"].as_uint();
      ws.depart = w["depart"].as_uint();
      r.window.push_back(ws);
    }
    for (const bench::Json& e : o["cells"].items()) {
      CellSnap c;
      c.coll = coll_id_from_name(e["coll"].as_string());
      c.alg = alg_id_from_name(e["alg"].as_string());
      c.size_bucket = static_cast<int>(e["size_bucket"].as_int());
      c.calls = e["calls"].as_uint();
      c.bytes = e["bytes"].as_uint();
      c.ticks = e["ticks"].as_uint();
      const bench::Json& h = e["hist"];
      for (int b = 0; b < kLatBuckets && b < static_cast<int>(h.size()); ++b)
        c.hist[b] = h.at(static_cast<std::size_t>(b)).as_uint();
      r.cells.push_back(c);
    }
    s.ranks.push_back(std::move(r));
  }
  for (const bench::Json& r : j["stragglers"].items())
    s.stragglers.push_back(static_cast<int>(r.as_int()));
  return s;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

namespace {

void emit_meta(std::string& out, const char* name, const char* help,
               const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string Snapshot::prometheus() const {
  const double hz = ticks_per_second > 0 ? ticks_per_second : 1e9;
  std::string out;
  out.reserve(16384);

  emit_meta(out, "yhccl_sync_barriers_total", "Barrier arrivals per rank.",
            "counter");
  for (const RankSnap& r : ranks)
    appendf(out, "yhccl_sync_barriers_total{rank=\"%d\"} %llu\n", r.rank,
            static_cast<unsigned long long>(r.barriers));
  emit_meta(out, "yhccl_sync_flag_posts_total",
            "Progress-flag publishes per rank.", "counter");
  for (const RankSnap& r : ranks)
    appendf(out, "yhccl_sync_flag_posts_total{rank=\"%d\"} %llu\n", r.rank,
            static_cast<unsigned long long>(r.flag_posts));
  emit_meta(out, "yhccl_sync_flag_waits_total",
            "Progress-flag waits per rank.", "counter");
  for (const RankSnap& r : ranks)
    appendf(out, "yhccl_sync_flag_waits_total{rank=\"%d\"} %llu\n", r.rank,
            static_cast<unsigned long long>(r.flag_waits));
  emit_meta(out, "yhccl_barrier_wait_seconds_total",
            "Cumulative barrier arrive..depart time per rank.", "counter");
  for (const RankSnap& r : ranks)
    appendf(out, "yhccl_barrier_wait_seconds_total{rank=\"%d\"} %.9g\n",
            r.rank, static_cast<double>(r.barrier_wait_ticks) / hz);
  emit_meta(out, "yhccl_rank_runs_total", "Completed team runs per rank.",
            "counter");
  for (const RankSnap& r : ranks)
    appendf(out, "yhccl_rank_runs_total{rank=\"%d\"} %llu\n", r.rank,
            static_cast<unsigned long long>(r.runs));
  emit_meta(out, "yhccl_rank_busy_seconds_total",
            "Wall time inside the SPMD function per rank.", "counter");
  for (const RankSnap& r : ranks)
    appendf(out, "yhccl_rank_busy_seconds_total{rank=\"%d\"} %.9g\n", r.rank,
            static_cast<double>(r.wall_ns) / 1e9);
  emit_meta(out, "yhccl_dav_bytes_total",
            "Measured data-access volume per rank.", "counter");
  for (const RankSnap& r : ranks) {
    appendf(out, "yhccl_dav_bytes_total{rank=\"%d\",dir=\"load\"} %llu\n",
            r.rank, static_cast<unsigned long long>(r.dav_loads));
    appendf(out, "yhccl_dav_bytes_total{rank=\"%d\",dir=\"store\"} %llu\n",
            r.rank, static_cast<unsigned long long>(r.dav_stores));
  }

  emit_meta(out, "yhccl_coll_calls_total",
            "Collective calls by rank/collective/algorithm/size bucket.",
            "counter");
  for (const RankSnap& r : ranks)
    for (const CellSnap& c : r.cells)
      appendf(out,
              "yhccl_coll_calls_total{rank=\"%d\",coll=\"%s\",alg=\"%s\","
              "size_bucket=\"%d\"} %llu\n",
              r.rank, coll_slot_name(c.coll), alg_slot_name(c.alg),
              c.size_bucket, static_cast<unsigned long long>(c.calls));
  emit_meta(out, "yhccl_coll_payload_bytes_total",
            "Collective payload bytes by rank/collective/algorithm/size "
            "bucket.",
            "counter");
  for (const RankSnap& r : ranks)
    for (const CellSnap& c : r.cells)
      appendf(out,
              "yhccl_coll_payload_bytes_total{rank=\"%d\",coll=\"%s\","
              "alg=\"%s\",size_bucket=\"%d\"} %llu\n",
              r.rank, coll_slot_name(c.coll), alg_slot_name(c.alg),
              c.size_bucket, static_cast<unsigned long long>(c.bytes));

  // Latency histograms, aggregated per (coll, alg) across ranks and size
  // buckets so the cardinality stays Prometheus-friendly.  Bucket counts
  // come from the log2 histogram itself, so the series is self-consistent
  // (`_count` == the +Inf bucket) even on a torn live capture.
  struct Agg {
    std::uint64_t hist[kLatBuckets] = {};
    std::uint64_t ticks = 0;
  };
  std::map<std::pair<int, int>, Agg> aggs;
  for (const RankSnap& r : ranks)
    for (const CellSnap& c : r.cells) {
      Agg& a = aggs[{c.coll, c.alg}];
      for (int b = 0; b < kLatBuckets; ++b) a.hist[b] += c.hist[b];
      a.ticks += c.ticks;
    }
  emit_meta(out, "yhccl_coll_latency_seconds",
            "Collective call latency by collective/algorithm.", "histogram");
  for (const auto& [key, a] : aggs) {
    const char* coll = coll_slot_name(key.first);
    const char* alg = alg_slot_name(key.second);
    std::uint64_t cum = 0;
    for (int b = 0; b < kLatBuckets - 1; ++b) {
      cum += a.hist[b];
      appendf(out,
              "yhccl_coll_latency_seconds_bucket{coll=\"%s\",alg=\"%s\","
              "le=\"%.9g\"} %llu\n",
              coll, alg,
              static_cast<double>(bucket_limit(b, kLatBuckets)) / hz,
              static_cast<unsigned long long>(cum));
    }
    cum += a.hist[kLatBuckets - 1];
    appendf(out,
            "yhccl_coll_latency_seconds_bucket{coll=\"%s\",alg=\"%s\","
            "le=\"+Inf\"} %llu\n",
            coll, alg, static_cast<unsigned long long>(cum));
    appendf(out, "yhccl_coll_latency_seconds_sum{coll=\"%s\",alg=\"%s\"} %.9g\n",
            coll, alg, static_cast<double>(a.ticks) / hz);
    appendf(out,
            "yhccl_coll_latency_seconds_count{coll=\"%s\",alg=\"%s\"} %llu\n",
            coll, alg, static_cast<unsigned long long>(cum));
  }

  emit_meta(out, "yhccl_team_runs_total", "Completed Team::run calls.",
            "counter");
  appendf(out, "yhccl_team_runs_total %llu\n",
          static_cast<unsigned long long>(team.runs));
  emit_meta(out, "yhccl_team_epoch", "Current team epoch.", "gauge");
  appendf(out, "yhccl_team_epoch %llu\n",
          static_cast<unsigned long long>(team.epoch));
  emit_meta(out, "yhccl_team_active_ranks", "Ranks in the current membership.",
            "gauge");
  appendf(out, "yhccl_team_active_ranks %llu\n",
          static_cast<unsigned long long>(team.active_ranks));
  emit_meta(out, "yhccl_team_straggler_flags_total",
            "Straggler detector firings.", "counter");
  appendf(out, "yhccl_team_straggler_flags_total %llu\n",
          static_cast<unsigned long long>(team.straggler_flags));

  emit_meta(out, "yhccl_resilience_events_total",
            "Resilient-execution engine events.", "counter");
  const std::pair<const char*, std::uint64_t> rs_events[] = {
      {"faults", team.rs_faults},         {"retries", team.rs_retries},
      {"recoveries", team.rs_recoveries}, {"degrades", team.rs_degrades},
      {"quarantines", team.rs_quarantines},
      {"corruptions", team.rs_corruptions},
      {"giveups", team.rs_giveups},       {"heals", team.rs_heals},
  };
  for (const auto& [name, v] : rs_events)
    appendf(out, "yhccl_resilience_events_total{event=\"%s\"} %llu\n", name,
            static_cast<unsigned long long>(v));

  emit_meta(out, "yhccl_plan_events_total", "Plan registry events.",
            "counter");
  const std::pair<const char*, std::uint64_t> plan_events[] = {
      {"lookups", team.plan_lookups},   {"hits", team.plan_hits},
      {"misses", team.plan_misses},     {"inserts", team.plan_inserts},
      {"explores", team.plan_explores}, {"commits", team.plan_commits},
      {"quarantines", team.plan_quarantines},
  };
  for (const auto& [name, v] : plan_events)
    appendf(out, "yhccl_plan_events_total{event=\"%s\"} %llu\n", name,
            static_cast<unsigned long long>(v));
  emit_meta(out, "yhccl_plan_entries", "Live plan registry entries.", "gauge");
  appendf(out, "yhccl_plan_entries %llu\n",
          static_cast<unsigned long long>(team.plan_entries));
  emit_meta(out, "yhccl_plan_loaded", "Plans loaded from the cache file.",
            "gauge");
  appendf(out, "yhccl_plan_loaded %llu\n",
          static_cast<unsigned long long>(team.plan_loaded));

  if (!stragglers.empty()) {
    emit_meta(out, "yhccl_straggler_flagged",
              "Ranks currently flagged by the straggler detector.", "gauge");
    for (int r : stragglers)
      appendf(out, "yhccl_straggler_flagged{rank=\"%d\"} 1\n", r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Merge (multi-process artifact)
// ---------------------------------------------------------------------------

void Snapshot::merge(const Snapshot& o) {
  pid = 0;  // a merged document no longer belongs to one process
  if (o.nranks > nranks) nranks = o.nranks;
  if (ticks_per_second <= 0) ticks_per_second = o.ticks_per_second;
  ranks.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) ranks[static_cast<std::size_t>(r)].rank = r;

  team.runs += o.team.runs;
  team.straggler_flags += o.team.straggler_flags;
  team.epoch = std::max(team.epoch, o.team.epoch);
  team.active_ranks = std::max(team.active_ranks, o.team.active_ranks);
  team.rs_faults += o.team.rs_faults;
  team.rs_retries += o.team.rs_retries;
  team.rs_recoveries += o.team.rs_recoveries;
  team.rs_degrades += o.team.rs_degrades;
  team.rs_quarantines += o.team.rs_quarantines;
  team.rs_corruptions += o.team.rs_corruptions;
  team.rs_giveups += o.team.rs_giveups;
  team.rs_heals += o.team.rs_heals;
  team.plan_lookups += o.team.plan_lookups;
  team.plan_hits += o.team.plan_hits;
  team.plan_misses += o.team.plan_misses;
  team.plan_inserts += o.team.plan_inserts;
  team.plan_explores += o.team.plan_explores;
  team.plan_commits += o.team.plan_commits;
  team.plan_quarantines += o.team.plan_quarantines;
  team.plan_loaded = std::max(team.plan_loaded, o.team.plan_loaded);
  team.plan_entries = std::max(team.plan_entries, o.team.plan_entries);

  for (const RankSnap& orr : o.ranks) {
    if (orr.rank < 0 || orr.rank >= nranks) continue;
    RankSnap& r = ranks[static_cast<std::size_t>(orr.rank)];
    r.barriers += orr.barriers;
    r.flag_posts += orr.flag_posts;
    r.flag_waits += orr.flag_waits;
    r.barrier_wait_ticks += orr.barrier_wait_ticks;
    r.runs += orr.runs;
    r.wall_ns += orr.wall_ns;
    r.dav_loads += orr.dav_loads;
    r.dav_stores += orr.dav_stores;
    for (int c = 0; c < kCollSlots; ++c)
      if (gauge_valid(orr.plan_gauge[c])) r.plan_gauge[c] = orr.plan_gauge[c];
    for (const CellSnap& oc : orr.cells) {
      CellSnap* dst = nullptr;
      for (CellSnap& c : r.cells)
        if (c.coll == oc.coll && c.alg == oc.alg &&
            c.size_bucket == oc.size_bucket) {
          dst = &c;
          break;
        }
      if (dst == nullptr) {
        CellSnap fresh;
        fresh.coll = oc.coll;
        fresh.alg = oc.alg;
        fresh.size_bucket = oc.size_bucket;
        r.cells.push_back(fresh);
        dst = &r.cells.back();
      }
      dst->calls += oc.calls;
      dst->bytes += oc.bytes;
      dst->ticks += oc.ticks;
      for (int b = 0; b < kLatBuckets; ++b) dst->hist[b] += oc.hist[b];
    }
  }
  for (RankSnap& r : ranks) r.window.clear();
  stragglers.clear();
}

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

namespace {

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

bool check_uint_members(const bench::Json& o, const char* const* keys,
                        std::size_t n, const char* where, std::string* err) {
  if (!o.is_object()) return fail(err, std::string(where) + ": not an object");
  for (std::size_t i = 0; i < n; ++i) {
    const bench::Json* v = o.find(keys[i]);
    if (v == nullptr || !v->is_integer() || v->as_int() < 0)
      return fail(err, std::string(where) + "." + keys[i] +
                           ": missing or not a non-negative integer");
  }
  return true;
}

}  // namespace

bool validate_metrics_json(const bench::Json& j, std::string* err) {
  if (!j.is_object()) return fail(err, "document is not an object");
  if (j["schema"].as_string() != kMetricsSchema)
    return fail(err, "schema is not '" + std::string(kMetricsSchema) + "'");
  if (!j["pid"].is_integer() || j["pid"].as_int() < 0)
    return fail(err, "pid: missing or negative");
  if (!j["nranks"].is_integer() || j["nranks"].as_int() < 1)
    return fail(err, "nranks: missing or < 1");
  if (!j["ticks_per_second"].is_number() ||
      j["ticks_per_second"].as_double() <= 0)
    return fail(err, "ticks_per_second: missing or <= 0");

  static const char* const team_keys[] = {"runs", "epoch", "active_ranks",
                                          "straggler_flags"};
  static const char* const rs_keys[] = {
      "faults",      "retries",     "recoveries", "degrades",
      "quarantines", "corruptions", "giveups",    "heals"};
  static const char* const plan_keys[] = {
      "lookups", "hits",   "misses",  "inserts",    "explores",
      "commits", "loaded", "entries", "quarantines"};
  if (!check_uint_members(j["team"], team_keys, std::size(team_keys), "team",
                          err) ||
      !check_uint_members(j["team"]["resilience"], rs_keys,
                          std::size(rs_keys), "team.resilience", err) ||
      !check_uint_members(j["team"]["plans"], plan_keys,
                          std::size(plan_keys), "team.plans", err))
    return false;

  const bench::Json& ranks = j["ranks"];
  if (!ranks.is_array()) return fail(err, "ranks: missing or not an array");
  const int nranks = static_cast<int>(j["nranks"].as_int());
  if (static_cast<int>(ranks.size()) != nranks)
    return fail(err, "ranks: length != nranks");
  static const char* const sync_keys[] = {"barriers", "flag_posts",
                                          "flag_waits"};
  static const char* const rank_keys[] = {"barrier_wait_ticks", "runs",
                                          "wall_ns"};
  static const char* const cell_keys[] = {"calls", "bytes", "ticks"};
  static const char* const dav_keys[] = {"loads", "stores"};
  static const char* const win_keys[] = {"ordinal", "arrive", "depart"};
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const bench::Json& r = ranks.at(i);
    const std::string where = "ranks[" + std::to_string(i) + "]";
    if (!r.is_object()) return fail(err, where + ": not an object");
    if (!r["rank"].is_integer() || r["rank"].as_int() < 0 ||
        r["rank"].as_int() >= nranks)
      return fail(err, where + ".rank: out of [0, nranks)");
    if (!check_uint_members(r["sync"], sync_keys, std::size(sync_keys),
                            (where + ".sync").c_str(), err) ||
        !check_uint_members(r, rank_keys, std::size(rank_keys),
                            where.c_str(), err) ||
        !check_uint_members(r["dav"], dav_keys, std::size(dav_keys),
                            (where + ".dav").c_str(), err))
      return false;
    const bench::Json* cells = r.find("cells");
    if (cells == nullptr || !cells->is_array())
      return fail(err, where + ".cells: missing or not an array");
    for (std::size_t k = 0; k < cells->size(); ++k) {
      const bench::Json& c = cells->at(k);
      const std::string cw = where + ".cells[" + std::to_string(k) + "]";
      if (coll_id_from_name(c["coll"].as_string()) <= 0)
        return fail(err, cw + ".coll: unknown collective name");
      if (c["alg"].as_string() != "?" &&
          alg_id_from_name(c["alg"].as_string()) <= 0)
        return fail(err, cw + ".alg: unknown algorithm name");
      if (!c["size_bucket"].is_integer() || c["size_bucket"].as_int() < 0 ||
          c["size_bucket"].as_int() >= kSizeBuckets)
        return fail(err, cw + ".size_bucket: out of range");
      if (!check_uint_members(c, cell_keys, std::size(cell_keys), cw.c_str(),
                              err))
        return false;
      const bench::Json* h = c.find("hist");
      if (h == nullptr || !h->is_array() ||
          static_cast<int>(h->size()) != kLatBuckets)
        return fail(err, cw + ".hist: not an array of kLatBuckets integers");
      for (const bench::Json& b : h->items())
        if (!b.is_integer() || b.as_int() < 0)
          return fail(err, cw + ".hist: negative or non-integer bucket");
    }
    const bench::Json* win = r.find("window");
    if (win == nullptr || !win->is_array())
      return fail(err, where + ".window: missing or not an array");
    if (static_cast<int>(win->size()) > kWindowSlots)
      return fail(err, where + ".window: longer than kWindowSlots");
    for (std::size_t k = 0; k < win->size(); ++k)
      if (!check_uint_members(win->at(k), win_keys, std::size(win_keys),
                              (where + ".window").c_str(), err))
        return false;
  }

  const bench::Json& st = j["stragglers"];
  if (!st.is_array()) return fail(err, "stragglers: missing or not an array");
  for (const bench::Json& r : st.items())
    if (!r.is_integer() || r.as_int() < 0 || r.as_int() >= nranks)
      return fail(err, "stragglers: rank out of range");
  return true;
}

bool validate_prometheus(const std::string& text, std::string* err) {
  std::map<std::string, std::string> types;  // metric family -> type
  // histogram bucket series key -> (cumulative values in order, saw +Inf,
  // +Inf value); count series key -> value.
  struct HistSeries {
    std::vector<double> cum;
    bool inf = false;
    double inf_value = 0;
  };
  std::map<std::string, HistSeries> hists;
  std::map<std::string, double> counts;

  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    const std::string at = " (line " + std::to_string(lineno) + ")";
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"
      if (line.rfind("# HELP ", 0) == 0) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos || sp == 0)
          return fail(err, "malformed TYPE line" + at);
        const std::string name = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        if (type != "counter" && type != "gauge" && type != "histogram")
          return fail(err, "unknown metric type '" + type + "'" + at);
        types[name] = type;
        continue;
      }
      return fail(err, "unknown comment directive" + at);
    }
    // Sample: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos || name_end == 0)
      return fail(err, "malformed sample line" + at);
    const std::string name = line.substr(0, name_end);
    std::string labels;
    std::size_t value_at = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos)
        return fail(err, "unterminated label set" + at);
      labels = line.substr(name_end + 1, close - name_end - 1);
      value_at = close + 1;
    }
    while (value_at < line.size() && line[value_at] == ' ') ++value_at;
    if (value_at >= line.size())
      return fail(err, "sample has no value" + at);
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + value_at, &end);
    if (end == nullptr || *end != '\0')
      return fail(err, "sample value is not a number" + at);

    // Resolve the declared family: exact, or histogram suffixes.
    std::string family = name;
    std::string suffix;
    auto it = types.find(family);
    if (it == types.end()) {
      for (const char* s : {"_bucket", "_sum", "_count"}) {
        const std::size_t n = std::strlen(s);
        if (family.size() > n &&
            family.compare(family.size() - n, n, s) == 0) {
          const std::string base = family.substr(0, family.size() - n);
          auto bit = types.find(base);
          if (bit != types.end() && bit->second == "histogram") {
            it = bit;
            family = base;
            suffix = s;
            break;
          }
        }
      }
    }
    if (it == types.end())
      return fail(err, "sample for undeclared metric '" + name + "'" + at);
    if (it->second == "histogram" && suffix.empty())
      return fail(err, "bare sample for histogram family '" + family + "'" +
                           at);
    if (it->second != "histogram" && !suffix.empty())
      return fail(err,
                  "histogram suffix on non-histogram '" + family + "'" + at);
    if (value < 0 && it->second != "gauge")
      return fail(err, "negative counter sample" + at);

    if (suffix == "_bucket") {
      // Strip le from the label set to key the series.
      std::string le;
      std::string rest_labels;
      std::size_t p = 0;
      while (p < labels.size()) {
        std::size_t comma = labels.find(',', p);
        if (comma == std::string::npos) comma = labels.size();
        const std::string item = labels.substr(p, comma - p);
        if (item.rfind("le=", 0) == 0)
          le = item.substr(3);
        else {
          if (!rest_labels.empty()) rest_labels += ',';
          rest_labels += item;
        }
        p = comma + 1;
      }
      if (le.size() < 2 || le.front() != '"' || le.back() != '"')
        return fail(err, "histogram bucket without le label" + at);
      le = le.substr(1, le.size() - 2);
      HistSeries& h = hists[family + "{" + rest_labels + "}"];
      if (le == "+Inf") {
        h.inf = true;
        h.inf_value = value;
      }
      if (!h.cum.empty() && value + 1e-9 < h.cum.back())
        return fail(err, "histogram '" + family + "{" + rest_labels +
                             "}' is not cumulative" + at);
      h.cum.push_back(value);
    } else if (suffix == "_count") {
      counts[family + "{" + labels + "}"] = value;
    }
  }

  for (const auto& [key, h] : hists) {
    if (!h.inf)
      return fail(err, "histogram series " + key + " has no +Inf bucket");
    auto cit = counts.find(key);
    if (cit != counts.end() && cit->second != h.inf_value)
      return fail(err, "histogram series " + key + " count != +Inf bucket");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Straggler detection
// ---------------------------------------------------------------------------

StragglerReport detect_stragglers(const Snapshot& s, double k,
                                  double min_seconds) {
  StragglerReport rep;
  std::vector<const RankSnap*> with_window;
  for (const RankSnap& r : s.ranks)
    if (!r.window.empty()) with_window.push_back(&r);
  if (with_window.size() < 2) return rep;

  // A rank's own time to a barrier is its arrival minus its departure from
  // the previous node barrier of the same run.  Raw arrival times would
  // also charge it for being released late (a waiter woken from the
  // backoff's sleep stage, a thread the scheduler started late), so a
  // run's first barrier, which has no departure before it, is never
  // compared.  Group these times by ordinal; only ordinals stamped by every
  // window-bearing rank are team-comparable (membership shrink and window
  // wraparound fall out of this filter).
  std::map<std::uint64_t, std::vector<std::pair<int, std::uint64_t>>> by_ord;
  for (const RankSnap* r : with_window) {
    std::map<std::uint64_t, std::uint64_t> depart;  // ordinal -> depart
    for (const WindowSnap& w : r->window) depart[w.ordinal] = w.depart;
    for (const WindowSnap& w : r->window) {
      if ((w.ordinal & 0xffffffull) <= 1) continue;
      const auto prev = depart.find(w.ordinal - 1);
      if (prev == depart.end() || w.arrive < prev->second) continue;
      by_ord[w.ordinal].emplace_back(r->rank, w.arrive - prev->second);
    }
  }

  std::map<int, std::pair<double, int>> dev;  // rank -> (sum dev ticks, n)
  for (const auto& [ord, arrivals] : by_ord) {
    if (arrivals.size() != with_window.size()) continue;
    std::vector<double> ts;
    ts.reserve(arrivals.size());
    for (const auto& [rank, t] : arrivals)
      ts.push_back(static_cast<double>(t));
    const double med = median_of(ts);
    for (const auto& [rank, t] : arrivals) {
      auto& d = dev[rank];
      d.first += static_cast<double>(t) - med;
      d.second += 1;
    }
    ++rep.ordinals;
  }
  if (rep.ordinals < 4) return rep;  // not enough full-team evidence

  const double hz = s.ticks_per_second > 0 ? s.ticks_per_second : 1e9;
  std::vector<double> per_rank;
  for (const auto& [rank, d] : dev)
    per_rank.push_back(d.first / d.second / hz);
  const double med = median_of(per_rank);
  std::vector<double> ad;
  for (double d : per_rank) ad.push_back(d > med ? d - med : med - d);
  const double mad = median_of(ad);
  const double threshold = std::max(k * mad, min_seconds);

  for (const auto& [rank, d] : dev) {
    StragglerReport::RankVerdict v;
    v.rank = rank;
    v.mean_dev_seconds = d.first / d.second / hz;
    v.flagged = v.mean_dev_seconds - med > threshold;
    if (v.flagged) rep.flagged.push_back(rank);
    rep.ranks.push_back(v);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// yhccl_top renderer
// ---------------------------------------------------------------------------

namespace {

const char* ansi(bool color, const char* code) {
  return color ? code : "";
}

/// Approximate quantile from a log2 histogram: the upper edge of the
/// bucket where the cumulative count crosses q.
double hist_quantile(const std::uint64_t* hist, std::uint64_t total, double q,
                     double hz) {
  if (total == 0) return 0;
  const double want = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (int b = 0; b < kLatBuckets; ++b) {
    cum += hist[b];
    if (static_cast<double>(cum) >= want)
      return static_cast<double>(bucket_limit(b, kLatBuckets)) / hz;
  }
  return static_cast<double>(bucket_limit(kLatBuckets - 1, kLatBuckets)) / hz;
}

std::string human_bytes(double b) {
  char buf[32];
  const char* unit = "B";
  if (b >= 1e9) {
    b /= 1e9;
    unit = "GB";
  } else if (b >= 1e6) {
    b /= 1e6;
    unit = "MB";
  } else if (b >= 1e3) {
    b /= 1e3;
    unit = "KB";
  }
  std::snprintf(buf, sizeof buf, "%.1f %s", b, unit);
  return buf;
}

}  // namespace

std::string render_top(const Snapshot& snap, const Snapshot* prev,
                       bool color) {
  const double hz = snap.ticks_per_second > 0 ? snap.ticks_per_second : 1e9;
  const char* bold = ansi(color, "\x1b[1m");
  const char* dim = ansi(color, "\x1b[2m");
  const char* red = ansi(color, "\x1b[31m");
  const char* reset = ansi(color, "\x1b[0m");
  std::string out;
  out.reserve(8192);

  appendf(out, "%syhccl_top%s — pid %d · %d ranks · epoch %llu · runs %llu",
          bold, reset, snap.pid, snap.nranks,
          static_cast<unsigned long long>(snap.team.epoch),
          static_cast<unsigned long long>(snap.team.runs));
  if (prev != nullptr && snap.team.runs >= prev->team.runs)
    appendf(out, " (%s+%llu%s)", dim,
            static_cast<unsigned long long>(snap.team.runs - prev->team.runs),
            reset);
  if (snap.team.straggler_flags > 0)
    appendf(out, " · %sstraggler flags %llu%s", red,
            static_cast<unsigned long long>(snap.team.straggler_flags),
            reset);
  out += '\n';

  appendf(out,
          "%sresilience%s  faults %llu  retries %llu  recoveries %llu  "
          "degrades %llu  quarantines %llu  giveups %llu\n",
          dim, reset, static_cast<unsigned long long>(snap.team.rs_faults),
          static_cast<unsigned long long>(snap.team.rs_retries),
          static_cast<unsigned long long>(snap.team.rs_recoveries),
          static_cast<unsigned long long>(snap.team.rs_degrades),
          static_cast<unsigned long long>(snap.team.rs_quarantines),
          static_cast<unsigned long long>(snap.team.rs_giveups));
  const std::uint64_t looked = snap.team.plan_lookups;
  appendf(out,
          "%splans%s       lookups %llu  hits %llu (%.0f%%)  explores %llu  "
          "commits %llu  entries %llu  quarantines %llu\n",
          dim, reset, static_cast<unsigned long long>(looked),
          static_cast<unsigned long long>(snap.team.plan_hits),
          looked > 0 ? 100.0 * static_cast<double>(snap.team.plan_hits) /
                           static_cast<double>(looked)
                     : 0.0,
          static_cast<unsigned long long>(snap.team.plan_explores),
          static_cast<unsigned long long>(snap.team.plan_commits),
          static_cast<unsigned long long>(snap.team.plan_entries),
          static_cast<unsigned long long>(snap.team.plan_quarantines));

  const StragglerReport srep = detect_stragglers(snap);
  appendf(out,
          "%s rank     runs    busy(s)    wait(s)  wait%%  barriers     "
          "posts     waits  skew(us)  plan%s\n",
          bold, reset);
  for (const RankSnap& r : snap.ranks) {
    const double busy = static_cast<double>(r.wall_ns) / 1e9;
    const double wait = static_cast<double>(r.barrier_wait_ticks) / hz;
    double skew_us = 0;
    bool flagged = false;
    for (const auto& v : srep.ranks)
      if (v.rank == r.rank) {
        skew_us = v.mean_dev_seconds * 1e6;
        flagged = v.flagged;
      }
    for (int x : snap.stragglers)
      if (x == r.rank) flagged = true;
    std::string plan = "-";
    for (int c = kCollSlots - 1; c >= 1; --c)
      if (gauge_valid(r.plan_gauge[c])) {
        plan = std::string(coll_slot_name(c)) + ":" +
               alg_slot_name(gauge_alg(r.plan_gauge[c])) + "#" +
               std::to_string(gauge_arm(r.plan_gauge[c]));
        break;
      }
    appendf(out,
            "%s%5d  %7llu  %9.3f  %9.3f  %4.0f%%  %8llu  %8llu  %8llu  "
            "%8.1f  %-24s%s%s\n",
            flagged ? red : "", r.rank,
            static_cast<unsigned long long>(r.runs), busy, wait,
            busy > 0 ? 100.0 * wait / busy : 0.0,
            static_cast<unsigned long long>(r.barriers),
            static_cast<unsigned long long>(r.flag_posts),
            static_cast<unsigned long long>(r.flag_waits), skew_us,
            plan.c_str(), flagged ? "  ← STRAGGLER" : "",
            flagged ? reset : "");
  }

  // Per-(coll, alg) latency summary, aggregated across ranks/size buckets.
  struct Agg {
    std::uint64_t hist[kLatBuckets] = {};
    std::uint64_t calls = 0, bytes = 0;
  };
  std::map<std::pair<int, int>, Agg> aggs;
  for (const RankSnap& r : snap.ranks)
    for (const CellSnap& c : r.cells) {
      Agg& a = aggs[{c.coll, c.alg}];
      for (int b = 0; b < kLatBuckets; ++b) a.hist[b] += c.hist[b];
      a.calls += c.calls;
      a.bytes += c.bytes;
    }
  if (!aggs.empty())
    appendf(out, "%s coll/alg                        calls    payload   "
                 "p50        p90        p99%s\n",
            bold, reset);
  for (const auto& [key, a] : aggs) {
    std::uint64_t total = 0;
    for (int b = 0; b < kLatBuckets; ++b) total += a.hist[b];
    const std::string name = std::string(coll_slot_name(key.first)) + "/" +
                             alg_slot_name(key.second);
    appendf(out, " %-28s  %7llu  %9s  %8.1fus %8.1fus %8.1fus\n",
            name.c_str(), static_cast<unsigned long long>(a.calls),
            human_bytes(static_cast<double>(a.bytes)).c_str(),
            hist_quantile(a.hist, total, 0.50, hz) * 1e6,
            hist_quantile(a.hist, total, 0.90, hz) * 1e6,
            hist_quantile(a.hist, total, 0.99, hz) * 1e6);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Live shm mirror (seqlock)
// ---------------------------------------------------------------------------

std::string mirror_shm_name(int pid) {
  return "/yhccl-metrics-" + std::to_string(pid);
}

bool mirror_publish(void* mem, std::size_t cap,
                    const std::string& text) noexcept {
  if (mem == nullptr || cap < sizeof(MirrorHeader)) return false;
  if (text.size() > cap - sizeof(MirrorHeader)) return false;
  auto* h = static_cast<MirrorHeader*>(mem);
  char* payload = reinterpret_cast<char*>(h + 1);
  const std::uint64_t s0 = h->seq.load(std::memory_order_relaxed);
  // Single-writer seqlock.  The odd mark before the payload memcpy relies
  // on x86 store ordering (the same TSO assumption trace_now()'s rdtsc
  // already bakes in); the final release store publishes everything.
  h->seq.store(s0 + 1, std::memory_order_relaxed);
  mc::fence(std::memory_order_release);
  std::memcpy(payload, text.data(), text.size());
  h->bytes.store(text.size(), std::memory_order_relaxed);
  h->seq.store(s0 + 2, std::memory_order_release);
  return true;
}

bool mirror_read(const void* mem, std::size_t cap, std::string& out) {
  if (mem == nullptr || cap < sizeof(MirrorHeader)) return false;
  const auto* h = static_cast<const MirrorHeader*>(mem);
  const char* payload = reinterpret_cast<const char*>(h + 1);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t s1 = h->seq.load(std::memory_order_acquire);
    if (s1 == 0) return false;  // never published
    if ((s1 & 1) == 0) {
      const std::uint64_t n = h->bytes.load(std::memory_order_relaxed);
      if (n > cap - sizeof(MirrorHeader)) return false;
      out.assign(payload, n);
      mc::fence(std::memory_order_acquire);
      if (h->seq.load(std::memory_order_relaxed) == s1) return true;
    }
    timespec ts{0, 500'000};  // 0.5 ms between retries
    nanosleep(&ts, nullptr);
  }
  return false;
}

}  // namespace yhccl::metrics
