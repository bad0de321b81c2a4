#include "yhccl/trace/export.hpp"

#include <algorithm>
#include <string>

namespace yhccl::trace {

Harvest::Harvest(const TraceBuffer& buf)
    : nranks_(buf.nranks()),
      origin_(buf.t_origin()),
      sec_per_tick_(1.0 / buf.ticks_per_second()) {
  rings_.resize(static_cast<std::size_t>(buf.nrings()));
  for (int r = 0; r < buf.nrings(); ++r) {
    const std::uint64_t n = buf.count(r);
    auto& out = rings_[static_cast<std::size_t>(r)];
    out.reserve(static_cast<std::size_t>(n - buf.first_kept(r)));
    for (std::uint64_t i = buf.first_kept(r); i < n; ++i)
      out.push_back(buf.read(r, i));
  }
}

std::size_t Harvest::total_events() const noexcept {
  std::size_t n = 0;
  for (const auto& r : rings_) n += r.size();
  return n;
}

namespace {

const char* isa_tier_name(int tier) noexcept {
  switch (tier) {
    case 0: return "scalar";
    case 1: return "avx2";
    case 2: return "avx512";
    default: return "?";
  }
}

/// Per-phase args object for one record.
bench::Json rec_args(const Rec& rec) {
  bench::Json a = bench::Json::object();
  const auto ph = static_cast<Phase>(rec.phase);
  switch (ph) {
    case Phase::coll:
      a.set("payload_bytes", rec.arg);
      a.set("alg", static_cast<std::int64_t>(rec.variant));
      a.set("algorithm", alg_id_name(rec.variant));
      break;
    case Phase::copy_in:
    case Phase::copy_out:
    case Phase::reduce:
      a.set("bytes", rec.arg);
      a.set("nt", (rec.variant & 1u) != 0);
      a.set("isa", isa_tier_name(rec.variant >> 1));
      break;
    case Phase::barrier:
      a.set("ordinal", rec.arg);
      a.set("scope", rec.variant == 0
                         ? bench::Json("node")
                         : bench::Json("socket" +
                                       std::to_string(rec.variant - 1)));
      break;
    case Phase::flag_wait:
    case Phase::flag_post:
      a.set("value", rec.arg);
      break;
    case Phase::fifo:
    case Phase::rndv:
      a.set("bytes", rec.arg);
      break;
    case Phase::fault:
      a.set("site", site_name(static_cast<Site>(rec.variant)));
      a.set("word", rec.arg);
      break;
    case Phase::recover:
      a.set("epoch", rec.arg);
      break;
    default: break;
  }
  if (rec.coll != 0) a.set("coll", coll_id_name(rec.coll));
  return a;
}

}  // namespace

bench::Json Harvest::chrome_json() const {
  bench::Json root = bench::Json::object();
  root.set("schema", "yhccl-trace/1");
  root.set("displayTimeUnit", "ms");
  bench::Json events = bench::Json::array();
  for (int r = 0; r <= nranks_; ++r) {
    bench::Json meta = bench::Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", r);
    meta.set("tid", 0);
    bench::Json args = bench::Json::object();
    args.set("name", r < nranks_ ? "rank " + std::to_string(r)
                                 : std::string("team (parent)"));
    meta.set("args", args);
    events.push_back(std::move(meta));
  }
  for (int r = 0; r <= nranks_; ++r) {
    for (const Rec& rec : rings_[static_cast<std::size_t>(r)]) {
      const auto ph = static_cast<Phase>(rec.phase);
      bench::Json e = bench::Json::object();
      const bool marker = (rec.flags & kFlagMarker) != 0;
      const bool point = marker || (rec.flags & kFlagInstant) != 0;
      e.set("name", marker ? std::string(phase_name(ph)) + "_stall"
                           : std::string(phase_name(ph)));
      if (rec.coll != 0) e.set("cat", coll_id_name(rec.coll));
      e.set("ph", point ? "i" : "X");
      e.set("ts", to_us(rec.t0));
      if (point) {
        e.set("s", "t");  // thread-scoped instant
      } else {
        // A harvested span always has t1 >= t0 (same writer, one TSC).
        e.set("dur", to_us(rec.t1) - to_us(rec.t0));
      }
      e.set("pid", r);
      e.set("tid", 0);
      e.set("args", rec_args(rec));
      events.push_back(std::move(e));
    }
  }
  root.set("traceEvents", std::move(events));
  return root;
}

bench::Json Harvest::flight_json(const FlightContext& fc,
                                 std::size_t last_n) const {
  bench::Json root = bench::Json::object();
  root.set("schema", "yhccl-flight/1");
  root.set("fault", fc.fault);
  root.set("rank", fc.rank);
  root.set("epoch", fc.epoch);

  // Abort site: prefer the faulting rank's own last Phase::fault record
  // (the injection point pushes one before dying; the shared-memory store
  // survives _exit), else the most recent one any survivor recorded.
  Site site = Site::unknown;
  std::uint64_t site_t = 0;
  bool from_faulting_rank = false;
  for (int r = 0; r < nranks_ && !from_faulting_rank; ++r) {
    for (const Rec& rec : rings_[static_cast<std::size_t>(r)]) {
      if (rec.phase != static_cast<std::uint8_t>(Phase::fault)) continue;
      if (r == fc.rank) {
        site = static_cast<Site>(rec.variant);
        from_faulting_rank = true;
        break;
      }
      if (site_t == 0 || rec.t0 > site_t) {
        site = static_cast<Site>(rec.variant);
        site_t = rec.t0;
      }
    }
  }
  root.set("site", site_name(site));
  root.set("nranks", nranks_);

  auto dump_ring = [&](int r) {
    const auto& ring = rings_[static_cast<std::size_t>(r)];
    const std::size_t n = std::min(last_n, ring.size());
    bench::Json events = bench::Json::array();
    for (std::size_t i = ring.size() - n; i < ring.size(); ++i) {
      const Rec& rec = ring[i];
      const auto ph = static_cast<Phase>(rec.phase);
      bench::Json e = bench::Json::object();
      e.set("t_us", to_us(rec.t0));
      if ((rec.flags & kFlagMarker) != 0)
        e.set("stalled", true);
      else if ((rec.flags & kFlagInstant) == 0)
        e.set("dur_us", to_us(rec.t1) - to_us(rec.t0));
      e.set("phase", phase_name(ph));
      if (rec.coll != 0) e.set("coll", coll_id_name(rec.coll));
      e.set("args", rec_args(rec));
      events.push_back(std::move(e));
    }
    return events;
  };

  bench::Json ranks = bench::Json::array();
  for (int r = 0; r < nranks_; ++r) {
    bench::Json row = bench::Json::object();
    row.set("rank", r);
    row.set("events", dump_ring(r));
    ranks.push_back(std::move(row));
  }
  root.set("ranks", std::move(ranks));
  root.set("team", dump_ring(nranks_));
  return root;
}

// ---------------------------------------------------------------------------
// Schema validation (trace_check / CI)
// ---------------------------------------------------------------------------

namespace {

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

}  // namespace

bool validate_chrome(const bench::Json& j, std::string* err) {
  if (!j.is_object()) return fail(err, "top level is not an object");
  const bench::Json* events = j.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return fail(err, "missing traceEvents array");
  if (events->size() == 0) return fail(err, "traceEvents is empty");
  std::size_t spans = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const bench::Json& e = events->at(i);
    const std::string at = "traceEvents[" + std::to_string(i) + "]: ";
    if (!e.is_object()) return fail(err, at + "not an object");
    if (!e["name"].is_string()) return fail(err, at + "missing name");
    if (!e["ph"].is_string()) return fail(err, at + "missing ph");
    const std::string& ph = e["ph"].as_string();
    if (ph != "X" && ph != "i" && ph != "M" && ph != "B" && ph != "E")
      return fail(err, at + "unknown ph '" + ph + "'");
    if (!e["pid"].is_number() || e["pid"].as_int() < 0)
      return fail(err, at + "bad pid");
    if (!e["tid"].is_number()) return fail(err, at + "missing tid");
    if (ph == "M") continue;
    if (!e["ts"].is_number()) return fail(err, at + "missing ts");
    if (e["ts"].as_double() < 0) return fail(err, at + "negative ts");
    if (ph == "X") {
      if (!e["dur"].is_number() || e["dur"].as_double() < 0)
        return fail(err, at + "X event without non-negative dur");
      ++spans;
    }
    if (e["name"].as_string() == phase_name(Phase::coll)) {
      const bench::Json& alg = e["args"]["alg"];
      if (!alg.is_integer() || alg.as_int() < 0 ||
          alg.as_int() >= kMaxAlgIds ||
          std::string(alg_id_name(static_cast<std::uint8_t>(alg.as_int()))) ==
              "?")
        return fail(err, at + "coll span without a known alg id");
    }
  }
  if (spans == 0) return fail(err, "no complete (X) span events");
  return true;
}

bool validate_flight(const bench::Json& j, std::string* err) {
  if (!j.is_object()) return fail(err, "top level is not an object");
  if (j["schema"].as_string() != "yhccl-flight/1")
    return fail(err, "schema is not yhccl-flight/1");
  for (const char* key : {"fault", "site"})
    if (!j[key].is_string()) return fail(err, std::string(key) + " missing");
  if (!j["epoch"].is_number()) return fail(err, "epoch missing");
  const bench::Json* ranks = j.find("ranks");
  if (ranks == nullptr || !ranks->is_array() || ranks->size() == 0)
    return fail(err, "ranks array missing or empty");
  for (std::size_t r = 0; r < ranks->size(); ++r) {
    const bench::Json& row = ranks->at(r);
    const std::string at = "ranks[" + std::to_string(r) + "]: ";
    if (!row["rank"].is_number()) return fail(err, at + "rank missing");
    const bench::Json* ev = row.find("events");
    if (ev == nullptr || !ev->is_array())
      return fail(err, at + "events missing");
    for (std::size_t i = 0; i < ev->size(); ++i) {
      const bench::Json& e = ev->at(i);
      if (!e["phase"].is_string() || !e["t_us"].is_number())
        return fail(err, at + "event " + std::to_string(i) + " malformed");
    }
  }
  return true;
}

}  // namespace yhccl::trace
