// Plan persistence ("yhccl-plan/1") and offline warming from bench reports
// (docs/tuning.md).
#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "yhccl/coll/plan.hpp"
#include "yhccl/common/error.hpp"

namespace yhccl::coll::plan {

using bench::Json;

namespace {

// The bench harness (yhccl_bench) layers *above* the collectives, so the
// reader/writer here is local rather than shared with bench::*_json_file.
constexpr const char* kBenchSchema = "yhccl-bench/1";

Json read_json_file(const std::string& path, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  return Json::parse(os.str(), err);
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool kind_from_name(const std::string& s, CollKind* out) {
  for (int k = 0; k < static_cast<int>(CollKind::kCount_); ++k)
    if (s == coll_kind_name(static_cast<CollKind>(k))) {
      *out = static_cast<CollKind>(k);
      return true;
    }
  return false;
}

bool dtype_from_name(const std::string& s, Datatype* out) {
  for (const auto d : {Datatype::u8, Datatype::i32, Datatype::i64,
                       Datatype::f32, Datatype::f64})
    if (s == dtype_name(d)) {
      *out = d;
      return true;
    }
  return false;
}

bool op_from_name(const std::string& s, ReduceOp* out) {
  for (const auto o : {ReduceOp::sum, ReduceOp::prod, ReduceOp::max,
                       ReduceOp::min, ReduceOp::band, ReduceOp::bor})
    if (s == op_name(o)) {
      *out = o;
      return true;
    }
  return false;
}

bool alg_from_name(const std::string& s, Algorithm* out) {
  for (const auto a :
       {Algorithm::automatic, Algorithm::ma_flat, Algorithm::ma_socket_aware,
        Algorithm::dpml_two_level, Algorithm::pipelined, Algorithm::fold,
        Algorithm::direct})
    if (s == algorithm_name(a)) {
      *out = a;
      return true;
    }
  return false;
}

bool nt_from_name(const std::string& s, NtChoice* out) {
  for (const auto n :
       {NtChoice::adaptive, NtChoice::temporal, NtChoice::stream})
    if (s == nt_choice_name(n)) {
      *out = n;
      return true;
    }
  return false;
}

PlanSource source_from_name(const std::string& s) {
  if (s == plan_source_name(PlanSource::prior)) return PlanSource::prior;
  if (s == plan_source_name(PlanSource::online)) return PlanSource::online;
  return PlanSource::bench;
}

/// log2 of a persisted pow2 byte size; 0 encodes "keep the default".
bool log2_field(std::uint64_t bytes, std::uint8_t* out) {
  if (bytes == 0) {
    *out = 0;
    return true;
  }
  if (!std::has_single_bit(bytes) || bytes > (std::uint64_t{1} << 62))
    return false;
  *out = static_cast<std::uint8_t>(std::bit_width(bytes) - 1);
  return true;
}

/// Map a bench-report arm label onto a schedulable algorithm.  Baseline
/// arms (MPI, rings, Rabenseifner, "auto" itself) are not plans and are
/// skipped by returning false.
bool normalize_bench_arm(std::string name, Algorithm* out) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (name == "dpml-2l" || name == "dpml" || name == "dpml-two-level" ||
      name == "yhccl-dpml") {
    *out = Algorithm::dpml_two_level;
    return true;
  }
  if (name == "socket-ma" || name == "ma-socket" || name == "yhccl-socket-ma") {
    *out = Algorithm::ma_socket_aware;
    return true;
  }
  if (name == "ma" || name == "flat-ma" || name == "ma-flat" ||
      name == "yhccl-ma") {
    *out = Algorithm::ma_flat;
    return true;
  }
  if (name == "pipelined" || name == "yhccl-pipelined") {
    *out = Algorithm::pipelined;
    return true;
  }
  if (name == "fold" || name == "yhccl-fold") {
    *out = Algorithm::fold;
    return true;
  }
  if (name == "direct" || name == "yhccl-direct") {
    *out = Algorithm::direct;
    return true;
  }
  return false;
}

/// May a plan naming `alg` serve `key` on a team with `caps`?  Never a
/// pipeline for a reduction; direct only in the buckets where the
/// default-option prior serves it on this backend (a forked team's window
/// verdict falls back there); fold only where the default-option prior
/// picks it (there every call of the bucket fits its fold stage, on either
/// backend).
bool servable(Algorithm alg, const PlanKey& key, const rt::PlanCaps& caps) {
  if (is_reduction(key.kind) && alg == Algorithm::pipelined) return false;
  if (alg != Algorithm::fold && alg != Algorithm::direct) return true;
  const CollOpts defaults{};
  const std::size_t rep = bucket_rep_bytes(key.kind, key.bucket, defaults);
  if (alg == Algorithm::direct)
    return serves_direct(key.kind, rep, defaults, caps);
  return staged_reduction_algorithm(key.kind, rep, defaults, caps.topo()) ==
         Algorithm::fold;
}

Json entry_to_json(std::uint64_t sig, const PlanKey& key, const Plan& p) {
  Json e = Json::object();
  e.set("signature", hex64(sig));
  e.set("collective", coll_kind_name(key.kind));
  e.set("dtype", std::string(dtype_name(key.dtype)));
  e.set("op", std::string(op_name(key.op)));
  e.set("ranks", key.ranks);
  e.set("sockets", key.sockets);
  e.set("bucket", static_cast<int>(key.bucket));
  e.set("bytes_hi", bucket_rep_bytes(key.kind, key.bucket, CollOpts{}));
  e.set("algorithm", algorithm_name(p.algorithm));
  e.set("nt", nt_choice_name(p.nt));
  e.set("slice_max",
        p.slice_log2 != 0 ? (std::uint64_t{1} << p.slice_log2)
                          : std::uint64_t{0});
  e.set("dpml_chunk",
        p.chunk_log2 != 0 ? (std::uint64_t{1} << p.chunk_log2)
                          : std::uint64_t{0});
  e.set("nt_prior", p.nt_prior);
  e.set("arm", static_cast<int>(p.arm));
  e.set("source", plan_source_name(p.source));
  return e;
}

void check(bool ok, const char* what, std::size_t idx = ~std::size_t{0}) {
  if (ok) return;
  std::string msg = std::string("yhccl-plan/1: ") + what;
  if (idx != ~std::size_t{0})
    msg += " (plans[" + std::to_string(idx) + "])";
  raise(msg);
}

}  // namespace

void validate_plan_json(const Json& doc) {
  check(doc.is_object(), "document is not an object");
  check(doc["schema"].is_string() && doc["schema"].as_string() == kPlanSchema,
        "schema field must be \"yhccl-plan/1\"");
  const Json* plans = doc.find("plans");
  check(plans != nullptr && plans->is_array(), "missing plans array");
  std::size_t i = 0;
  for (const auto& e : plans->items()) {
    check(e.is_object(), "entry is not an object", i);
    for (const char* f : {"signature", "collective", "dtype", "op",
                          "algorithm", "nt", "source"})
      check(e[f].is_string(), f, i);
    for (const char* f :
         {"ranks", "sockets", "bucket", "slice_max", "dpml_chunk", "arm"})
      check(e[f].is_integer(), f, i);
    check(e["arm"].as_int() >= 0 && e["arm"].as_int() < rt::kPlanMaxArms,
          "arm outside the arm table", i);
    check(e["nt_prior"].is_bool(), "nt_prior", i);
    CollKind kind;
    Datatype d;
    ReduceOp op;
    Algorithm alg;
    NtChoice nt;
    check(kind_from_name(e["collective"].as_string(), &kind),
          "unknown collective", i);
    check(dtype_from_name(e["dtype"].as_string(), &d), "unknown dtype", i);
    check(op_from_name(e["op"].as_string(), &op), "unknown op", i);
    check(alg_from_name(e["algorithm"].as_string(), &alg) &&
              alg != Algorithm::automatic,
          "unknown algorithm", i);
    check(alg != Algorithm::fold || kind == CollKind::allreduce,
          "the fold algorithm serves allreduce only", i);
    check(alg != Algorithm::direct || kind == CollKind::allreduce ||
              kind == CollKind::reduce_scatter,
          "the direct algorithm serves allreduce/reduce_scatter only", i);
    check(nt_from_name(e["nt"].as_string(), &nt), "unknown nt", i);
    check(e["ranks"].as_int() >= 1 && e["sockets"].as_int() >= 1 &&
              e["sockets"].as_int() <= e["ranks"].as_int(),
          "bad shape", i);
    std::uint8_t lg = 0;
    check(log2_field(e["slice_max"].as_uint(), &lg) &&
              log2_field(e["dpml_chunk"].as_uint(), &lg),
          "slice_max/dpml_chunk must be 0 or a power of two", i);
    ++i;
  }
}

Json save_plans(const rt::Team& team) {
  Json doc = Json::object();
  doc.set("schema", kPlanSchema);
  const auto& topo = team.topo();
  const auto& cache = team.config().cache;
  Json machine = Json::object();
  machine.set("signature", hex64(team.plan_signature()));
  machine.set("ranks", topo.nranks());
  machine.set("sockets", topo.nsockets());
  machine.set("llc_bytes", cache.llc_bytes);
  machine.set("l2_per_core", cache.l2_per_core);
  machine.set("llc_inclusive", cache.llc_inclusive);
  doc.set("machine", std::move(machine));

  Json arr = Json::array();
  const std::uint64_t dsig = opts_signature(CollOpts{});
  const auto* reg = team.plan_registry();
  for (std::uint32_t i = 0; i < reg->capacity(); ++i) {
    const auto& s = reg->slot(i);
    const std::uint64_t h = s.hash.load(std::memory_order_acquire);
    if (h == 0) continue;
    const std::uint64_t w = s.plan.load(std::memory_order_acquire);
    if ((w >> 63) == 0) continue;  // nothing committed: prior-only slot
    const PlanKey key = PlanKey::from_fields(
        s.fields.load(std::memory_order_acquire));
    // Only default-option plans for this team's shape are portable;
    // recomputing the hash filters everything else (and stale slots
    // from a pre-recovery membership) in one comparison.
    if (key.hash(team.plan_signature(), dsig) != h) continue;
    arr.push_back(entry_to_json(team.plan_signature(), key, Plan::unpack(w)));
  }
  doc.set("plans", std::move(arr));
  return doc;
}

void save_plans_file(const rt::Team& team, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  YHCCL_REQUIRE(static_cast<bool>(out), "plan save: cannot open " + path);
  out << save_plans(team).dump(2) << '\n';
  out.flush();
  YHCCL_REQUIRE(static_cast<bool>(out), "plan save: write failed: " + path);
}

int load_plans(rt::Team& team, const Json& doc) {
  validate_plan_json(doc);
  auto* reg = team.plan_registry();
  const rt::PlanCaps& caps = team.caps();
  const auto& topo = caps.topo();
  const std::string mysig = hex64(caps.signature());
  const CollOpts defaults{};
  const std::uint64_t dsig = opts_signature(defaults);
  int n = 0;
  for (const auto& e : doc["plans"].items()) {
    if (e["signature"].as_string() != mysig) continue;
    PlanKey key;
    kind_from_name(e["collective"].as_string(), &key.kind);
    dtype_from_name(e["dtype"].as_string(), &key.dtype);
    op_from_name(e["op"].as_string(), &key.op);
    key.ranks = static_cast<int>(e["ranks"].as_int());
    key.sockets = static_cast<int>(e["sockets"].as_int());
    key.bucket = static_cast<std::uint8_t>(e["bucket"].as_int());
    if (key.ranks != topo.nranks() || key.sockets != topo.nsockets())
      continue;
    Plan p;
    alg_from_name(e["algorithm"].as_string(), &p.algorithm);
    nt_from_name(e["nt"].as_string(), &p.nt);
    log2_field(e["slice_max"].as_uint(), &p.slice_log2);
    log2_field(e["dpml_chunk"].as_uint(), &p.chunk_log2);
    p.nt_prior = e["nt_prior"].as_bool();
    p.arm = static_cast<std::uint8_t>(e["arm"].as_int());
    p.source = source_from_name(e["source"].as_string());
    // The signature already keeps thread-warmed plans off forked teams;
    // this also drops a hand-edited direct entry there.
    if (!servable(p.algorithm, key, caps)) continue;
    // Online refinement indexes the key's arm statistics with it.
    if (p.arm >= arms(key, defaults, caps).n) continue;
    if (!is_reduction(key.kind)) p.algorithm = Algorithm::pipelined;
    auto* slot = reg->acquire(key.hash(caps.signature(), dsig),
                              key.packed_fields());
    if (slot == nullptr) continue;  // probe window full: drop this entry
    slot->plan.store(p.pack(), std::memory_order_release);
    reg->note_loaded();
    ++n;
  }
  reg->warm_word().store(2, std::memory_order_release);
  return n;
}

int load_plans_file(rt::Team& team, const std::string& path) {
  std::string err;
  const Json doc = read_json_file(path, &err);
  YHCCL_REQUIRE(!doc.is_null(), "plan load: " + path + ": " + err);
  return load_plans(team, doc);
}

void warm_now(rt::Team& team) {
  auto& w = team.plan_registry()->warm_word();
  if (w.load(std::memory_order_acquire) == 2) return;
  std::uint32_t expect = 0;
  if (w.compare_exchange_strong(expect, 1, std::memory_order_acq_rel)) {
    // This rank (or the parent, via an explicit warm_now) won the loading
    // ticket.  Set the word to warm even on an exception: the peers must
    // not spin forever while the thrower propagates the error.
    try {
      const char* path = std::getenv("YHCCL_PLAN_FILE");
      if (path != nullptr && *path != '\0') {
        if (!std::ifstream(path).good()) {
          // A missing warm file is not an error: log and serve the prior.
          std::fprintf(stderr,
                       "yhccl: YHCCL_PLAN_FILE %s: cannot open, continuing "
                       "with the analytic prior\n",
                       path);
        } else {
          load_plans_file(team, path);  // malformed file -> throws
        }
      }
    } catch (...) {
      w.store(2, std::memory_order_release);
      throw;
    }
    w.store(2, std::memory_order_release);
    return;
  }
  rt::SpinGuard guard("plan-cache warm-up");
  while (w.load(std::memory_order_acquire) != 2) guard.relax();
}

Json warm_from_bench(const Json& report) {
  check(report.is_object() && report["schema"].is_string() &&
            report["schema"].as_string() == kBenchSchema,
        "warm_from_bench: input is not a yhccl-bench/1 report");
  const Json& machine = report["machine"];
  copy::CacheConfig cache;
  if (machine.is_object()) {
    cache.llc_bytes = machine["llc_bytes"].as_uint();
    cache.l2_per_core = machine["l2_per_core"].as_uint();
    cache.llc_inclusive = machine["llc_inclusive"].as_bool();
  }

  // Best measured arm per backend and (collective, shape, bucket); keys
  // are the packed field words, so iteration (and the emitted file) is
  // deterministic.  best[0] is for forked teams, best[1] for teams whose
  // ranks share an address space: the file warms both backends.
  struct Best {
    double median = 0;
    Algorithm alg = Algorithm::automatic;
  };
  std::map<std::uint64_t, Best> best[2];
  const CollOpts defaults{};
  for (const auto& s : report["series"].items()) {
    CollKind kind;
    Algorithm alg;
    if (!kind_from_name(s["collective"].as_string(), &kind)) continue;
    if (!normalize_bench_arm(s["algorithm"].as_string(), &alg)) continue;
    if (is_reduction(kind) == (alg == Algorithm::pipelined)) continue;
    const int ranks = static_cast<int>(s["ranks"].as_int());
    const int sockets = static_cast<int>(s["sockets"].as_int());
    if (ranks < 1 || sockets < 1 || sockets > ranks) continue;
    const double median = s["time"]["median_s"].as_double();
    if (median <= 0) continue;
    PlanKey key;
    key.kind = kind;
    key.bucket = bucket_of(kind, s["bytes"].as_uint(), defaults);
    key.ranks = ranks;
    key.sockets = sockets;
    for (const bool shared : {false, true}) {
      // The prior already serves direct wherever forked ranks may run it,
      // and a series cannot tell whether its ranks' buffers passed the
      // window verdict: a process entry never names direct.
      if (!shared && alg == Algorithm::direct) continue;
      if (!servable(alg, key,
                    rt::PlanCaps(rt::Topology(ranks, sockets), cache, shared)))
        continue;
      auto& b = best[shared][key.packed_fields()];
      if (b.median == 0 || median < b.median) b = {median, alg};
    }
  }

  Json doc = Json::object();
  doc.set("schema", kPlanSchema);
  Json m = Json::object();
  m.set("llc_bytes", cache.llc_bytes);
  m.set("l2_per_core", cache.l2_per_core);
  m.set("llc_inclusive", cache.llc_inclusive);
  doc.set("machine", std::move(m));
  Json arr = Json::array();
  for (const bool shared : {false, true})
    for (const auto& [fields, b] : best[shared]) {
      const PlanKey key = PlanKey::from_fields(fields);
      const rt::PlanCaps caps(rt::Topology(key.ranks, key.sockets), cache,
                              shared);
      // Arm 0 is the prior; keep its arm index unless the bench winner is
      // another arm of this backend's table, so online refinement
      // attributes samples to the right arm after loading.
      const ArmTable table = arms(key, defaults, caps);
      Plan p = table.arm[0];
      p.algorithm = b.alg;
      p.source = PlanSource::bench;
      for (int a = 0; a < table.n; ++a) {
        const Plan& cand = table.arm[a];
        if (cand.algorithm == p.algorithm && cand.nt == p.nt &&
            cand.slice_log2 == p.slice_log2) {
          p.arm = cand.arm;
          break;
        }
      }
      arr.push_back(entry_to_json(caps.signature(), key, p));
    }
  doc.set("plans", std::move(arr));
  return doc;
}

}  // namespace yhccl::coll::plan
