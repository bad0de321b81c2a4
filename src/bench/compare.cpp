#include "yhccl/bench/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "yhccl/bench/harness.hpp"

namespace yhccl::bench {

const char* verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::unchanged: return "unchanged";
    case Verdict::improved: return "improved";
    case Verdict::regressed: return "regressed";
    case Verdict::counter_mismatch: return "counter-mismatch";
    case Verdict::added: return "added";
    case Verdict::removed: return "removed";
  }
  return "?";
}

// ---- validation --------------------------------------------------------------

namespace {

void require(bool ok, const std::string& msg,
             std::vector<std::string>& errors) {
  if (!ok) errors.push_back(msg);
}

constexpr const char* kCounterFields[] = {
    "dav_loads",  "dav_stores", "kernels_scalar", "kernels_avx2",
    "kernels_avx512", "barriers",   "flag_posts",     "flag_waits",
};

constexpr const char* kTimeFields[] = {
    "reps",  "rejected", "median_s",  "mad_s",      "mean_s",
    "min_s", "max_s",    "ci_low_s",  "ci_high_s",
};

void validate_series(const Json& s, const std::string& where,
                     std::vector<std::string>& errors) {
  require(s.is_object(), where + ": not an object", errors);
  if (!s.is_object()) return;
  for (const char* f : {"bench", "collective", "algorithm", "isa"})
    require(s[f].is_string(), where + ": missing string field '" + f + "'",
            errors);
  for (const char* f : {"ranks", "sockets", "bytes"})
    require(s[f].is_integer() && s[f].as_int() >= 0,
            where + ": field '" + f + "' must be a non-negative integer",
            errors);
  require(s["dab_bytes_per_s"].is_number(),
          where + ": missing numeric field 'dab_bytes_per_s'", errors);
  const Json& t = s["time"];
  require(t.is_object(), where + ": missing 'time' object", errors);
  if (t.is_object())
    for (const char* f : kTimeFields)
      require(t[f].is_number(),
              where + ": time field '" + f + "' must be numeric", errors);
  const Json& c = s["counters"];
  require(c.is_object(), where + ": missing 'counters' object", errors);
  if (c.is_object())
    for (const char* f : kCounterFields)
      require(c[f].is_integer() && c[f].as_int() >= 0,
              where + ": counter '" + f +
                  "' must be a non-negative integer (exact, not a double)",
              errors);
}

}  // namespace

bool validate_trajectory(const Json& doc, std::vector<std::string>& errors) {
  const std::size_t before = errors.size();
  require(doc.is_object(), "trajectory: not a JSON object", errors);
  if (!doc.is_object()) return false;
  require(doc["schema"].is_string() &&
              doc["schema"].as_string() == kTrajectorySchema,
          std::string("trajectory: schema must be \"") + kTrajectorySchema +
              '"',
          errors);
  require(doc["benchmark"].is_string(),
          "trajectory: missing string field 'benchmark'", errors);
  std::vector<std::string> workloads, metrics;
  const auto names = [&](const char* field, bool objects,
                         std::vector<std::string>& out) {
    const Json& arr = doc[field];
    require(arr.is_array() && arr.size() > 0,
            std::string("trajectory: '") + field + "' must be a non-empty array",
            errors);
    if (!arr.is_array()) return;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const Json& e = arr.at(i);
      const std::string where =
          std::string(field) + "[" + std::to_string(i) + "]";
      const Json& name = objects ? e["name"] : e;
      if (objects) {
        require(e.is_object() && e["unit"].is_string() &&
                    e["better"].is_string() &&
                    (e["better"].as_string() == "higher" ||
                     e["better"].as_string() == "lower"),
                where + ": needs name, unit and better (higher|lower)",
                errors);
      }
      require(name.is_string(), where + ": name must be a string", errors);
      if (!name.is_string()) continue;
      require(std::find(out.begin(), out.end(), name.as_string()) ==
                  out.end(),
              where + ": duplicate " + name.as_string(), errors);
      out.push_back(name.as_string());
    }
  };
  names("workloads", false, workloads);
  names("metrics", true, metrics);
  const Json& entries = doc["entries"];
  require(entries.is_array(), "trajectory: missing 'entries' array", errors);
  if (!entries.is_array()) return false;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Json& e = entries.at(i);
    const std::string where = "entries[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      errors.push_back(where + ": not an object");
      continue;
    }
    const std::string commit =
        e["commit"].is_string() ? e["commit"].as_string() : "";
    require(commit.size() == 40 &&
                commit.find_first_not_of("0123456789abcdef") ==
                    std::string::npos,
            where + ": commit must be a 40-digit lowercase hex id", errors);
    const std::string side =
        e["side"].is_string() ? e["side"].as_string() : "";
    require(side == "parent" || side == "change",
            where + ": side must be \"parent\" or \"change\"", errors);
    require(seen.insert(commit + "/" + side).second,
            where + ": duplicate entry " + commit + "/" + side, errors);
    if (side == "change")
      require(seen.count(commit + "/parent") != 0,
              where + ": change entry before its parent entry", errors);
    require(e["change"].is_string() && !e["change"].as_string().empty(),
            where + ": missing 'change' description", errors);
    require(e["method"].is_string(), where + ": missing 'method'", errors);
    require(e["runs"].is_integer() && e["runs"].as_int() >= 1,
            where + ": runs must be an integer >= 1", errors);
    const Json& results = e["results"];
    require(results.is_object() && results.size() == workloads.size(),
            where + ": results must hold exactly the declared workloads",
            errors);
    for (const std::string& w : workloads) {
      const Json* wr = results.find(w);
      require(wr != nullptr && wr->is_object() &&
                  wr->size() == metrics.size(),
              where + "." + w + ": must hold exactly the declared metrics",
              errors);
      if (wr == nullptr || !wr->is_object()) continue;
      for (const std::string& m : metrics) {
        const Json* q = wr->find(m);
        const std::string at = where + "." + w + "." + m;
        const bool nums = q != nullptr && q->is_object() &&
                          (*q)["median"].is_number() &&
                          (*q)["q1"].is_number() && (*q)["q3"].is_number();
        require(nums, at + ": needs numeric median, q1 and q3", errors);
        if (!nums) continue;
        const double lo = (*q)["q1"].as_double();
        const double mid = (*q)["median"].as_double();
        const double hi = (*q)["q3"].as_double();
        require(std::isfinite(lo) && std::isfinite(hi) && lo <= mid &&
                    mid <= hi,
                at + ": quartiles out of order", errors);
      }
    }
  }
  return errors.size() == before;
}

bool validate_report(const Json& report, std::vector<std::string>& errors) {
  const std::size_t before = errors.size();
  require(report.is_object(), "report: not a JSON object", errors);
  if (!report.is_object()) return false;
  require(report["schema"].is_string() &&
              report["schema"].as_string() == kSchemaVersion,
          std::string("report: schema must be \"") + kSchemaVersion + '"',
          errors);
  require(report["name"].is_string(), "report: missing string field 'name'",
          errors);
  require(report["machine"].is_object(), "report: missing 'machine' object",
          errors);
  require(report["policy"].is_object(), "report: missing 'policy' object",
          errors);
  const Json& series = report["series"];
  require(series.is_array(), "report: missing 'series' array", errors);
  if (series.is_array()) {
    std::set<std::string> keys;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const std::string where = "series[" + std::to_string(i) + "]";
      validate_series(series.at(i), where, errors);
      if (series.at(i).is_object()) {
        const std::string key = Series::from_json(series.at(i)).key();
        require(keys.insert(key).second, where + ": duplicate key " + key,
                errors);
      }
    }
  }
  return errors.size() == before;
}

// ---- comparison --------------------------------------------------------------

namespace {

std::map<std::string, Series> index_series(const Json& report) {
  std::map<std::string, Series> out;
  const Json& arr = report["series"];
  for (std::size_t i = 0; i < arr.size(); ++i) {
    Series s = Series::from_json(arr.at(i));
    out.emplace(s.key(), std::move(s));
  }
  return out;
}

void diff_counters(const Counters& base, const Counters& cand,
                   std::vector<std::string>& out) {
  const auto one = [&out](const char* name, std::uint64_t b,
                          std::uint64_t c) {
    if (b == c) return;
    std::ostringstream os;
    os << name << ": " << b << " != " << c;
    out.push_back(os.str());
  };
  one("dav_loads", base.dav.loads, cand.dav.loads);
  one("dav_stores", base.dav.stores, cand.dav.stores);
  for (int t = 0; t < copy::kNumIsaTiers; ++t)
    one(copy::isa_name(static_cast<copy::IsaTier>(t)), base.kernels.calls[t],
        cand.kernels.calls[t]);
  one("barriers", base.sync.barriers, cand.sync.barriers);
  one("flag_posts", base.sync.flag_posts, cand.sync.flag_posts);
  one("flag_waits", base.sync.flag_waits, cand.sync.flag_waits);
}

void count_verdict(CompareResult& r, Verdict v) {
  switch (v) {
    case Verdict::unchanged: ++r.unchanged; break;
    case Verdict::improved: ++r.improved; break;
    case Verdict::regressed: ++r.regressed; break;
    case Verdict::counter_mismatch: ++r.counter_mismatches; break;
    case Verdict::added: ++r.added; break;
    case Verdict::removed: ++r.removed; break;
  }
}

}  // namespace

CompareResult compare_reports(const Json& baseline, const Json& candidate) {
  CompareResult result;
  const auto base = index_series(baseline);
  const auto cand = index_series(candidate);

  for (const auto& [key, b] : base) {
    SeriesDiff d;
    d.key = key;
    d.base_median = b.time.median;
    const auto it = cand.find(key);
    if (it == cand.end()) {
      d.verdict = Verdict::removed;
    } else {
      const Series& c = it->second;
      d.cand_median = c.time.median;
      d.ratio = b.time.median > 0 ? c.time.median / b.time.median : 0;
      diff_counters(b.counters, c.counters, d.counter_diffs);
      if (!d.counter_diffs.empty()) {
        d.verdict = Verdict::counter_mismatch;
      } else if (c.time.ci_high < b.time.ci_low) {
        d.verdict = Verdict::improved;
      } else if (c.time.ci_low > b.time.ci_high) {
        d.verdict = Verdict::regressed;
      } else {
        d.verdict = Verdict::unchanged;
      }
    }
    count_verdict(result, d.verdict);
    result.diffs.push_back(std::move(d));
  }
  for (const auto& [key, c] : cand) {
    if (base.count(key)) continue;
    SeriesDiff d;
    d.key = key;
    d.verdict = Verdict::added;
    d.cand_median = c.time.median;
    count_verdict(result, d.verdict);
    result.diffs.push_back(std::move(d));
  }
  return result;
}

CompareResult compare_tuned(const Json& report, const std::string& static_arm,
                            const std::string& tuned_arm) {
  CompareResult result;
  // Pair key: the series join key minus the algorithm column.
  const auto cell_key = [](const Series& s) {
    return s.bench + '|' + s.collective + '|' + std::to_string(s.ranks) +
           'r' + std::to_string(s.sockets) + 's' + std::to_string(s.bytes) +
           'B';
  };
  std::map<std::string, Series> statics, tuned;
  const Json& arr = report["series"];
  for (std::size_t i = 0; i < arr.size(); ++i) {
    Series s = Series::from_json(arr.at(i));
    if (s.algorithm == static_arm)
      statics.emplace(cell_key(s), std::move(s));
    else if (s.algorithm == tuned_arm)
      tuned.emplace(cell_key(s), std::move(s));
  }
  for (const auto& [key, b] : statics) {
    SeriesDiff d;
    d.key = key;
    d.base_median = b.time.median;
    const auto it = tuned.find(key);
    if (it == tuned.end()) {
      d.verdict = Verdict::removed;  // static cell with no tuned partner
    } else {
      const Series& c = it->second;
      d.cand_median = c.time.median;
      d.ratio = b.time.median > 0 ? c.time.median / b.time.median : 0;
      if (c.time.ci_high < b.time.ci_low)
        d.verdict = Verdict::improved;
      else if (c.time.ci_low > b.time.ci_high)
        d.verdict = Verdict::regressed;
      else
        d.verdict = Verdict::unchanged;
    }
    count_verdict(result, d.verdict);
    result.diffs.push_back(std::move(d));
  }
  for (const auto& [key, c] : tuned) {
    if (statics.count(key)) continue;
    SeriesDiff d;
    d.key = key;
    d.verdict = Verdict::added;
    d.cand_median = c.time.median;
    count_verdict(result, d.verdict);
    result.diffs.push_back(std::move(d));
  }
  return result;
}

std::string CompareResult::report(bool verbose) const {
  std::string out;
  char line[256];
  for (const auto& d : diffs) {
    const bool interesting = d.verdict != Verdict::unchanged;
    if (!interesting && !verbose) continue;
    std::snprintf(line, sizeof line, "%-17s %-56s %9.1fus %9.1fus %6.2fx\n",
                  verdict_name(d.verdict), d.key.c_str(), d.base_median * 1e6,
                  d.cand_median * 1e6, d.ratio);
    out += line;
    for (const auto& cd : d.counter_diffs) {
      out += "                    ";
      out += cd;
      out += '\n';
    }
  }
  std::snprintf(line, sizeof line,
                "%d series: %d unchanged, %d improved, %d regressed, "
                "%d counter-mismatch, %d added, %d removed\n",
                static_cast<int>(diffs.size()), unchanged, improved,
                regressed, counter_mismatches, added, removed);
  out += line;
  return out;
}

// ---- merging -----------------------------------------------------------------

Json merge_reports(const std::vector<Json>& parts, const std::string& name,
                   std::string* err) {
  if (err) err->clear();
  Json out = Json::object();
  out.set("schema", kSchemaVersion);
  out.set("name", name);
  if (!parts.empty()) {
    out.set("machine", parts.front()["machine"]);
    out.set("policy", parts.front()["policy"]);
  } else {
    out.set("machine", Json::object());
    out.set("policy", Json::object());
  }
  Json arr = Json::array();
  std::set<std::string> keys;
  for (const auto& part : parts) {
    const Json& series = part["series"];
    for (std::size_t i = 0; i < series.size(); ++i) {
      const std::string key = Series::from_json(series.at(i)).key();
      if (!keys.insert(key).second) {
        if (err && err->empty()) *err = "duplicate series key: " + key;
        continue;
      }
      arr.push_back(series.at(i));
    }
  }
  out.set("series", std::move(arr));
  return out;
}

}  // namespace yhccl::bench
