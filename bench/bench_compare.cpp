// CLI over the yhccl-bench/1 report tooling (src/bench/compare.cpp):
//
//   bench_compare check <report.json>
//       validate a yhccl-bench/1 report, or the yhccl-trajectory/1 record
//       BENCH_trajectory.json, against its schema; exit 1 on any defect.
//   bench_compare merge <out.json> <in.json...>
//       concatenate per-binary reports into one (the BENCH_collectives.json
//       step of bench/run_collectives.sh); duplicate keys are fatal.
//   bench_compare diff <baseline.json> <candidate.json> [--verbose]
//       statistical + counter comparison; exit 1 unless the gate is clean
//       (no regressions, no counter drift).
#include <cstdio>
#include <string>
#include <vector>

#include "yhccl/bench/compare.hpp"
#include "yhccl/bench/harness.hpp"

namespace yb = yhccl::bench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare check <report.json>\n"
               "       bench_compare merge <out.json> <in.json...>\n"
               "       bench_compare diff <base.json> <cand.json> "
               "[--verbose]\n");
  return 2;
}

yb::Json load_or_die(const std::string& path, bool* ok) {
  std::string err;
  yb::Json j = yb::load_json_file(path, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 err.c_str());
    *ok = false;
  }
  return j;
}

int do_check(const std::string& path) {
  bool ok = true;
  const yb::Json j = load_or_die(path, &ok);
  if (!ok) return 1;
  std::vector<std::string> errors;
  if (j["schema"].is_string() &&
      j["schema"].as_string() == yb::kTrajectorySchema) {
    if (yb::validate_trajectory(j, errors)) {
      std::printf("%s: valid %s record, %zu entries\n", path.c_str(),
                  yb::kTrajectorySchema, j["entries"].size());
      return 0;
    }
  } else if (yb::validate_report(j, errors)) {
    std::printf("%s: valid %s report, %zu series\n", path.c_str(),
                yb::kSchemaVersion,
                j.find("series") ? j.find("series")->size() : 0);
    return 0;
  }
  for (const auto& e : errors)
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
  return 1;
}

int do_merge(const std::string& out, const std::vector<std::string>& ins) {
  std::vector<yb::Json> parts;
  bool ok = true;
  for (const auto& path : ins) {
    yb::Json j = load_or_die(path, &ok);
    if (!ok) return 1;
    std::vector<std::string> errors;
    if (!yb::validate_report(j, errors)) {
      for (const auto& e : errors)
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
      return 1;
    }
    parts.push_back(std::move(j));
  }
  std::string err;
  const yb::Json merged = yb::merge_reports(parts, "collectives", &err);
  if (!err.empty()) {
    std::fprintf(stderr, "bench_compare merge: %s\n", err.c_str());
    return 1;
  }
  if (!yb::write_json_file(out, merged, &err)) {
    std::fprintf(stderr, "bench_compare merge: %s\n", err.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu series from %zu reports)\n", out.c_str(),
              merged.find("series") ? merged.find("series")->size() : 0,
              parts.size());
  return 0;
}

int do_diff(const std::string& base, const std::string& cand,
            bool verbose) {
  bool ok = true;
  const yb::Json b = load_or_die(base, &ok);
  const yb::Json c = load_or_die(cand, &ok);
  if (!ok) return 1;
  const auto validate = [](const std::string& path, const yb::Json& j) {
    std::vector<std::string> errors;
    if (yb::validate_report(j, errors)) return true;
    for (const auto& e : errors)
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
    return false;
  };
  if (!validate(base, b) || !validate(cand, c)) return 1;
  const yb::CompareResult r = yb::compare_reports(b, c);
  std::fputs(r.report(verbose).c_str(), stdout);
  return r.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& mode = args[0];
  if (mode == "check" && args.size() == 2) return do_check(args[1]);
  if (mode == "merge" && args.size() >= 3)
    return do_merge(args[1], {args.begin() + 2, args.end()});
  if (mode == "diff" && (args.size() == 3 || args.size() == 4)) {
    const bool verbose = args.size() == 4 && args[3] == "--verbose";
    if (args.size() == 4 && !verbose) return usage();
    return do_diff(args[1], args[2], verbose);
  }
  return usage();
}
