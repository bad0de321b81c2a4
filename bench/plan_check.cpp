// CLI over the yhccl-plan/1 persistence layer (docs/tuning.md):
//
//   plan_check warm <bench.json> <plans.json>
//       distill a yhccl-bench/1 report into a plan file: the fastest
//       measured engine per (collective, shape, size-bucket) cell
//       (plan::warm_from_bench), once per backend.  The output loads via
//       $YHCCL_PLAN_FILE into thread and process teams alike.
//   plan_check check <plans.json>
//       validate a plan file against the schema; exit 1 on any defect.
//   plan_check show <plans.json>
//       print the cached decisions as a table.
#include <cstdio>
#include <string>
#include <vector>

#include "yhccl/bench/harness.hpp"
#include "yhccl/coll/plan.hpp"

namespace yb = yhccl::bench;
namespace plan = yhccl::coll::plan;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: plan_check warm <bench.json> <plans.json>\n"
               "       plan_check check <plans.json>\n"
               "       plan_check show <plans.json>\n");
  return 2;
}

yb::Json load_or_die(const std::string& path, bool* ok) {
  std::string err;
  yb::Json j = yb::load_json_file(path, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "plan_check: %s: %s\n", path.c_str(), err.c_str());
    *ok = false;
  }
  return j;
}

int do_warm(const std::string& bench_path, const std::string& plan_path) {
  bool ok = true;
  const yb::Json bench = load_or_die(bench_path, &ok);
  if (!ok) return 1;
  try {
    const yb::Json plans = plan::warm_from_bench(bench);
    plan::validate_plan_json(plans);
    std::string err;
    if (!yb::write_json_file(plan_path, plans, &err)) {
      std::fprintf(stderr, "plan_check: %s: %s\n", plan_path.c_str(),
                   err.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu plans from %s)\n", plan_path.c_str(),
                plans["plans"].size(), bench_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan_check: %s\n", e.what());
    return 1;
  }
}

int do_check(const std::string& path) {
  bool ok = true;
  const yb::Json j = load_or_die(path, &ok);
  if (!ok) return 1;
  try {
    plan::validate_plan_json(j);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("%s: valid %s file, %zu plans\n", path.c_str(),
              plan::kPlanSchema, j["plans"].size());
  return 0;
}

int do_show(const std::string& path) {
  bool ok = true;
  const yb::Json j = load_or_die(path, &ok);
  if (!ok) return 1;
  try {
    plan::validate_plan_json(j);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  // Bench-warmed files carry only the cache model in the machine block
  // (their entries may span team shapes); save_plans files add the team's
  // signature and shape.
  const yb::Json& machine = j["machine"];
  const std::string sig = machine["signature"].is_string()
                              ? machine["signature"].as_string()
                              : "-";
  std::printf("machine: signature=%s llc=%llu l2=%llu\n", sig.c_str(),
              static_cast<unsigned long long>(machine["llc_bytes"].as_uint()),
              static_cast<unsigned long long>(
                  machine["l2_per_core"].as_uint()));
  // Bench-warmed files hold each cell once per backend; the per-entry
  // signature tells the two apart.
  std::printf("%-16s %-6s %-6s %8s %12s %-10s %-8s %-8s %s\n", "collective",
              "dtype", "op", "bucket", "bytes_hi", "algorithm", "nt",
              "source", "signature");
  for (const auto& e : j["plans"].items())
    std::printf("%-16s %-6s %-6s %8lld %12llu %-10s %-8s %-8s %s\n",
                e["collective"].as_string().c_str(),
                e["dtype"].as_string().c_str(), e["op"].as_string().c_str(),
                static_cast<long long>(e["bucket"].as_int()),
                static_cast<unsigned long long>(e["bytes_hi"].as_uint()),
                e["algorithm"].as_string().c_str(),
                e["nt"].as_string().c_str(),
                e["source"].as_string().c_str(),
                e["signature"].as_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& mode = args[0];
  if (mode == "warm" && args.size() == 3) return do_warm(args[1], args[2]);
  if (mode == "check" && args.size() == 2) return do_check(args[1]);
  if (mode == "show" && args.size() == 2) return do_show(args[1]);
  return usage();
}
