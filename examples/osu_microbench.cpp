// OSU-style micro-benchmark CLI — the interface the paper's artifact uses
// for evaluation (appendix C.3: `mpiexec -n 64 ./osu_allreduce -c -m
// 65536:268435456`), reimplemented over YHCCL teams.
//
//   $ ./examples/osu_microbench <collective> [-n ranks] [-s sockets]
//        [-m min:max] [-c] [-a algorithm]
//
//   collective: allreduce | reduce | reduce_scatter | bcast | allgather
//               | alltoall
//   -m min:max  message size sweep in bytes, doubling from min; min must
//               be at least 1 and at most max (else exit 2).  The sweep
//               starts at the first size that holds one f64 element per
//               block: 8 bytes, or 8·ranks for the block collectives
//               (reduce_scatter, allgather, alltoall).
//   -c          validate every collective's result against its closed form
//               (rank r sends 1 + r; the bcast root's buffer holds i + 1)
//   -a          auto, or an arm the collective has a row for in the arm
//               table (yhccl/coll/arm_table.hpp): e.g. ma, socket-ma,
//               dpml-2l, fold (allreduce up to fold_max_bytes(ranks)),
//               direct (ranks are threads here), pipelined (bcast,
//               allgather).  Any other name exits 2 and lists the valid
//               ones.
//
// Prints the OSU columns: size, average latency (us), min/max across
// repetitions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "yhccl/coll/arm_table.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/extra.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/runtime/thread_team.hpp"

using namespace yhccl;

namespace {

struct Args {
  std::string collective = "allreduce";
  int ranks = 4;
  int sockets = 2;
  std::size_t min_bytes = 16 << 10;
  std::size_t max_bytes = 16 << 20;
  bool check = false;
  coll::Algorithm algo = coll::Algorithm::automatic;
};

Args parse(int argc, char** argv) {
  Args a;
  std::string algo = "auto";
  if (argc > 1 && argv[1][0] != '-') a.collective = argv[1];
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (s == "-n") a.ranks = std::atoi(next());
    else if (s == "-s") a.sockets = std::atoi(next());
    else if (s == "-c") a.check = true;
    else if (s == "-m") {
      const std::string range = next();
      const auto colon = range.find(':');
      a.min_bytes = std::strtoull(range.c_str(), nullptr, 10);
      a.max_bytes = colon == std::string::npos
                        ? a.min_bytes
                        : std::strtoull(range.c_str() + colon + 1, nullptr,
                                        10);
      if (a.min_bytes == 0 || a.min_bytes > a.max_bytes) {
        std::fprintf(stderr,
                     "osu_microbench: -m %s: need 1 <= min <= max bytes\n",
                     range.c_str());
        std::exit(2);
      }
    } else if (s == "-a") {
      algo = next();
    }
  }
  // The arms of the collective: its rows (alltoall has none).
  const auto kind = a.collective == "bcast"
                        ? coll::CollKind::broadcast
                        : coll::coll_kind_from_name(a.collective);
  std::string valid = "auto";
  for (const coll::ArmRow& row : coll::arm_rows())
    if (kind && row.kind == *kind)
      valid += std::string(" ") + coll::algorithm_name(row.algorithm);
  const auto alg = coll::algorithm_from_name(algo);
  if (!alg || (*alg != coll::Algorithm::automatic &&
               (!kind || coll::find_arm(*kind, *alg) == nullptr))) {
    std::fprintf(stderr, "osu_microbench: -a %s: %s runs one of: %s\n",
                 algo.c_str(), a.collective.c_str(), valid.c_str());
    std::exit(2);
  }
  a.algo = *alg;
  return a;
}

/// Every element each rank received, against the closed form for
/// send[r] = 1 + r (the sums are exact in f64): the rank sum p(p+1)/2 for
/// the reductions (reduce: at root 0; reduce_scatter: each rank's block),
/// the root's pattern i + 1 for bcast, and block q = 1 + q for allgather
/// and alltoall.  `count` is the per-rank message of the sweep.
bool check(const std::string& coll, int p, std::size_t count,
           const std::vector<std::vector<double>>& recv) {
  const auto pn = static_cast<std::size_t>(p);
  const double sum = p * (p + 1) / 2.0;
  const std::size_t block = count / pn;
  for (int r = 0; r < p; ++r) {
    const std::vector<double>& v = recv[r];
    if (coll == "allreduce" || (coll == "reduce" && r == 0)) {
      for (std::size_t i = 0; i < count; ++i)
        if (v[i] != sum) return false;
    } else if (coll == "reduce_scatter") {
      for (std::size_t i = 0; i < block; ++i)
        if (v[i] != sum) return false;
    } else if (coll == "bcast") {
      for (std::size_t i = 0; i < count; ++i)
        if (v[i] != 1.0 + i) return false;
    } else if (coll == "allgather" || coll == "alltoall") {
      for (std::size_t q = 0; q < pn; ++q)
        for (std::size_t i = 0; i < block; ++i)
          if (v[q * block + i] != 1.0 + q) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  rt::TeamConfig cfg;
  cfg.nranks = a.ranks;
  cfg.nsockets = std::min(a.sockets, a.ranks);
  rt::ThreadTeam team(cfg);
  const int p = a.ranks;

  std::printf("# YHCCL OSU-style %s benchmark (p=%d, m=%d, algo=%s%s)\n",
              a.collective.c_str(), p, cfg.nsockets,
              coll::algorithm_name(a.algo), a.check ? ", -c" : "");
  std::printf("%-12s %12s %12s %12s\n", "# Size", "Avg(us)", "Min(us)",
              "Max(us)");

  // A block collective splits the message into p blocks of count / p
  // elements; below 8·p bytes every block would be empty.
  const bool blocked = a.collective == "reduce_scatter" ||
                       a.collective == "allgather" ||
                       a.collective == "alltoall";
  const std::size_t min_count = blocked ? static_cast<std::size_t>(p) : 1;
  std::size_t first = a.min_bytes;
  while (first / 8 < min_count) first *= 2;

  for (std::size_t bytes = first; bytes <= a.max_bytes; bytes *= 2) {
    const std::size_t count = bytes / 8;
    coll::CollOpts opts;
    opts.algorithm = a.algo;
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].assign(count, 1.0 + r);
      recv[r].assign(count * (a.collective == "allgather" ||
                                      a.collective == "alltoall"
                                  ? static_cast<std::size_t>(p)
                                  : 1),
                     0.0);
    }
    // The bcast root broadcasts a pattern, so a copy of zeros fails -c.
    if (a.collective == "bcast")
      for (std::size_t i = 0; i < count; ++i) recv[0][i] = 1.0 + i;
    const int iters = bytes >= (4u << 20) ? 5 : 10;
    double sum = 0, mn = 1e30, mx = 0;
    bool ok = true;
    for (int it = 0; it < iters + 1; ++it) {
      team.run([&](rt::RankCtx& ctx) {
        const int r = ctx.rank();
        if (a.collective == "allreduce")
          coll::allreduce(ctx, send[r].data(), recv[r].data(), count,
                          Datatype::f64, ReduceOp::sum, opts);
        else if (a.collective == "reduce")
          coll::reduce(ctx, send[r].data(), recv[r].data(), count,
                       Datatype::f64, ReduceOp::sum, 0, opts);
        else if (a.collective == "reduce_scatter")
          coll::reduce_scatter(ctx, send[r].data(), recv[r].data(),
                               count / static_cast<std::size_t>(p),
                               Datatype::f64, ReduceOp::sum, opts);
        else if (a.collective == "bcast")
          coll::broadcast(ctx, recv[r].data(), count, Datatype::f64, 0,
                          opts);
        else if (a.collective == "allgather")
          coll::allgather(ctx, send[r].data(), recv[r].data(),
                          count / static_cast<std::size_t>(p), Datatype::f64,
                          opts);
        else if (a.collective == "alltoall")
          coll::alltoall(ctx, send[r].data(), recv[r].data(),
                         count / static_cast<std::size_t>(p), Datatype::f64,
                         opts);
        else
          raise("unknown collective: " + a.collective);
      });
      if (it == 0) continue;  // warm-up
      const double t = team.max_time() * 1e6;
      sum += t;
      mn = std::min(mn, t);
      mx = std::max(mx, t);
    }
    if (a.check) ok = check(a.collective, p, count, recv);
    std::printf("%-12zu %12.2f %12.2f %12.2f%s\n", bytes, sum / iters, mn,
                mx, a.check ? (ok ? "  [OK]" : "  [FAILED]") : "");
    if (!ok) return 1;
    if (bytes > a.max_bytes / 2) break;  // the next doubling would wrap
  }
  return 0;
}
