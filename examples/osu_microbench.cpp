// OSU-style micro-benchmark CLI — the interface the paper's artifact uses
// for evaluation (appendix C.3: `mpiexec -n 64 ./osu_allreduce -c -m
// 65536:268435456`), reimplemented over YHCCL teams.
//
//   $ ./examples/osu_microbench <collective> [-n ranks] [-s sockets]
//        [-m min:max] [-c] [-a algorithm]
//
//   collective: allreduce | reduce | reduce_scatter | bcast | allgather
//               | alltoall
//   -m min:max  message size sweep in bytes (powers of two)
//   -c          validate results against a reference reduction
//   -a          auto | ma | socket-ma | dpml-2l   (reductions only)
//               | fold   (allreduce up to fold_max_bytes(ranks) only)
//
// Prints the OSU columns: size, average latency (us), min/max across
// repetitions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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
    } else if (s == "-a") {
      const std::string v = next();
      if (v == "ma") a.algo = coll::Algorithm::ma_flat;
      else if (v == "socket-ma") a.algo = coll::Algorithm::ma_socket_aware;
      else if (v == "dpml-2l") a.algo = coll::Algorithm::dpml_two_level;
      else if (v == "fold") a.algo = coll::Algorithm::fold;
    }
  }
  return a;
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

  for (std::size_t bytes = a.min_bytes; bytes <= a.max_bytes; bytes *= 2) {
    const std::size_t count = std::max<std::size_t>(bytes / 8, 1);
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
    if (a.check && a.collective == "allreduce") {
      const double expect = p * (p + 1) / 2.0;
      for (int r = 0; r < p && ok; ++r)
        ok = recv[r][count / 2] == expect;
    }
    std::printf("%-12zu %12.2f %12.2f %12.2f%s\n", bytes, sum / iters, mn,
                mx, a.check ? (ok ? "  [OK]" : "  [FAILED]") : "");
    if (!ok) return 1;
  }
  return 0;
}
