// Tables 1-3 reproduction: the analytical DAV comparison, printed for the
// paper's configurations (p = 64, m = 2, k = 2) and for this host's bench
// team, next to the *measured* DAV of our instrumented implementations.
#include "bench_util.hpp"
#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/model/dav_model.hpp"

using namespace yhccl;
using namespace yhccl::bench;
namespace md = yhccl::model;

namespace {

void print_tables(int p, int m) {
  const std::size_t s = 1;  // per-byte factors
  std::printf("\nDAV per message byte, p=%d, m=%d, k=2:\n", p, m);
  std::printf("%-28s %10s %10s %10s\n", "algorithm", "r-scatter",
              "all-reduce", "reduce");
  auto row = [](const char* name, double a, double b, double c) {
    std::printf("%-28s %10.1f %10.1f %10.1f\n", name, a, b, c);
  };
  row("Ring [45]", md::paper::ring_reduce_scatter(s, p),
      md::paper::ring_allreduce(s, p), 0);
  row("Rabenseifner [50]", md::paper::rabenseifner_reduce_scatter(s, p),
      md::paper::rabenseifner_allreduce(s, p), 0);
  row("DPML [13]", md::paper::dpml_reduce_scatter(s, p),
      md::paper::dpml_allreduce(s, p), md::paper::dpml_reduce(s, p));
  row("RG [34] (k=2)", 0, md::paper::rg_allreduce(s, p, 2),
      md::paper::rg_reduce(s, p, 2));
  row("YHCCL MA", md::paper::ma_reduce_scatter(s, p),
      md::paper::ma_allreduce(s, p), md::paper::ma_reduce(s, p));
  row("YHCCL socket-aware MA", md::paper::socket_ma_reduce_scatter(s, p, m),
      md::paper::socket_ma_allreduce(s, p, m),
      md::paper::socket_ma_reduce(s, p, m));
}

}  // namespace

int main() {
  std::printf("Tables 1-3 — analytical data access volume models\n");
  print_tables(64, 2);  // the paper's NodeA
  const int p = bench_ranks(), m = bench_sockets();
  print_tables(p, m);

  // Measured-vs-model cross-check on this host: every deterministic
  // counter (DAV, kernel dispatches, barrier/flag ops) must match the
  // operation-count simulator exactly, not just the closed-form bytes.
  auto& team = bench_team(p, m);
  const std::size_t count = 8192;  // per-rank f64 block
  const std::size_t total = count * 8 * static_cast<std::size_t>(p);
  RankBuffers bufs(p, total, total);
  coll::CollOpts o;
  o.algorithm = coll::Algorithm::ma_socket_aware;
  o.slice_max = 16u << 10;
  Session session("tab0123_dav_models");
  const Series s = measure_arm(
      team, session, "reduce_scatter", "Socket-MA", bufs,
      [&](rt::RankCtx& c, const void* sp, void* r, std::size_t) {
        coll::reduce_scatter(c, sp, r, count, Datatype::f64, ReduceOp::sum,
                             o);
      },
      total);
  md::impl::OpGeometry g;
  g.p = p;
  g.m = m;
  g.slice_max = o.slice_max;
  const auto want = md::impl::socket_ma_reduce_scatter_ops(total, g);
  const bool ok = s.counters.dav.loads == want.loads &&
                  s.counters.dav.stores == want.stores &&
                  s.counters.kernels.total() == want.kernel_calls &&
                  s.counters.sync.barriers == want.barriers &&
                  s.counters.sync.flag_posts == want.flag_posts &&
                  s.counters.sync.flag_waits == want.flag_waits;
  std::printf("\nmeasured vs model (socket-MA reduce-scatter, %s): "
              "DAV %llu vs %llu bytes, %llu vs %llu kernel calls, "
              "%llu vs %llu sync ops — %s\n",
              human_size(total).c_str(),
              static_cast<unsigned long long>(s.counters.dav.total()),
              static_cast<unsigned long long>(want.dav()),
              static_cast<unsigned long long>(s.counters.kernels.total()),
              static_cast<unsigned long long>(want.kernel_calls),
              static_cast<unsigned long long>(s.counters.sync.total()),
              static_cast<unsigned long long>(want.sync()),
              ok ? "EXACT MATCH" : "MISMATCH");
  session.write();
  return ok ? 0 : 1;
}
