// Fig. 16a reproduction: single-node all-reduce scalability — fixed
// message, rank count swept.  The paper sweeps p = 2..64 with a 128 KB MA
// slice; the MA design overtakes the alternatives beyond a few ranks
// because its copy volume grows as 5p while DPML/two-copy designs grow as
// 7p/11p and XPMEM spends 5(p-1).
#include "bench_util.hpp"
#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const std::size_t bytes = static_cast<std::size_t>(
      (4u << 20) * bench_scale());
  const std::size_t count = bytes / 8;
  std::printf(
      "Fig. 16a — single-node all-reduce scalability (msg=%s, 128KB slice)\n",
      human_size(bytes).c_str());
  std::printf("%-6s %12s %12s %12s %12s %12s\n", "p", "YHCCL(us)", "DPML(x)",
              "RG(x)", "OpenMPI(x)", "XPMEM(x)");

  Session session("fig16a_scalability");
  for (int p : {2, 4, 8, 16}) {
    const int m = p >= 4 ? 2 : 1;
    auto& team = bench_team(p, m);
    RankBuffers bufs(p, bytes, bytes);
    coll::CollOpts yo;
    yo.algorithm = coll::Algorithm::ma_socket_aware;
    yo.slice_max = 128u << 10;  // the paper's Fig. 16a slice
    const auto arm = [&](const char* name, const CollArm& fn) {
      return measure_arm(team, session, "allreduce", name, bufs, fn, bytes)
          .time.median;
    };

    const double yhccl = arm(
        "YHCCL", [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
          coll::allreduce(c, s, r, count, Datatype::f64, ReduceOp::sum, yo);
        });
    const double dpml = arm(
        "DPML", [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
          base::dpml_allreduce(c, s, r, count, Datatype::f64, ReduceOp::sum);
        });
    const double rg = arm(
        "RG", [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
          base::rg_allreduce(c, s, r, count, Datatype::f64, ReduceOp::sum);
        });
    const double ompi = arm(
        "OpenMPI", [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
          base::ring_allreduce(c, s, r, count, Datatype::f64, ReduceOp::sum,
                               base::Transport::two_copy);
        });
    const double xp = arm(
        "XPMEM", [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
          base::xpmem_allreduce(c, s, r, count, Datatype::f64,
                                ReduceOp::sum);
        });
    std::printf("%-6d %12.1f %12.2f %12.2f %12.2f %12.2f\n", p, yhccl * 1e6,
                dpml / yhccl, rg / yhccl, ompi / yhccl, xp / yhccl);
  }
  session.write();
  std::printf(
      "\nNote: p > #cores oversubscribes this 2-core host; the paper's\n"
      "expected shape is YHCCL leading from p >= 8 and XPMEM closest at\n"
      "small p (its DAV 5s(p-1) < 5sp-s only by s).\n");
  return 0;
}
