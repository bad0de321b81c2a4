// Fig. 14 reproduction: pipelined all-gather under the four copy
// policies.  `MsgSz` is the per-rank contribution (the paper sweeps
// 8 KB - 8 MB; aggregated data is p x larger).
#include "bench_util.hpp"
#include "yhccl/coll/coll.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const auto sizes = default_sizes(8u << 10, 4u << 20);
  const std::size_t hi = sizes.back();

  auto arm = [](copy::CopyPolicy pol) {
    return [pol](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
      coll::CollOpts o;
      o.policy = pol;
      o.algorithm = coll::Algorithm::pipelined;
      o.slice_max = 1u << 20;
      coll::allgather(c, s, r, std::max<std::size_t>(b / 8, 1), Datatype::f64,
                      o);
    };
  };

  const std::vector<std::pair<std::string, CollArm>> arms = {
      {"YHCCL", arm(copy::CopyPolicy::adaptive)},
      {"t-copy", arm(copy::CopyPolicy::always_temporal)},
      {"nt-copy", arm(copy::CopyPolicy::always_nt)},
      {"memmove", arm(copy::CopyPolicy::memmove_model)},
  };

  std::printf("Fig. 14 — adaptive pipelined all-gather (p=%d, m=%d)\n", p,
              m);
  Session session("fig14_adaptive_allgather");
  sweep(team, "all-gather copy-policy sweep (relative to adaptive)", arms,
        sizes, hi, hi * static_cast<std::size_t>(p), &session, "allgather")
      .print();
  session.write();
  return 0;
}
