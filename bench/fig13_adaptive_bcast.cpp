// Fig. 13 reproduction: pipelined broadcast under the four copy policies
// (paper: Imax = 1 MB, 16 KB - 256 MB sweep; scaled here).  Broadcast has
// no computation, so the store policy dominates: nt-copy hurts small
// messages, t-copy hurts large ones, adaptive tracks both.
#include "bench_util.hpp"
#include "yhccl/coll/coll.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const auto sizes = default_sizes(16u << 10, 32u << 20);
  const std::size_t hi = sizes.back();

  auto arm = [](copy::CopyPolicy pol) {
    return [pol](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
      (void)s;
      coll::CollOpts o;
      o.policy = pol;
      o.algorithm = coll::Algorithm::pipelined;
      o.slice_max = 1u << 20;  // paper's Imax for the bcast experiment
      coll::broadcast(c, r, std::max<std::size_t>(b / 8, 1), Datatype::f64,
                      /*root=*/0, o);
    };
  };

  const std::vector<std::pair<std::string, CollArm>> arms = {
      {"YHCCL", arm(copy::CopyPolicy::adaptive)},
      {"t-copy", arm(copy::CopyPolicy::always_temporal)},
      {"nt-copy", arm(copy::CopyPolicy::always_nt)},
      {"memmove", arm(copy::CopyPolicy::memmove_model)},
  };

  std::printf("Fig. 13 — adaptive pipelined broadcast (p=%d, m=%d)\n", p, m);
  Session session("fig13_adaptive_bcast");
  sweep(team, "broadcast copy-policy sweep (relative to adaptive)", arms,
        sizes, hi, hi, &session, "broadcast")
      .print();
  session.write();
  return 0;
}
