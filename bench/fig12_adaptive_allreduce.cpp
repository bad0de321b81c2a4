// Fig. 12 reproduction: socket-aware MA all-reduce under the four copy
// policies — adaptive (YHCCL), always-temporal (t-copy), always-NT
// (nt-copy) and the libc memmove size-threshold model.
//
// Expected shape: t-copy matches adaptive on small messages (everything
// fits in cache), nt-copy matches it on huge ones, and only the adaptive
// policy tracks the better of the two across the whole sweep, switching
// near the §5.4 model's predicted point s = (C - shm) / 2p.
//
// A second sweep runs the single-copy direct allreduce under the same four
// policies.  It pulls below its private-cache cut 2ps <= p*c'' and pushes
// with NT stores above it, so the cut and the NT choice can be re-checked
// on any host: adaptive should track t-copy below the cut and nt-copy
// above it.
#include "bench_util.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/model/dav_model.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const auto sizes = default_sizes(64u << 10, 32u << 20);
  const std::size_t hi = sizes.back();
  auto count_of = [](std::size_t b) {
    return std::max<std::size_t>(b / 8, 1);
  };

  auto arm = [&](copy::CopyPolicy pol) {
    return [count_of, pol](rt::RankCtx& c, const void* s, void* r,
                           std::size_t b) {
      coll::CollOpts o;
      o.policy = pol;
      coll::socket_ma_allreduce(c, s, r, count_of(b), Datatype::f64,
                                ReduceOp::sum, o);
    };
  };
  auto direct_arm = [&](copy::CopyPolicy pol) {
    return [count_of, pol](rt::RankCtx& c, const void* s, void* r,
                           std::size_t b) {
      coll::CollOpts o;
      o.policy = pol;
      coll::direct_allreduce(c, s, r, count_of(b), Datatype::f64,
                             ReduceOp::sum, o);
    };
  };

  const std::vector<std::pair<std::string, CollArm>> arms = {
      {"YHCCL", arm(copy::CopyPolicy::adaptive)},
      {"t-copy", arm(copy::CopyPolicy::always_temporal)},
      {"nt-copy", arm(copy::CopyPolicy::always_nt)},
      {"memmove", arm(copy::CopyPolicy::memmove_model)},
  };

  const auto& cache = team.config().cache;
  std::printf("Fig. 12 — adaptive-copy all-reduce (p=%d, m=%d)\n", p, m);
  std::printf("cache: %s\n", cache.describe().c_str());
  std::printf("model switch point (W = 2sp + m*p*Imax > C): s > %s\n",
              human_size(model::nt_switch_point_allreduce(
                             cache.available(p), p, m, 256u << 10))
                  .c_str());
  Session session("fig12_adaptive_allreduce");
  sweep(team, "all-reduce copy-policy sweep (relative to adaptive)", arms,
        sizes, hi, hi, &session, "allreduce")
      .print();

  // Arm labels deliberately differ from "direct": plan warming maps that
  // name to the automatic arm, and these cells pin the copy policy.
  const std::vector<std::pair<std::string, CollArm>> direct_arms = {
      {"direct-adaptive", direct_arm(copy::CopyPolicy::adaptive)},
      {"direct-t-copy", direct_arm(copy::CopyPolicy::always_temporal)},
      {"direct-nt-copy", direct_arm(copy::CopyPolicy::always_nt)},
      {"direct-memmove", direct_arm(copy::CopyPolicy::memmove_model)},
  };
  std::printf("\ndirect push cut (W = 2sp > p*c'' = %s): s > %s\n",
              human_size(coll::detail::private_caches(p, cache)).c_str(),
              human_size(cache.l2_per_core / 2).c_str());
  sweep(team, "direct all-reduce copy-policy sweep (relative to adaptive)",
        direct_arms, sizes, hi, hi, &session, "allreduce")
      .print();
  session.write();
  return 0;
}
