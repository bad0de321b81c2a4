// Fig. 9 reproduction: reduce-scatter algorithm comparison.
//
// Paper: socket-aware MA vs flat MA vs DPML vs Ring vs Rabenseifner over
// 64 KB - 256 MB on 64/48-core nodes.  Here: the same arms, message sweep
// scaled to this host (see DESIGN.md §3 and bench_util.hpp).  The expected
// shape: the MA variants lead for messages beyond the small-message
// regime, with an average multi-x advantage over DPML/Ring/Rabenseifner.
#include "bench_util.hpp"
#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const auto sizes = default_sizes();
  const std::size_t hi = sizes.back();
  // `bytes` is the total message; reduce-scatter counts are per rank.
  auto count_of = [p](std::size_t bytes) {
    return std::max<std::size_t>(bytes / 8 / p, 1);
  };

  std::vector<std::pair<std::string, CollArm>> arms = {
      {"Socket-MA",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         coll::reduce_scatter(c, s, r, count_of(b), Datatype::f64,
                              ReduceOp::sum,
                              {.algorithm = coll::Algorithm::ma_socket_aware});
       }},
      {"MA",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         coll::reduce_scatter(c, s, r, count_of(b), Datatype::f64,
                              ReduceOp::sum,
                              {.algorithm = coll::Algorithm::ma_flat});
       }},
      {"DPML",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::dpml_reduce_scatter(c, s, r, count_of(b), Datatype::f64,
                                   ReduceOp::sum);
       }},
      {"Ring",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::ring_reduce_scatter(c, s, r, count_of(b), Datatype::f64,
                                   ReduceOp::sum,
                                   base::Transport::single_copy);
       }},
  };
  if ((p & (p - 1)) == 0)  // Rabenseifner needs a power-of-two team
    arms.push_back(
        {"Rabensfnr",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::rabenseifner_reduce_scatter(c, s, r, count_of(b),
                                             Datatype::f64, ReduceOp::sum,
                                             base::Transport::single_copy);
         }});

  std::printf("Fig. 9 — reduce-scatter algorithm comparison (p=%d, m=%d)\n",
              p, m);
  Session session("fig09_reduce_scatter");
  sweep(team, "reduce-scatter: relative time overhead vs Socket-MA", arms,
        sizes, hi, hi, &session, "reduce_scatter")
      .print();
  session.write();
  return 0;
}
