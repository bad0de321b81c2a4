// Fig. 10 reproduction: reduce algorithm comparison (socket-aware MA vs
// flat MA vs DPML vs RG pipelined tree), root 0, max-over-ranks timing
// per §5.5 ("for unbalanced collectives we show the maximum overhead").
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
  auto count_of = [](std::size_t bytes) {
    return std::max<std::size_t>(bytes / 8, 1);
  };

  const std::vector<std::pair<std::string, CollArm>> arms = {
      {"Socket-MA",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         coll::reduce(c, s, r, count_of(b), Datatype::f64, ReduceOp::sum, 0,
                      {.algorithm = coll::Algorithm::ma_socket_aware});
       }},
      {"MA",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         coll::reduce(c, s, r, count_of(b), Datatype::f64, ReduceOp::sum, 0,
                      {.algorithm = coll::Algorithm::ma_flat});
       }},
      {"DPML",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::dpml_reduce(c, s, r, count_of(b), Datatype::f64,
                           ReduceOp::sum, 0);
       }},
      {"RG",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::rg_reduce(c, s, r, count_of(b), Datatype::f64, ReduceOp::sum,
                         0);
       }},
  };

  std::printf("Fig. 10 — reduce algorithm comparison (p=%d, m=%d, root=0)\n",
              p, m);
  Session session("fig10_reduce");
  sweep(team, "reduce: relative time overhead vs Socket-MA", arms, sizes, hi,
        hi, &session, "reduce")
      .print();
  session.write();
  return 0;
}
