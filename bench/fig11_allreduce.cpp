// Fig. 11 reproduction: all-reduce algorithm comparison (socket-aware MA,
// flat MA, DPML, RG, Ring, Rabenseifner).
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

  std::vector<std::pair<std::string, CollArm>> arms = {
      {"Socket-MA",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         coll::allreduce(c, s, r, count_of(b), Datatype::f64, ReduceOp::sum,
                         {.algorithm = coll::Algorithm::ma_socket_aware});
       }},
      {"MA",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         coll::allreduce(c, s, r, count_of(b), Datatype::f64, ReduceOp::sum,
                         {.algorithm = coll::Algorithm::ma_flat});
       }},
      {"DPML",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::dpml_allreduce(c, s, r, count_of(b), Datatype::f64,
                              ReduceOp::sum);
       }},
      {"RG",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::rg_allreduce(c, s, r, count_of(b), Datatype::f64,
                            ReduceOp::sum);
       }},
      {"Ring",
       [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
         base::ring_allreduce(c, s, r, count_of(b), Datatype::f64,
                              ReduceOp::sum, base::Transport::single_copy);
       }},
  };
  if ((p & (p - 1)) == 0)
    arms.push_back(
        {"Rabensfnr",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::rabenseifner_allreduce(c, s, r, count_of(b), Datatype::f64,
                                        ReduceOp::sum,
                                        base::Transport::single_copy);
         }});

  std::printf("Fig. 11 — all-reduce algorithm comparison (p=%d, m=%d)\n", p,
              m);
  Session session("fig11_allreduce");
  sweep(team, "all-reduce: relative time overhead vs Socket-MA", arms, sizes,
        hi, hi, &session, "allreduce")
      .print();
  session.write();
  return 0;
}
