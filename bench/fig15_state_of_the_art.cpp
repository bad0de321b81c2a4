// Fig. 15 reproduction: YHCCL vs the state-of-the-art implementations for
// all five collectives (reduce-scatter, reduce, all-reduce, broadcast,
// all-gather).
//
// The closed-source comparators are substituted by from-scratch
// implementations of the algorithms those libraries use (DESIGN.md §3):
//   DPML        — multi-leader parallel reduction [13]
//   RG          — Intel-style pipelined k-ary shared-memory tree [34]
//   OpenMPI     — two-copy eager ring / pipelined memmove collectives
//   CMA-ring    — kernel-assisted single-copy ring (Open MPI + CMA)
//   MPICH       — Rabenseifner recursive halving/doubling (two-copy)
//   XPMEM       — Hashmi's direct shared-address-space collectives
// Send/receive buffers are rewritten between iterations (§5.5).
#include "bench_util.hpp"
#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const auto sizes = default_sizes(16u << 10, 16u << 20);
  const std::size_t hi = sizes.back();
  const bool pow2 = (p & (p - 1)) == 0;
  auto cnt = [](std::size_t b) { return std::max<std::size_t>(b / 8, 1); };
  auto cnt_rs = [p](std::size_t b) {
    return std::max<std::size_t>(b / 8 / p, 1);
  };

  std::printf("Fig. 15 — YHCCL vs state-of-the-art (p=%d, m=%d)\n", p, m);
  Session session("fig15_state_of_the_art");

  // ---- (a) reduce-scatter --------------------------------------------------
  {
    std::vector<std::pair<std::string, CollArm>> arms = {
        // YHCCL is the paper's §5.1 staged rule; the automatic call runs
        // the single-copy direct arm above the threshold, shown on its own.
        {"YHCCL",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           coll::CollOpts o;
           o.algorithm = coll::plan::staged_reduction_algorithm(
               coll::CollKind::reduce_scatter,
               cnt_rs(b) * 8 * static_cast<std::size_t>(c.nranks()), o,
               c.team().topo());
           coll::reduce_scatter(c, s, r, cnt_rs(b), Datatype::f64,
                                ReduceOp::sum, o);
         }},
        {"YHCCL-direct",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           coll::reduce_scatter(c, s, r, cnt_rs(b), Datatype::f64,
                                ReduceOp::sum);
         }},
        {"DPML",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::dpml_reduce_scatter(c, s, r, cnt_rs(b), Datatype::f64,
                                     ReduceOp::sum);
         }},
        {"OpenMPI",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::ring_reduce_scatter(c, s, r, cnt_rs(b), Datatype::f64,
                                     ReduceOp::sum,
                                     base::Transport::two_copy);
         }},
        {"CMA-ring",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::ring_reduce_scatter(c, s, r, cnt_rs(b), Datatype::f64,
                                     ReduceOp::sum,
                                     base::Transport::single_copy);
         }},
        {"XPMEM",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::xpmem_reduce_scatter(c, s, r, cnt_rs(b), Datatype::f64,
                                      ReduceOp::sum);
         }},
    };
    if (pow2)
      arms.push_back(
          {"MPICH",
           [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
             base::rabenseifner_reduce_scatter(c, s, r, cnt_rs(b),
                                               Datatype::f64, ReduceOp::sum,
                                               base::Transport::two_copy);
           }});
    sweep(team, "(a) reduce-scatter", arms, sizes, hi, hi, &session,
          "reduce_scatter")
        .print();
  }

  // ---- (b) reduce ------------------------------------------------------------
  {
    const std::vector<std::pair<std::string, CollArm>> arms = {
        {"YHCCL",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           coll::reduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum, 0);
         }},
        {"RG",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::rg_reduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum, 0);
         }},
        {"DPML",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::dpml_reduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum,
                             0);
         }},
        {"XPMEM",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::xpmem_reduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum,
                              0);
         }},
    };
    sweep(team, "(b) reduce (root 0, max over ranks)", arms, sizes, hi, hi,
          &session, "reduce")
        .print();
  }

  // ---- (c) all-reduce ----------------------------------------------------------
  {
    std::vector<std::pair<std::string, CollArm>> arms = {
        // YHCCL is the paper's §5.1 staged rule; a thread team's
        // automatic call runs the single-copy direct arm, shown on its own.
        {"YHCCL",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           coll::CollOpts o;
           o.algorithm = coll::plan::staged_reduction_algorithm(
               coll::CollKind::allreduce, cnt(b) * 8, o, c.team().topo());
           coll::allreduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum, o);
         }},
        {"YHCCL-direct",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           coll::allreduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum);
         }},
        {"DPML",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::dpml_allreduce(c, s, r, cnt(b), Datatype::f64,
                                ReduceOp::sum);
         }},
        {"RG",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::rg_allreduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum);
         }},
        {"OpenMPI",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::ring_allreduce(c, s, r, cnt(b), Datatype::f64,
                                ReduceOp::sum, base::Transport::two_copy);
         }},
        {"XPMEM",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::xpmem_allreduce(c, s, r, cnt(b), Datatype::f64,
                                 ReduceOp::sum);
         }},
    };
    if (pow2)
      arms.push_back(
          {"MPICH",
           [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
             base::rabenseifner_allreduce(c, s, r, cnt(b), Datatype::f64,
                                          ReduceOp::sum,
                                          base::Transport::two_copy);
           }});
    sweep(team, "(c) all-reduce", arms, sizes, hi, hi, &session,
          "allreduce")
        .print();
  }

  // ---- (d) broadcast ------------------------------------------------------------
  {
    const std::vector<std::pair<std::string, CollArm>> arms = {
        {"YHCCL",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           (void)s;
           coll::broadcast(c, r, cnt(b), Datatype::f64, 0);
         }},
        {"OpenMPI",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           (void)s;
           coll::CollOpts o;
           o.policy = copy::CopyPolicy::memmove_model;
           coll::pipelined_broadcast(c, r, cnt(b), Datatype::f64, 0, o);
         }},
        {"XPMEM",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           (void)s;
           base::xpmem_broadcast(c, r, cnt(b), Datatype::f64, 0);
         }},
    };
    sweep(team, "(d) broadcast (root 0, max over ranks)", arms, sizes, hi,
          hi, &session, "broadcast")
        .print();
  }

  // ---- (e) all-gather --------------------------------------------------------------
  {
    const auto ag_sizes = default_sizes(8u << 10, 2u << 20);
    const std::size_t ag_hi = ag_sizes.back();
    const std::vector<std::pair<std::string, CollArm>> arms = {
        {"YHCCL",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           coll::allgather(c, s, r, cnt(b), Datatype::f64);
         }},
        {"OpenMPI",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::ring_allgather(c, s, r, cnt(b), Datatype::f64,
                                base::Transport::two_copy);
         }},
        {"CMA-ring",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::ring_allgather(c, s, r, cnt(b), Datatype::f64,
                                base::Transport::single_copy);
         }},
        {"XPMEM",
         [&](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
           base::xpmem_allgather(c, s, r, cnt(b), Datatype::f64);
         }},
    };
    sweep(team, "(e) all-gather (per-rank message size)", arms, ag_sizes,
          ag_hi, ag_hi * static_cast<std::size_t>(p), &session, "allgather")
        .print();
  }
  session.write();
  return 0;
}
