// Ablation (ours): sensitivity of the MA all-reduce to the maximum slice
// size Imax.  The paper tunes Imax = 256 KB on NodeA / 128 KB on NodeB
// (§5.3): slices must be small enough that the p*I shared buffer stays
// cache-resident, but large enough to amortize the per-round
// synchronization.  Expect a U-shape with a flat optimum in the tens to
// hundreds of KB.
#include "bench_util.hpp"
#include "yhccl/coll/coll.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const std::size_t bytes =
      static_cast<std::size_t>((8u << 20) * bench_scale());
  const std::size_t count = bytes / 8;
  RankBuffers bufs(p, bytes, bytes);

  std::printf("Ablation — MA all-reduce slice size (msg=%s, p=%d, m=%d)\n",
              human_size(bytes).c_str(), p, m);
  std::printf("%-10s %12s %12s\n", "Imax", "flat-MA(us)", "socket-MA(us)");
  Session session("ablation_slice_size");
  for (std::size_t imax = 4u << 10; imax <= 2u << 20; imax *= 2) {
    const coll::CollOpts flat_o{.algorithm = coll::Algorithm::ma_flat,
                                .slice_max = imax};
    const coll::CollOpts sock_o{
        .algorithm = coll::Algorithm::ma_socket_aware, .slice_max = imax};
    const double flat =
        measure_arm(
            team, session, "allreduce", "flat-MA@" + human_size(imax), bufs,
            [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
              coll::allreduce(c, s, r, count, Datatype::f64, ReduceOp::sum,
                              flat_o);
            },
            bytes)
            .time.median;
    const double sock =
        measure_arm(
            team, session, "allreduce", "socket-MA@" + human_size(imax),
            bufs,
            [&](rt::RankCtx& c, const void* s, void* r, std::size_t) {
              coll::allreduce(c, s, r, count, Datatype::f64, ReduceOp::sum,
                              sock_o);
            },
            bytes)
            .time.median;
    std::printf("%-10s %12.1f %12.1f\n", human_size(imax).c_str(),
                flat * 1e6, sock * 1e6);
  }
  session.write();
  return 0;
}
