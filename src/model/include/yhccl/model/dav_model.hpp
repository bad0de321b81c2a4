// Analytical data-access-volume (DAV) models — paper Tables 1, 2, 3 — plus
// the NT-store switch-point model of §5.4 and a DAV/DAB time estimator.
//
// Two families:
//  * `paper::` — the formulas exactly as printed in the paper's tables.
//  * `impl::`  — the byte-exact accounting of *this repository's*
//    implementations, validated against the instrumented kernels in
//    tests/test_dav_models.cpp.  They differ from `paper::` in constant
//    bookkeeping terms (e.g. the paper ignores Rabenseifner's working-copy
//    initialization and counts one extra copy for DPML) and — since the
//    single-pass m-ary fused reduction kernels — in the socket-combination
//    term: fusing m partials costs (m+1)·n instead of the pairwise chain's
//    3n(m-1), which removes the 2m-dependence from the socket-aware
//    formulas entirely.  The asymptotic p-dependence is identical.
//
// All functions take the message size `s` in bytes and return bytes moved
// per node (summed over the p ranks).
#pragma once

#include <cstddef>
#include <cstdint>

namespace yhccl::model {

namespace paper {

// ---- Table 1: reduce-scatter -----------------------------------------------
std::uint64_t ring_reduce_scatter(std::size_t s, int p);          // 5s(p-1)
std::uint64_t rabenseifner_reduce_scatter(std::size_t s, int p);  // 5sp(1-1/p)
std::uint64_t dpml_reduce_scatter(std::size_t s, int p);          // s(5p-1)
std::uint64_t ma_reduce_scatter(std::size_t s, int p);            // s(3p-1)
std::uint64_t socket_ma_reduce_scatter(std::size_t s, int p, int m);

// ---- Table 2: all-reduce -----------------------------------------------------
std::uint64_t ring_allreduce(std::size_t s, int p);          // 7s(p-1)
std::uint64_t rabenseifner_allreduce(std::size_t s, int p);  // 7sp(1-1/p)
std::uint64_t dpml_allreduce(std::size_t s, int p);          // s(7p-1)
std::uint64_t rg_allreduce(std::size_t s, int p, int k);
std::uint64_t ma_allreduce(std::size_t s, int p);  // s(5p-1)
std::uint64_t socket_ma_allreduce(std::size_t s, int p, int m);
std::uint64_t xpmem_allreduce(std::size_t s, int p);  // 5s(p-1), §5.5

// ---- Table 3: reduce ----------------------------------------------------------
std::uint64_t dpml_reduce(std::size_t s, int p);  // s(5p+1)
std::uint64_t rg_reduce(std::size_t s, int p, int k);
std::uint64_t ma_reduce(std::size_t s, int p);  // s(3p+1)
std::uint64_t socket_ma_reduce(std::size_t s, int p, int m);

}  // namespace paper

namespace impl {

// Byte-exact models of this repo's implementations (divisible geometry:
// blocks a multiple of the slice, slice cacheline-aligned).
std::uint64_t ma_reduce_scatter(std::size_t s, int p);  // s(3p-1), exact
std::uint64_t socket_ma_reduce_scatter(std::size_t s, int p, int m);  // s(3p+1)
std::uint64_t ma_allreduce(std::size_t s, int p);  // s(5p-1), exact
std::uint64_t socket_ma_allreduce(std::size_t s, int p, int m);  // s(5p+1)
std::uint64_t ma_reduce(std::size_t s, int p);  // s(3p+1), exact
std::uint64_t socket_ma_reduce(std::size_t s, int p, int m);  // s(3p+3)
std::uint64_t dpml_reduce_scatter(std::size_t s, int p);  // s(3p+1), fused
std::uint64_t dpml_allreduce(std::size_t s, int p);       // s(5p+1), fused
std::uint64_t ring_reduce_scatter_single_copy(std::size_t s, int p);
std::uint64_t ring_reduce_scatter_two_copy(std::size_t s, int p);
std::uint64_t ring_allreduce_single_copy(std::size_t s, int p);
std::uint64_t ring_allreduce_two_copy(std::size_t s, int p);
std::uint64_t rabenseifner_allreduce_single_copy(std::size_t s, int p);
std::uint64_t xpmem_allreduce(std::size_t s, int p);  // s(3p-1), fused
std::uint64_t pipelined_broadcast(std::size_t s, int p);   // 2s + 2s(p-1)
std::uint64_t pipelined_allgather(std::size_t s, int p);   // p(2s + 2sp)

// ---- operation-count simulators ---------------------------------------------
// Exact node totals (summed over all p ranks) of every deterministic
// counter the runtime instruments: DAV bytes (copy/dav.hpp), kernel
// dispatches (copy/isa.hpp) and sync operations (runtime/sync_counts.hpp).
// Unlike the closed-form byte models above — which assume divisible
// geometry — these replay each implementation's loop structure over the
// same BlockSlicing arithmetic, so they are exact for ragged tails, odd
// rank counts and s not a multiple of p·slice too.  The bench comparator
// and the CI perf-smoke leg gate on them (docs/benchmarking.md).

struct OpGeometry {
  int p = 1;                           ///< team ranks
  int m = 1;                           ///< sockets (Topology(p, m))
  std::size_t slice_max = 256u << 10;  ///< CollOpts::slice_max
  std::size_t slice_min = 64;          ///< CollOpts::slice_min
  std::size_t dpml_chunk = 32u << 10;  ///< CollOpts::dpml_chunk
  std::size_t scratch_bytes = 64u << 20;  ///< TeamConfig::scratch_bytes
  bool dpml_flat = false;              ///< CollOpts::dpml_flat
};

struct OpCounts {
  std::uint64_t loads = 0;         ///< DAV bytes read
  std::uint64_t stores = 0;        ///< DAV bytes written
  std::uint64_t kernel_calls = 0;  ///< copy/reduce kernel dispatches
  std::uint64_t barriers = 0;      ///< barrier arrivals (all ranks)
  std::uint64_t flag_posts = 0;    ///< progress-flag publishes
  std::uint64_t flag_waits = 0;    ///< progress-flag waits

  std::uint64_t dav() const noexcept { return loads + stores; }
  std::uint64_t sync() const noexcept {
    return barriers + flag_posts + flag_waits;
  }
  bool operator==(const OpCounts&) const noexcept = default;
};

// `s` follows the byte-model convention: the reduce-scatter input vector
// (p·count·esize) for *_reduce_scatter, the per-rank message otherwise.
OpCounts ma_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
OpCounts ma_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts ma_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts socket_ma_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
OpCounts socket_ma_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts socket_ma_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts dpml_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
OpCounts dpml_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts dpml_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts pipelined_broadcast_ops(std::size_t s, const OpGeometry& g);
OpCounts pipelined_allgather_ops(std::size_t s, const OpGeometry& g);
/// The direct allreduce's pull schedule (and base::xpmem_allreduce):
/// DAV s(3p-1), 3p barrier arrivals.
OpCounts xpmem_allreduce_ops(std::size_t s, const OpGeometry& g);
/// The direct allreduce's push schedule (coll::detail::direct_pushes):
/// the same loads and stores as the pull, 2p barrier arrivals, and per
/// slice of slice_max one fused reduction plus p-1 copies.
OpCounts direct_push_allreduce_ops(std::size_t s, const OpGeometry& g);
/// Single-copy reduce_scatter (coll::direct_reduce_scatter) over the input
/// s = p·B: each rank reduces its block of all p send buffers, so loads
/// p·s, stores s, DAV (p+1)s; 2p barrier arrivals; p·⌈B/I⌉ fused
/// reductions over slices of slice_max; no flags.
OpCounts direct_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
/// One-barrier fold (coll::fold_allreduce): per rank copy-in 2s plus a
/// (p+1)s fused fold, so DAV p(p+3)·s, p barrier arrivals, no flags.
OpCounts fold_allreduce_ops(std::size_t s, const OpGeometry& g);

}  // namespace impl

/// §5.4: message size beyond which the adaptive policy starts streaming
/// the copy-outs of the MA all-reduce:
///   W = 2sp + shm  >  C   <=>   s > (C - shm) / (2p),
/// where shm is the shared-buffer term (m*p*Imax for the socket-aware
/// variant; the paper's worked numbers in §5.4 plug in p*Imax).
/// Returns 0 when the cache is so small every size streams.
std::size_t nt_switch_point(std::size_t cache_capacity, int p,
                            std::size_t shm_bytes);
std::size_t nt_switch_point_allreduce(std::size_t cache_capacity, int p,
                                      int m, std::size_t slice_max);

/// Predicted wall time from DAV and a measured memory bandwidth (DAB).
double time_from_dav(std::uint64_t dav_bytes, double dab_bytes_per_sec);

}  // namespace yhccl::model
