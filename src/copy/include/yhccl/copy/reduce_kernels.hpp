// Reduction kernels used by every reduction collective.
//
// Three shapes, matching the paper's operations (Fig. 6):
//   A += B            reduce_inplace   — accumulate src into dst (temporal)
//   C  = A (+) B      reduce_out       — fused two-operand reduction
//   C  = B0 (+) ... (+) Bm-1
//                     reduce_out_multi — fused single-pass m-ary reduction:
//                     all m source slices are read once, folded in
//                     registers and stored once.
//
// All three route through the runtime ISA kernel table (dispatch.hpp):
// scalar / AVX2 / AVX-512 tiers, each with temporal and streaming store
// variants for every (op, dtype) combination.  Results are bit-identical
// across tiers and store types — the elementwise fold order is fixed.
//
// Buffers are raw bytes; `n` is a byte count that must be a multiple of
// the element size.  DAV accounting is uniform: a reduction of m operands
// books (m+1)·n bytes — m·n loaded, n stored.  (m = 2 for reduce_inplace
// and reduce_out, i.e. the familiar 3 bytes per payload byte.)
#pragma once

#include <cstddef>

#include "yhccl/common/types.hpp"

namespace yhccl::copy {

/// dst[i] = dst[i] op src[i]
void reduce_inplace(void* dst, const void* src, std::size_t n, Datatype d,
                    ReduceOp op) noexcept;

/// out[i] = a[i] op b[i]; streams the stores when nt_store is set.
void reduce_out(void* out, const void* a, const void* b, std::size_t n,
                Datatype d, ReduceOp op, bool nt_store) noexcept;

/// out[i] = op over m buffers:  srcs[0][i] op srcs[1][i] op ...  (m >= 1),
/// in one pass: (m+1)·n bytes of traffic instead of a pairwise chain's
/// ~3n·(m-1).  `out` may alias any one source exactly (same address, same
/// length): every element is stored only after all m operands of it were
/// loaded.  Partial overlaps are not allowed.  Used wherever a rank
/// combines several partials at once: the socket-combination stage of the
/// socket-aware MA reduction, DPML's partitioned stages, the RG tree's
/// child fold and the direct allreduce (in place, in rank order).
void reduce_out_multi(void* out, const void* const* srcs, int m,
                      std::size_t n, Datatype d, ReduceOp op,
                      bool nt_store);

}  // namespace yhccl::copy
