// Data-copy kernels (paper §4.1).
//
//  * t_copy   — prefetched loads + regular (write-allocating) stores.  The
//               stored lines land in cache, paying the Request-For-Ownership
//               (RFO) read but making an immediate re-read cheap.
//  * nt_copy  — prefetched loads + non-temporal streaming stores.  Bypasses
//               the cache entirely: no RFO read, no dirty-line write-back,
//               but the destination is not cached for future readers.
//  * memmove_model_copy — models the C library behaviour the paper compares
//               against: switch to NT stores purely on copy *size*.
//
// t_copy and nt_copy dispatch through the runtime ISA kernel table
// (dispatch.hpp): scalar / AVX2 / AVX-512 variants selected by cpuid and
// cappable with YHCCL_ISA.  On the scalar tier nt_copy degrades to
// temporal stores (the baseline ISA has no streaming-store path).
//
// All kernels handle arbitrary alignment and length, may not overlap, and
// account their traffic to the DAV counters (2 bytes moved per payload byte).
#pragma once

#include <cstddef>

namespace yhccl::copy {

/// Default size threshold above which glibc-style memmove switches to
/// non-temporal stores (x86-64 uses a value in this neighbourhood).
inline constexpr std::size_t kMemmoveNtThreshold = 2u << 20;

/// Temporal copy: prefetch + regular stores (write-allocate).
void t_copy(void* dst, const void* src, std::size_t n) noexcept;

/// Non-temporal copy: streaming stores, sfence on completion.
void nt_copy(void* dst, const void* src, std::size_t n) noexcept;

/// Plain scalar copy (reference implementation, used by tests).
void scalar_copy(void* dst, const void* src, std::size_t n) noexcept;

/// ERMS copy: a single `rep movsb`.  Modern x86 microcode recognizes the
/// fast-string idiom and often switches to non-RFO streaming internally
/// for large copies — on some (especially virtualized) hosts this beats
/// hand-written SIMD loops; the tab04 bench compares all of them.
void erms_copy(void* dst, const void* src, std::size_t n) noexcept;

/// Called by a freshly forked rank before its first copy: from then on
/// every copy and reduce entry point of this process reads one byte per
/// 64 KB of its destination before the first store, so the kernel maps the
/// rank's not-yet-mapped shared pages by read fault-around, ~1 fault per
/// 16 pages instead of one per page.  Off by default: where the pages stay
/// mapped (thread teams) the reads would be pure cost.
void enable_dst_prefault() noexcept;

/// The size-threshold heuristic used by libc memmove: temporal below the
/// threshold, non-temporal at/above it.  This is the baseline the paper's
/// adaptive-copy replaces.
void memmove_model_copy(void* dst, const void* src, std::size_t n,
                        std::size_t nt_threshold = kMemmoveNtThreshold) noexcept;

}  // namespace yhccl::copy
