// Runtime ISA tier selection for the copy/reduction kernels.
//
// The kernel layer is compiled three times — scalar, AVX2 and AVX-512 —
// and the best tier the host supports is picked once at startup via cpuid
// (see dispatch.hpp for the table the tiers populate).  The environment
// variable YHCCL_ISA=scalar|avx2|avx512 caps the selection (never raises
// it above what the CPU supports), which is how the benches sweep tiers
// and how CI exercises the portable scalar path on any runner.
//
// All kernels are bit-identical across tiers: vectorization is across the
// element index only, so the elementwise fold order (srcs[0] op srcs[1]
// op ...) never changes with the vector width.
#pragma once

#include <cstdint>

namespace yhccl::copy {

enum class IsaTier : int { scalar = 0, avx2 = 1, avx512 = 2 };

inline constexpr int kNumIsaTiers = 3;

constexpr const char* isa_name(IsaTier t) noexcept {
  switch (t) {
    case IsaTier::scalar: return "scalar";
    case IsaTier::avx2: return "avx2";
    case IsaTier::avx512: return "avx512";
  }
  return "?";
}

/// Best tier this binary can run on this host (cpuid, cached after the
/// first call).  Independent of any override.
IsaTier detected_isa() noexcept;

/// Tier the kernel table currently dispatches to: detected_isa() capped by
/// YHCCL_ISA (parsed once) and by any force_isa() call.
IsaTier active_isa() noexcept;

/// Force a tier (tests / benches).  Requests above detected_isa() are
/// clamped; returns the tier actually activated.  Not thread-safe against
/// concurrent kernel calls — switch tiers only between SPMD regions.
IsaTier force_isa(IsaTier t) noexcept;

/// Parse "scalar" / "avx2" / "avx512"; returns false on unknown input.
bool isa_from_string(const char* s, IsaTier& out) noexcept;

// ---- per-tier kernel-call counters ------------------------------------------
// Thread-local tally of dispatched kernel calls per tier, so the team's
// counters (Team::total_kernels) and the bench harness can record which
// tier actually ran inside a collective.

struct KernelCounts {
  std::uint64_t calls[kNumIsaTiers] = {};

  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (auto c : calls) t += c;
    return t;
  }
  KernelCounts operator-(const KernelCounts& o) const noexcept {
    KernelCounts r;
    for (int i = 0; i < kNumIsaTiers; ++i) r.calls[i] = calls[i] - o.calls[i];
    return r;
  }
  KernelCounts& operator+=(const KernelCounts& o) noexcept {
    for (int i = 0; i < kNumIsaTiers; ++i) calls[i] += o.calls[i];
    return *this;
  }
  /// Tier with the most calls (scalar when empty) — the "which kernel ran"
  /// answer for a bench series.
  IsaTier dominant() const noexcept {
    int best = 0;
    for (int i = 1; i < kNumIsaTiers; ++i)
      if (calls[i] > calls[best]) best = i;
    return static_cast<IsaTier>(best);
  }
  bool operator==(const KernelCounts&) const noexcept = default;
};

namespace detail {
inline thread_local KernelCounts g_kernel_counts;
}

inline void kernel_count_add(IsaTier t) noexcept {
  ++detail::g_kernel_counts.calls[static_cast<int>(t)];
}
inline KernelCounts kernel_counts_read() noexcept {
  return detail::g_kernel_counts;
}
inline void kernel_counts_reset() noexcept {
  detail::g_kernel_counts = KernelCounts{};
}

/// RAII delta measurement, mirroring DavScope.
class KernelCountScope {
 public:
  KernelCountScope() : start_(kernel_counts_read()) {}
  KernelCounts delta() const noexcept {
    return kernel_counts_read() - start_;
  }

 private:
  KernelCounts start_;
};

}  // namespace yhccl::copy
