// Tier-generic kernel bodies, instantiated once per ISA tier.
//
// Each tier TU (kernels_{scalar,avx2,avx512}.cpp) is compiled with its own
// -m flags and instantiates these templates with a *TU-local* stream
// policy, so every tier gets its own auto-vectorized code and there is no
// cross-TU ODR sharing of differently-compiled bodies.  The policy
// supplies the only operations that need explicit intrinsics: streaming a
// 64-byte line and the store fence.
//
// Reduction shape: a single pass that reads all m sources once, folds them
// left-to-right in registers and stores once.  The fold is elementwise and
// sequential in k for every tier and every path (fixed-m, generic-m,
// temporal, streaming), which makes results bit-identical across tiers —
// float reduction order never depends on the vector width.
//
// Streaming stores go through a 64-byte-aligned block buffer: the block is
// computed with ordinary (auto-vectorized) code into L1-resident scratch,
// then pushed out line by line with non-temporal stores.  This costs one
// L1-hit round trip but gives NT coverage for *every* (op, dtype) combo
// with one implementation — no per-op intrinsic surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "yhccl/copy/dispatch.hpp"

namespace yhccl::copy::kimpl {

inline constexpr std::size_t kLineBytes = 64;   // NT-store granularity
inline constexpr std::size_t kBlockBytes = 256; // elements folded per block

/// Fixed-operand fusion limit: up to this many source pointers are kept in
/// named registers with a fully unrolled fold; larger fan-ins take the
/// generic blockwise path (still a single pass over memory).
inline constexpr int kMaxFusedOperands = 8;

// ---- elementwise operators --------------------------------------------------

template <typename T> struct OpSum {
  static T apply(T a, T b) noexcept { return static_cast<T>(a + b); }
};
template <typename T> struct OpProd {
  static T apply(T a, T b) noexcept { return static_cast<T>(a * b); }
};
template <typename T> struct OpMax {
  static T apply(T a, T b) noexcept { return a > b ? a : b; }
};
template <typename T> struct OpMin {
  static T apply(T a, T b) noexcept { return a < b ? a : b; }
};
template <typename T> struct OpBand {
  static T apply(T a, T b) noexcept { return static_cast<T>(a & b); }
};
template <typename T> struct OpBor {
  static T apply(T a, T b) noexcept { return static_cast<T>(a | b); }
};

// ---- m-ary fused reduction --------------------------------------------------

template <typename T, class Op, int M>
inline T fold_at(const T* const* p, std::size_t i) noexcept {
  T acc = p[0][i];
  for (int k = 1; k < M; ++k) acc = Op::apply(acc, p[k][i]);
  return acc;
}

/// Temporal fixed-m: one auto-vectorizable loop; `out` may alias any one
/// source exactly (out[i] is stored after every operand of i is loaded).
template <class SP, typename T, class Op, int M>
void rom_t(T* out, const T* const* srcs, std::size_t cnt) {
  const T* p[M];
  for (int k = 0; k < M; ++k) p[k] = srcs[k];
  for (std::size_t i = 0; i < cnt; ++i) out[i] = fold_at<T, Op, M>(p, i);
}

/// Streaming fixed-m: peel until `out` hits a 64 B boundary, then fold
/// block-by-block into aligned scratch and stream it out.
template <class SP, typename T, class Op, int M>
void rom_nt(T* out, const T* const* srcs, std::size_t cnt) {
  constexpr std::size_t EB = kBlockBytes / sizeof(T);
  const T* p[M];
  for (int k = 0; k < M; ++k) p[k] = srcs[k];
  std::size_t i = 0;
  while (i < cnt &&
         (reinterpret_cast<std::uintptr_t>(out + i) & (kLineBytes - 1)) != 0) {
    out[i] = fold_at<T, Op, M>(p, i);
    ++i;
  }
  alignas(kLineBytes) T tmp[EB];
  for (; i + EB <= cnt; i += EB) {
    for (std::size_t j = 0; j < EB; ++j) tmp[j] = fold_at<T, Op, M>(p, i + j);
    for (std::size_t b = 0; b < kBlockBytes; b += kLineBytes)
      SP::stream_line(reinterpret_cast<char*>(out + i) + b,
                      reinterpret_cast<const char*>(tmp) + b);
  }
  for (; i < cnt; ++i) out[i] = fold_at<T, Op, M>(p, i);
  SP::fence();
}

/// Generic runtime-m: still one pass over memory — each block of sources
/// is folded into L1-resident scratch, then stored (or streamed) once.
template <class SP, typename T, class Op>
void rom_gen(T* out, const T* const* srcs, int m, std::size_t cnt, bool nt) {
  constexpr std::size_t EB = kBlockBytes / sizeof(T);
  const bool stream = nt && SP::kHasStream;
  std::size_t i = 0;
  if (stream) {
    while (i < cnt && (reinterpret_cast<std::uintptr_t>(out + i) &
                       (kLineBytes - 1)) != 0) {
      T acc = srcs[0][i];
      for (int k = 1; k < m; ++k) acc = Op::apply(acc, srcs[k][i]);
      out[i] = acc;
      ++i;
    }
  }
  alignas(kLineBytes) T tmp[EB];
  for (; i + EB <= cnt; i += EB) {
    const T* s0 = srcs[0];
    for (std::size_t j = 0; j < EB; ++j) tmp[j] = s0[i + j];
    for (int k = 1; k < m; ++k) {
      const T* sk = srcs[k];
      for (std::size_t j = 0; j < EB; ++j)
        tmp[j] = Op::apply(tmp[j], sk[i + j]);
    }
    if (stream) {
      for (std::size_t b = 0; b < kBlockBytes; b += kLineBytes)
        SP::stream_line(reinterpret_cast<char*>(out + i) + b,
                        reinterpret_cast<const char*>(tmp) + b);
    } else {
      std::memcpy(out + i, tmp, kBlockBytes);
    }
  }
  for (; i < cnt; ++i) {
    T acc = srcs[0][i];
    for (int k = 1; k < m; ++k) acc = Op::apply(acc, srcs[k][i]);
    out[i] = acc;
  }
  if (stream) SP::fence();
}

template <class SP, typename T, class Op, int M>
void rom_fixed(T* out, const T* const* srcs, std::size_t cnt, bool nt) {
  if (nt && SP::kHasStream)
    rom_nt<SP, T, Op, M>(out, srcs, cnt);
  else
    rom_t<SP, T, Op, M>(out, srcs, cnt);
}

template <class SP, typename T, class Op>
void rom(void* out, const void* const* srcs, int m, std::size_t cnt,
         bool nt) {
  auto* o = static_cast<T*>(out);
  const auto* const* s = reinterpret_cast<const T* const*>(srcs);
  switch (m) {
    case 2: return rom_fixed<SP, T, Op, 2>(o, s, cnt, nt);
    case 3: return rom_fixed<SP, T, Op, 3>(o, s, cnt, nt);
    case 4: return rom_fixed<SP, T, Op, 4>(o, s, cnt, nt);
    case 5: return rom_fixed<SP, T, Op, 5>(o, s, cnt, nt);
    case 6: return rom_fixed<SP, T, Op, 6>(o, s, cnt, nt);
    case 7: return rom_fixed<SP, T, Op, 7>(o, s, cnt, nt);
    case 8: return rom_fixed<SP, T, Op, 8>(o, s, cnt, nt);
    default: return rom_gen<SP, T, Op>(o, s, m, cnt, nt);
  }
}

template <class SP, typename T>
void reduce_typed(void* out, const void* const* srcs, int m, std::size_t cnt,
                  ReduceOp op, bool nt) {
  switch (op) {
    case ReduceOp::sum: return rom<SP, T, OpSum<T>>(out, srcs, m, cnt, nt);
    case ReduceOp::prod: return rom<SP, T, OpProd<T>>(out, srcs, m, cnt, nt);
    case ReduceOp::max: return rom<SP, T, OpMax<T>>(out, srcs, m, cnt, nt);
    case ReduceOp::min: return rom<SP, T, OpMin<T>>(out, srcs, m, cnt, nt);
    case ReduceOp::band:
      if constexpr (std::is_integral_v<T>)
        return rom<SP, T, OpBand<T>>(out, srcs, m, cnt, nt);
      break;  // unreachable: op_valid_for() checked at the API boundary
    case ReduceOp::bor:
      if constexpr (std::is_integral_v<T>)
        return rom<SP, T, OpBor<T>>(out, srcs, m, cnt, nt);
      break;
  }
}

template <class SP>
void reduce_entry(void* out, const void* const* srcs, int m, std::size_t n,
                  Datatype d, ReduceOp op, bool nt) {
  switch (d) {
    case Datatype::u8:
      return reduce_typed<SP, std::uint8_t>(out, srcs, m, n, op, nt);
    case Datatype::i32:
      return reduce_typed<SP, std::int32_t>(out, srcs, m, n / 4, op, nt);
    case Datatype::i64:
      return reduce_typed<SP, std::int64_t>(out, srcs, m, n / 8, op, nt);
    case Datatype::f32:
      return reduce_typed<SP, float>(out, srcs, m, n / 4, op, nt);
    case Datatype::f64:
      return reduce_typed<SP, double>(out, srcs, m, n / 8, op, nt);
  }
}

// ---- copy kernels -----------------------------------------------------------

inline constexpr std::size_t kPrefetchAhead = 256;

template <class SP>
void copy_t_entry(void* dst, const void* src, std::size_t n) {
  auto* d = static_cast<char*>(dst);
  const auto* s = static_cast<const char*>(src);
  std::size_t i = 0;
  // Fixed-size block memcpy expands inline to the widest loads/stores the
  // TU's target flags allow.
  for (; i + kBlockBytes <= n; i += kBlockBytes) {
    __builtin_prefetch(s + i + kPrefetchAhead);
    __builtin_prefetch(s + i + kPrefetchAhead + kLineBytes);
    std::memcpy(d + i, s + i, kBlockBytes);
  }
  if (i < n) std::memcpy(d + i, s + i, n - i);
}

template <class SP>
void copy_nt_entry(void* dst, const void* src, std::size_t n) {
  if constexpr (!SP::kHasStream) {
    copy_t_entry<SP>(dst, src, n);
    return;
  } else {
    auto* d = static_cast<char*>(dst);
    const auto* s = static_cast<const char*>(src);
    std::size_t i = 0;
    // Streaming stores need 64 B destination alignment: peel the head.
    const std::size_t mis =
        reinterpret_cast<std::uintptr_t>(d) & (kLineBytes - 1);
    if (mis != 0) {
      const std::size_t head = kLineBytes - mis < n ? kLineBytes - mis : n;
      std::memcpy(d, s, head);
      i = head;
    }
    for (; i + kBlockBytes <= n; i += kBlockBytes) {
      __builtin_prefetch(s + i + kPrefetchAhead, 0, 0);
      __builtin_prefetch(s + i + kPrefetchAhead + kLineBytes, 0, 0);
      for (std::size_t b = 0; b < kBlockBytes; b += kLineBytes)
        SP::stream_line(d + i + b, s + i + b);
    }
    for (; i + kLineBytes <= n; i += kLineBytes) SP::stream_line(d + i, s + i);
    if (i < n) std::memcpy(d + i, s + i, n - i);
    // Streaming stores are weakly ordered; fence before any flag publish.
    SP::fence();
  }
}

template <class SP>
KernelTable make_table(IsaTier tier) {
  return KernelTable{tier, &copy_t_entry<SP>, &copy_nt_entry<SP>,
                     &reduce_entry<SP>};
}

}  // namespace yhccl::copy::kimpl
