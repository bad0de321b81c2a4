// Unit tests for the reduction kernels.
//
// The kernels dispatch through a runtime-selected ISA tier (scalar / AVX2 /
// AVX-512), so every correctness property is checked under *each* tier the
// host can run, via force_isa():
//   * elementwise parity with an in-test scalar reference for every
//     (op, dtype) combination, fan-in m = 1..9 (crossing the fixed-arity /
//     generic-path boundary at m = 8), unaligned sources and destinations,
//     odd lengths, and both temporal and streaming stores;
//   * bit-identical float results across tiers and store types (the fold
//     order is fixed; vectorization only runs across the element index);
//   * single-pass DAV accounting: a fused m-ary reduction books exactly
//     (m+1)*n bytes — m*n loaded, n stored — vs the 3n(m-1) of the
//     pairwise chain it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "yhccl/common/error.hpp"
#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/reduce_kernels.hpp"

using yhccl::Datatype;
using yhccl::ReduceOp;
namespace yc = yhccl::copy;

namespace {

/// Forces a tier for the scope, restoring the previous one on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(yc::IsaTier t) : prev_(yc::active_isa()) {
    active_ = yc::force_isa(t);
  }
  ~ScopedIsa() { yc::force_isa(prev_); }
  yc::IsaTier active() const { return active_; }

 private:
  yc::IsaTier prev_, active_;
};

std::vector<yc::IsaTier> runnable_tiers() {
  std::vector<yc::IsaTier> ts;
  for (int t = 0; t <= static_cast<int>(yc::detected_isa()); ++t)
    ts.push_back(static_cast<yc::IsaTier>(t));
  return ts;
}

/// Deterministic operand value.  Small: overflow-free for sum at m <= 9 in
/// every dtype except u8, where both kernel and reference wrap identically.
/// Products stay in {1,2}^m.
template <typename T>
T gen(int k, std::size_t i, ReduceOp op) {
  if (op == ReduceOp::prod) return static_cast<T>(1 + ((k + i) % 2));
  return static_cast<T>(((k + 3) * 29 + static_cast<int>(i % 257) * 13) % 101);
}

template <typename T>
T ref_apply(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::sum: return static_cast<T>(a + b);
    case ReduceOp::prod: return static_cast<T>(a * b);
    case ReduceOp::max: return a > b ? a : b;
    case ReduceOp::min: return a < b ? a : b;
    case ReduceOp::band:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a & b);
      break;
    case ReduceOp::bor:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a | b);
      break;
  }
  return a;
}

/// Sequential fold srcs[0] op srcs[1] op ... — the order every tier must
/// reproduce exactly.
template <typename T>
void ref_reduce(T* out, const std::vector<const T*>& srcs, int m,
                std::size_t cnt, ReduceOp op) {
  for (std::size_t i = 0; i < cnt; ++i) {
    T acc = srcs[0][i];
    for (int k = 1; k < m; ++k) acc = ref_apply(op, acc, srcs[k][i]);
    out[i] = acc;
  }
}

struct Combo {
  Datatype d;
  ReduceOp op;
};

class ReduceKernel : public ::testing::TestWithParam<Combo> {};

/// The exhaustive parity sweep: tiers x m x lengths x alignment x store
/// type, all against the scalar reference.
template <typename T>
void run_combo(ReduceOp op, Datatype d) {
  constexpr int kMaxM = 9;  // crosses the fixed-arity limit (8)
  for (yc::IsaTier tier : runnable_tiers()) {
    ScopedIsa scoped(tier);
    ASSERT_EQ(scoped.active(), tier);
    for (std::size_t cnt :
         {std::size_t{1}, std::size_t{17}, std::size_t{255},
          std::size_t{5003}}) {
      // Sources at varying element offsets from a vector-aligned base so
      // the kernels see unaligned pointers; 64B-block peel paths get both
      // aligned and misaligned heads.
      std::vector<std::vector<T>> bufs(kMaxM);
      std::vector<const T*> srcs;
      for (int k = 0; k < kMaxM; ++k) {
        const std::size_t off = static_cast<std::size_t>(k % 3);
        bufs[k].resize(cnt + off + 8);
        for (std::size_t i = 0; i < cnt; ++i)
          bufs[k][off + i] = gen<T>(k, i, op);
        srcs.push_back(bufs[k].data() + off);
      }
      for (int m = 1; m <= kMaxM; ++m) {
        std::vector<T> ref(cnt);
        ref_reduce(ref.data(), srcs, m, cnt, op);
        for (bool nt : {false, true}) {
          std::vector<T> outbuf(cnt + 9, T{});
          T* out = outbuf.data() + 1;  // misaligned destination
          std::vector<const void*> vsrcs(srcs.begin(), srcs.begin() + m);
          yc::reduce_out_multi(out, vsrcs.data(), m, cnt * sizeof(T), d, op,
                               nt);
          for (std::size_t i = 0; i < cnt; ++i)
            ASSERT_EQ(out[i], ref[i])
                << isa_name(tier) << " m=" << m << " cnt=" << cnt
                << " nt=" << nt << " i=" << i;
        }
      }
      // Two-operand entry points against the same reference (m = 2).
      if (cnt >= 2) {
        std::vector<T> ref(cnt);
        ref_reduce(ref.data(), srcs, 2, cnt, op);
        std::vector<T> out(cnt, T{});
        yc::reduce_out(out.data(), srcs[0], srcs[1], cnt * sizeof(T), d, op,
                       /*nt_store=*/true);
        for (std::size_t i = 0; i < cnt; ++i)
          ASSERT_EQ(out[i], ref[i]) << isa_name(tier) << " out-nt i=" << i;
        std::vector<T> acc(srcs[0], srcs[0] + cnt);
        yc::reduce_inplace(acc.data(), srcs[1], cnt * sizeof(T), d, op);
        for (std::size_t i = 0; i < cnt; ++i)
          ASSERT_EQ(acc[i], ref[i]) << isa_name(tier) << " inplace i=" << i;
      }
    }
  }
}

TEST_P(ReduceKernel, ParityWithScalarReferenceUnderEveryTier) {
  const auto [d, op] = GetParam();
  switch (d) {
    case Datatype::u8: run_combo<std::uint8_t>(op, d); break;
    case Datatype::i32: run_combo<std::int32_t>(op, d); break;
    case Datatype::i64: run_combo<std::int64_t>(op, d); break;
    case Datatype::f32: run_combo<float>(op, d); break;
    case Datatype::f64: run_combo<double>(op, d); break;
  }
}

std::vector<Combo> all_combos() {
  std::vector<Combo> cs;
  for (Datatype d : {Datatype::u8, Datatype::i32, Datatype::i64, Datatype::f32,
                     Datatype::f64})
    for (ReduceOp op : {ReduceOp::sum, ReduceOp::prod, ReduceOp::max,
                        ReduceOp::min, ReduceOp::band, ReduceOp::bor})
      if (op_valid_for(op, d)) cs.push_back({d, op});
  return cs;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, ReduceKernel,
                         ::testing::ValuesIn(all_combos()),
                         [](const auto& info) {
                           return std::string(dtype_name(info.param.d)) + "_" +
                                  std::string(op_name(info.param.op));
                         });

TEST(ReduceKernelTiers, FloatSumsAreBitIdenticalAcrossTiersAndStoreTypes) {
  // Mixed-magnitude values make float addition order-sensitive: if any
  // tier or store path reassociated the fold, some lane would differ.
  const std::size_t cnt = 4099;
  constexpr int m = 5;
  std::vector<std::vector<double>> bufs(m, std::vector<double>(cnt));
  for (int k = 0; k < m; ++k)
    for (std::size_t i = 0; i < cnt; ++i)
      bufs[k][i] = (1.0 + static_cast<double>((i * 7 + k) % 97)) *
                   std::pow(10.0, static_cast<double>((k * 5 + i) % 13) - 6);
  std::vector<const void*> srcs;
  for (auto& b : bufs) srcs.push_back(b.data());

  std::vector<double> first;
  for (yc::IsaTier tier : runnable_tiers()) {
    ScopedIsa scoped(tier);
    for (bool nt : {false, true}) {
      std::vector<double> out(cnt, -1.0);
      yc::reduce_out_multi(out.data(), srcs.data(), m, cnt * sizeof(double),
                           Datatype::f64, ReduceOp::sum, nt);
      if (first.empty()) {
        first = out;
      } else {
        ASSERT_EQ(0, std::memcmp(out.data(), first.data(),
                                 cnt * sizeof(double)))
            << isa_name(tier) << " nt=" << nt;
      }
    }
  }
}

TEST(ReduceKernelDav, TwoOperandIsThreeBytesPerPayloadByte) {
  const std::size_t n = 64 * 1024;
  std::vector<float> a(n / 4), b(n / 4), out(n / 4);
  yc::DavScope s1;
  yc::reduce_inplace(a.data(), b.data(), n, Datatype::f32, ReduceOp::sum);
  EXPECT_EQ(s1.delta().loads, 2 * n);
  EXPECT_EQ(s1.delta().stores, n);
  yc::DavScope s2;
  yc::reduce_out(out.data(), a.data(), b.data(), n, Datatype::f32,
                 ReduceOp::sum, true);
  EXPECT_EQ(s2.delta().total(), 3 * n);
}

TEST(ReduceKernelDav, SinglePassMultiBooksMPlus1BytesPerPayloadByte) {
  // The single-pass kernel reads each of the m sources once and stores
  // once: exactly (m+1)*n for every fan-in, including the generic m > 8
  // path and the m = 1 copy degenerate.
  const std::size_t n = 256 * 1024;
  constexpr int kMaxM = 9;
  std::vector<std::vector<float>> bufs(kMaxM,
                                       std::vector<float>(n / 4, 1.0f));
  std::vector<float> out(n / 4);
  for (int m = 1; m <= kMaxM; ++m) {
    std::vector<const void*> srcs;
    for (int k = 0; k < m; ++k) srcs.push_back(bufs[k].data());
    yc::DavScope scope;
    yc::reduce_out_multi(out.data(), srcs.data(), m, n, Datatype::f32,
                         ReduceOp::sum, false);
    EXPECT_EQ(scope.delta().loads, static_cast<std::uint64_t>(m) * n) << m;
    EXPECT_EQ(scope.delta().stores, n) << m;
    EXPECT_EQ(scope.delta().total(), static_cast<std::uint64_t>(m + 1) * n)
        << m;
  }
}

TEST(ReduceKernelDav, SinglePassBeatsPairwiseChain) {
  // The pairwise chain this kernel replaced costs 3n(m-1); at m = 4 that
  // is 9n vs the fused 5n.
  const std::size_t n = 256 * 1024;
  constexpr int m = 4;
  std::vector<std::vector<float>> bufs(m, std::vector<float>(n / 4, 1.0f));
  std::vector<float> out(n / 4);

  std::vector<const void*> srcs;
  for (auto& b : bufs) srcs.push_back(b.data());
  yc::DavScope fused;
  yc::reduce_out_multi(out.data(), srcs.data(), m, n, Datatype::f32,
                       ReduceOp::sum, false);
  const auto fused_total = fused.delta().total();

  yc::DavScope chain;
  yc::reduce_out(out.data(), bufs[0].data(), bufs[1].data(), n, Datatype::f32,
                 ReduceOp::sum, false);
  for (int k = 2; k < m; ++k)
    yc::reduce_inplace(out.data(), bufs[k].data(), n, Datatype::f32,
                       ReduceOp::sum);
  const auto chain_total = chain.delta().total();

  EXPECT_EQ(fused_total, 5 * n);
  EXPECT_EQ(chain_total, 9 * n);
  EXPECT_LT(fused_total, chain_total);
}

TEST(ReduceOutMulti, InPlaceFirstOperandIsSupported) {
  // The socket stage writes its result over srcs[0]; this must be exact
  // under every tier.
  for (yc::IsaTier tier : runnable_tiers()) {
    ScopedIsa scoped(tier);
    const std::size_t cnt = 4099;
    std::vector<float> s0(cnt, 1.0f), s1(cnt, 2.0f), s2(cnt, 4.0f);
    const void* srcs[] = {s0.data(), s1.data(), s2.data()};
    yc::reduce_out_multi(s0.data(), srcs, 3, cnt * sizeof(float),
                         Datatype::f32, ReduceOp::sum, false);
    for (std::size_t i = 0; i < cnt; ++i)
      ASSERT_EQ(s0[i], 7.0f) << isa_name(tier) << " i=" << i;
  }
}

TEST(ReduceOutMulti, OutMayAliasAnyOneSourceExactly) {
  // The direct allreduce in place writes its block over the operand of its
  // own rank, whichever position that rank has in the fold.  Aliasing any
  // one source must give the same bits as a separate output, under every
  // tier and store type, for fixed (m <= 8) and generic (m > 8) fan-in.
  const std::size_t cnt = 4099;  // odd: exercises the peel and tail loops
  for (yc::IsaTier tier : runnable_tiers()) {
    ScopedIsa scoped(tier);
    for (const int m : {2, 3, 5, 8, 10}) {
      for (const bool nt : {false, true}) {
        std::vector<std::vector<float>> bufs(m, std::vector<float>(cnt));
        for (int k = 0; k < m; ++k)
          for (std::size_t i = 0; i < cnt; ++i)
            bufs[k][i] = (1.0f + static_cast<float>((i * 7 + k) % 97)) *
                         std::pow(10.0f, static_cast<float>((k * 5 + i) % 9) -
                                             4.0f);
        std::vector<const void*> srcs;
        for (auto& b : bufs) srcs.push_back(b.data());
        std::vector<float> want(cnt);
        yc::reduce_out_multi(want.data(), srcs.data(), m, cnt * sizeof(float),
                             Datatype::f32, ReduceOp::sum, nt);
        for (int a = 0; a < m; ++a) {
          std::vector<std::vector<float>> alias = bufs;
          std::vector<const void*> asrcs;
          for (auto& b : alias) asrcs.push_back(b.data());
          yc::reduce_out_multi(alias[a].data(), asrcs.data(), m,
                               cnt * sizeof(float), Datatype::f32,
                               ReduceOp::sum, nt);
          ASSERT_EQ(0, std::memcmp(alias[a].data(), want.data(),
                                   cnt * sizeof(float)))
              << isa_name(tier) << " m=" << m << " nt=" << nt
              << " out aliases srcs[" << a << "]";
        }
      }
    }
  }
}

TEST(ReduceOutMulti, SingleSourceDegeneratesToCopy) {
  std::vector<std::int32_t> src(1000, 42), out(1000, 0);
  const void* srcs[] = {src.data()};
  yc::reduce_out_multi(out.data(), srcs, 1, 4000, Datatype::i32,
                       ReduceOp::sum, true);
  EXPECT_EQ(out, src);
}

TEST(ReduceOutMulti, U8StreamingStorePathIsExact) {
  // Regression: the u8 path used to drop the nt_store flag instead of
  // routing it through the dispatch table.
  for (yc::IsaTier tier : runnable_tiers()) {
    ScopedIsa scoped(tier);
    const std::size_t cnt = 100003;
    std::vector<std::uint8_t> a(cnt), b(cnt), out(cnt, 0);
    for (std::size_t i = 0; i < cnt; ++i) {
      a[i] = static_cast<std::uint8_t>(i * 31 + 7);
      b[i] = static_cast<std::uint8_t>(i * 17 + 3);
    }
    yc::reduce_out(out.data(), a.data(), b.data(), cnt, Datatype::u8,
                   ReduceOp::max, /*nt_store=*/true);
    for (std::size_t i = 0; i < cnt; ++i)
      ASSERT_EQ(out[i], std::max(a[i], b[i])) << isa_name(tier) << " " << i;
  }
}

}  // namespace
