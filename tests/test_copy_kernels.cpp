// Unit tests for the copy kernels (§4.1): correctness across sizes and
// alignments, DAV accounting, the policy decision logic of Algorithm 1, and
// how a forked rank faults in a shared destination.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <vector>

#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/runtime/process_team.hpp"

namespace yc = yhccl::copy;

namespace {

using CopyFn = void (*)(void*, const void*, std::size_t) noexcept;

struct NamedCopy {
  const char* name;
  CopyFn fn;
};

class CopyKernel : public ::testing::TestWithParam<NamedCopy> {};

std::vector<std::uint8_t> pattern(std::size_t n, unsigned seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>((i * 131 + seed * 7 + 13) & 0xff);
  return v;
}

TEST_P(CopyKernel, CopiesExactBytesAcrossSizes) {
  const auto fn = GetParam().fn;
  for (std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{31},
        std::size_t{32}, std::size_t{33}, std::size_t{63}, std::size_t{64},
        std::size_t{127}, std::size_t{1000}, std::size_t{4096},
        std::size_t{65537}, std::size_t{1u << 20}}) {
    const auto src = pattern(n, 1);
    std::vector<std::uint8_t> dst(n + 64, 0xee);
    fn(dst.data(), src.data(), n);
    if (n != 0)  // memcmp with an empty vector's null data() is UB
      ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n)) << "n=" << n;
    // Guard bytes untouched.
    for (std::size_t i = n; i < n + 64; ++i)
      ASSERT_EQ(dst[i], 0xee) << "overrun at " << i << " (n=" << n << ")";
  }
}

TEST_P(CopyKernel, HandlesMisalignedSourceAndDestination) {
  const auto fn = GetParam().fn;
  const std::size_t n = 8191;
  const auto src = pattern(n + 64, 2);
  std::vector<std::uint8_t> dst(n + 128, 0);
  for (std::size_t soff : {0u, 1u, 7u, 33u}) {
    for (std::size_t doff : {0u, 1u, 7u, 33u}) {
      std::fill(dst.begin(), dst.end(), 0);
      fn(dst.data() + doff, src.data() + soff, n);
      ASSERT_EQ(0, std::memcmp(dst.data() + doff, src.data() + soff, n))
          << "soff=" << soff << " doff=" << doff;
    }
  }
}

TEST_P(CopyKernel, AccountsTwoBytesOfTrafficPerPayloadByte) {
  const auto fn = GetParam().fn;
  const std::size_t n = 123457;
  const auto src = pattern(n, 3);
  std::vector<std::uint8_t> dst(n);
  yc::DavScope scope;
  fn(dst.data(), src.data(), n);
  const auto d = scope.delta();
  EXPECT_EQ(d.loads, n);
  EXPECT_EQ(d.stores, n);
  EXPECT_EQ(d.total(), 2 * n);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, CopyKernel,
    ::testing::Values(NamedCopy{"t_copy", &yc::t_copy},
                      NamedCopy{"nt_copy", &yc::nt_copy},
                      NamedCopy{"scalar_copy", &yc::scalar_copy},
                      NamedCopy{"erms_copy", &yc::erms_copy}),
    [](const auto& info) { return info.param.name; });

TEST(MemmoveModel, SwitchesOnSizeThresholdOnly) {
  // Behavioural check: both regimes must copy correctly.
  for (std::size_t n : {std::size_t{1024}, yc::kMemmoveNtThreshold - 1,
                        yc::kMemmoveNtThreshold,
                        yc::kMemmoveNtThreshold + 4097}) {
    const auto src = pattern(n, 4);
    std::vector<std::uint8_t> dst(n, 0);
    yc::memmove_model_copy(dst.data(), src.data(), n);
    ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n)) << n;
  }
}

TEST(AdaptivePolicy, TemporalHintAlwaysWinsRegardlessOfWorkingSet) {
  // Algorithm 1: t == true (temporal data) never streams.
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::adaptive,
                                /*temporal_hint=*/true, /*C=*/1,
                                /*W=*/1u << 30, 4096));
}

TEST(AdaptivePolicy, StreamsOnlyWhenWorkingSetExceedsCache) {
  const std::size_t C = 8u << 20;
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::adaptive, false, C, C, 4096));
  EXPECT_TRUE(
      yc::use_nt_store(yc::CopyPolicy::adaptive, false, C, C + 1, 4096));
}

TEST(AdaptivePolicy, ForcedArmsIgnoreHints) {
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::always_temporal, false, 0,
                                1u << 30, 1u << 20));
  EXPECT_TRUE(yc::use_nt_store(yc::CopyPolicy::always_nt, true, 1u << 30, 0,
                               64));
  // memmove arm keys on the copy size alone.
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::memmove_model, false, 0,
                                1u << 30, yc::kMemmoveNtThreshold - 1));
  EXPECT_TRUE(yc::use_nt_store(yc::CopyPolicy::memmove_model, true, 1u << 30,
                               0, yc::kMemmoveNtThreshold));
}

TEST(AdaptiveCopy, CopiesCorrectlyInBothRegimes) {
  const std::size_t n = 300000;
  const auto src = pattern(n, 5);
  std::vector<std::uint8_t> dst(n, 0);
  // Cache-resident working set: temporal path.
  yc::adaptive_copy(dst.data(), src.data(), n, false, 1u << 30, 1u << 20);
  ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n));
  std::fill(dst.begin(), dst.end(), 0);
  // Oversized working set + non-temporal destination: streaming path.
  yc::adaptive_copy(dst.data(), src.data(), n, false, 1u << 20, 1u << 30);
  ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n));
}

TEST(CacheModel, AvailableCapacityFollowsInclusivity) {
  yc::CacheConfig nonincl{.llc_bytes = 64u << 20,
                          .l2_per_core = 1u << 20,
                          .llc_inclusive = false};
  EXPECT_EQ(nonincl.available(8), (64u << 20) + 8 * (1u << 20));
  yc::CacheConfig incl = nonincl;
  incl.llc_inclusive = true;
  EXPECT_EQ(incl.available(8), 64u << 20);
}

TEST(CacheModel, PaperPresetsMatchSection54) {
  // §5.4: C = 294912 KB on NodeA (p=64) and 116736 KB on NodeB (p=48).
  EXPECT_EQ(yc::CacheConfig::node_a().available(64), 294912ull << 10);
  EXPECT_EQ(yc::CacheConfig::node_b().available(48), 116736ull << 10);
}

TEST(CacheModel, DetectReturnsSaneValues) {
  const auto c = yc::CacheConfig::detect();
  EXPECT_GE(c.llc_bytes, 1u << 20);
  EXPECT_GE(c.l2_per_core, 16u << 10);
  EXPECT_EQ(c.cacheline, 64u);
}

TEST(Dav, ScopeDeltaIsolatesMeasurement) {
  std::vector<std::uint8_t> a(1024), b(1024);
  yc::t_copy(b.data(), a.data(), 1024);  // outside the scope
  yc::DavScope scope;
  yc::t_copy(b.data(), a.data(), 512);
  EXPECT_EQ(scope.delta().total(), 1024u);
}

long minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

// A forked rank does not inherit the page-table entries of the team's
// shared mapping, so each destination page it stores to first would take a
// write fault.  The kernels read one byte per 64 KB block first, and a read
// fault maps the whole fault-around window: ~one fault per 16 pages.  The
// child first checks that this kernel has shmem read fault-around at all
// (read-then-write cheaper than write-only on two probe ranges).
TEST(CopyFaults, ForkedRankMapsSharedDestinationsByFaultAround) {
  constexpr std::size_t kWindow = 64u << 10;
  constexpr std::size_t kProbe = 4 * kWindow;
  constexpr std::size_t kRange = 1u << 20;
  constexpr std::size_t kPage = 4096;
  yhccl::rt::TeamConfig cfg;
  cfg.nranks = 1;
  cfg.scratch_bytes = 1 << 20;
  cfg.shared_heap_bytes = 2 * kProbe + 2 * kRange + kWindow;
  yhccl::rt::ProcessTeam team(cfg);
  auto* probe_rw = reinterpret_cast<unsigned char*>(
      team.shared_alloc(kProbe, kWindow));
  auto* probe_w = reinterpret_cast<unsigned char*>(
      team.shared_alloc(kProbe, kWindow));
  auto* copy_dst = team.shared_alloc(kRange, kWindow);
  auto* reduce_dst = team.shared_alloc(kRange, kWindow);
  auto* faults = reinterpret_cast<long*>(team.shared_alloc(4 * sizeof(long)));
  // Fault-around maps only pages the shared object already holds: make
  // them resident, as the previous run() of a real job would have.
  std::memset(probe_rw, 0, kProbe);
  std::memset(probe_w, 0, kProbe);
  std::memset(copy_dst, 0, kRange);
  std::memset(reduce_dst, 0, kRange);
  // Private sources: fork copies their page-table entries, so reading
  // them in the child takes no fault.
  const std::vector<float> src(kRange / sizeof(float), 1.0f);
  std::vector<float> warm(1024);

  team.run([&](yhccl::rt::RankCtx&) {
    // Fault in the code and stack the measured calls use.
    const void* srcs[2] = {src.data(), src.data()};
    yc::t_copy(warm.data(), src.data(), warm.size() * sizeof(float));
    yc::reduce_out_multi(warm.data(), srcs, 2, warm.size() * sizeof(float),
                         yhccl::Datatype::f32, yhccl::ReduceOp::sum, false);
    const long f0 = minor_faults();
    for (std::size_t off = 0; off < kProbe; off += kWindow)
      (void)*static_cast<volatile unsigned char*>(probe_rw + off);
    for (std::size_t off = 0; off < kProbe; off += kPage)
      *static_cast<volatile unsigned char*>(probe_rw + off) = 1;
    const long f1 = minor_faults();
    for (std::size_t off = 0; off < kProbe; off += kPage)
      *static_cast<volatile unsigned char*>(probe_w + off) = 1;
    const long f2 = minor_faults();
    yc::t_copy(copy_dst, src.data(), kRange);
    const long f3 = minor_faults();
    yc::reduce_out_multi(reduce_dst, srcs, 2, kRange, yhccl::Datatype::f32,
                         yhccl::ReduceOp::sum, false);
    const long f4 = minor_faults();
    faults[0] = f1 - f0;
    faults[1] = f2 - f1;
    faults[2] = f3 - f2;
    faults[3] = f4 - f3;
  });
  if (faults[0] >= faults[1])
    GTEST_SKIP() << "no shmem read fault-around here: read-then-write took "
                 << faults[0] << " faults, write-only " << faults[1];
  const long windows = static_cast<long>(kRange / kWindow);  // 16
  EXPECT_LE(faults[2], 2 * windows) << "t_copy into 1 MB of fresh shared pages";
  EXPECT_LE(faults[3], 2 * windows)
      << "reduce_out_multi into 1 MB of fresh shared pages";
  const auto* sum = reinterpret_cast<const float*>(reduce_dst);
  EXPECT_EQ(sum[0], 2.0f);
  EXPECT_EQ(sum[kRange / sizeof(float) - 1], 2.0f);
}

}  // namespace
