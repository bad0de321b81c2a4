// Destination prefault shared by every copy and reduce entry point.
//
// A freshly forked rank has none of the team's MAP_SHARED pages in its page
// table, so the first store to each page takes its own write fault.  A read
// fault on a shmem page maps the whole 64 KB fault-around window around it
// (writable, on a shared mapping) in one go.  Reading one byte per 64 KB
// block of the destination before the first store therefore costs ~1 fault
// per 16 pages instead of 16.  Not counted in DAV.
//
// Only forked ranks turn it on (enable_dst_prefault).  Where the pages stay
// mapped — thread teams — the reads are pure cost: a cache-missing load and
// a TLB walk per 64 KB, which slowed perfbench's 32 MB thread-team
// allreduces by ~2.5 % on a 4-core AVX-512 VM.
#pragma once

#include <cstddef>
#include <cstdint>

namespace yhccl::copy::detail {

inline constexpr std::size_t kPrefaultBlock = 64u << 10;

/// Set once by enable_dst_prefault() in a forked rank, before any rank work.
extern bool g_dst_prefault;

inline void prefault_dst(const void* dst, std::size_t n) noexcept {
  if (!g_dst_prefault || n == 0) return;
  const auto* p = static_cast<const volatile unsigned char*>(dst);
  (void)p[0];
  const std::size_t next =
      kPrefaultBlock -
      (reinterpret_cast<std::uintptr_t>(dst) & (kPrefaultBlock - 1));
  for (std::size_t off = next; off < n; off += kPrefaultBlock) (void)p[off];
}

}  // namespace yhccl::copy::detail
