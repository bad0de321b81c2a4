// Remote (cross-rank) buffer access: the XPMEM / CMA stand-ins.
//
// The paper compares against two kernel-assisted single-copy mechanisms:
//  * XPMEM — a rank maps peers' address spaces and loads remote data
//    directly.  With thread-backed ranks this is exactly a pointer read, so
//    the thread backend gives faithful XPMEM semantics for free.
//  * CMA (process_vm_readv) — the kernel copies page-by-page, never uses
//    non-temporal stores, and contends on page locks when many readers hit
//    the same source pages (paper Table 5).  We reproduce those three
//    properties: page-granular t_copy, no NT stores, and an optional shared
//    page-lock table that serializes concurrent readers of the same page.
//
// With fork()-backed ranks the real process_vm_readv syscall is used when
// the kernel permits it (CAP_SYS_PTRACE / same-uid rules apply).
#pragma once

#include <cstddef>
#include <cstdint>

#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"

namespace yhccl::rt {

/// Descriptor of a peer rank's (possibly private) buffer.
struct RemoteBuf {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
  int pid = 0;  ///< owning process (== getpid() for thread-backed teams)
};

/// Registry entry living in team shared memory: a single-writer seqlock
/// (Boehm, "Can seqlocks get along with programming language memory
/// models?").  Only the owning rank ever writes its entry; concurrent
/// readers take a consistent snapshot without blocking the writer:
///
///   writer: seq = odd (relaxed)          readers: s1 = seq (acquire)
///           fence(release)                        retry while s1 is odd
///           fields    (relaxed)                   read fields (relaxed)
///           seq = even (release)                  fence(acquire)
///                                                 retry unless seq == s1
///
/// The begin-store + release fence order the odd marker before the field
/// stores, so a reader that observes any new field value must also observe
/// an odd or advanced seq and retry; the final release store publishes the
/// fields to any reader whose first load returns the new even value.  The
/// previous revision had no odd/even protocol at all — a reader could
/// return a half-updated descriptor (caught by the hb checker audit).
struct RemoteWindow {
  mc::atomic<std::uint64_t> seq{0};  ///< odd ⇔ write in progress
  mc::atomic<const void*> ptr{nullptr};
  mc::atomic<std::size_t> bytes{0};
  mc::atomic<int> pid{0};
};

/// Writer half of the seqlock (owning rank only): publish a new descriptor.
void window_publish(RemoteWindow& w, const void* p, std::size_t bytes,
                    int pid) noexcept;

/// Reader half: spin for a consistent snapshot of the descriptor.
RemoteBuf window_read(const RemoteWindow& w);

enum class RemoteMode {
  direct,        ///< XPMEM-style: load remote memory straight through
  cma_pagewise,  ///< CMA-style: page-granular copy, temporal stores only
};

/// Emulates kernel page-lock contention for the CMA path: readers take a
/// spinlock hashed from the *source* page before copying each page.
class PageLockTable {
 public:
  static constexpr std::size_t kLocks = 512;
  static constexpr std::size_t kPageBytes = 4096;

  void lock(std::uintptr_t src_page);
  void unlock(std::uintptr_t src_page) noexcept;

  /// Force-release every lock.  Only safe while no holder runs (the model
  /// checker resets the table between schedules; Team::recover() rebuilds
  /// the whole control block instead).
  void reset() noexcept;

 private:
  struct alignas(kCacheline) Lock {
    mc::atomic<std::uint32_t> v{0};
  };
  Lock locks_[kLocks];
};

/// Can this process read a forked sibling's memory with process_vm_readv?
/// (Yama ptrace_scope or seccomp may forbid it.)
bool cma_available();

/// Read `n` bytes at `offset` inside `src` into `dst`.
///  * direct: one temporal copy (cross-process only if same pid or CMA OK)
///  * cma_pagewise: 4 KiB-page loop; takes `locks` per page when provided
void remote_read(void* dst, const RemoteBuf& src, std::size_t offset,
                 std::size_t n, RemoteMode mode,
                 PageLockTable* locks = nullptr);

}  // namespace yhccl::rt
