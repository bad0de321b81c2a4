// RAII shared-memory mappings.
//
// Two flavours:
//  * anonymous MAP_SHARED mappings — inherited across fork(), which is how
//    ProcessTeam shares its workspace with identical addresses in every
//    rank (no shm_open rendezvous needed);
//  * named POSIX shm objects (shm_open) — provided for completeness and for
//    tests that exercise the OS shared-memory path the paper describes.
//
// Every live mapping is recorded in a process-wide window table.  A fork()
// after the mapping was made leaves it at the same address in parent and
// child, so ProcessTeam freezes the table (ShmWindows::snapshot) just
// before it forks its ranks: the frozen list is the memory every rank can
// load and store at the same address — the shared windows the single-copy
// collectives run over (docs/algorithms.md §3c).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace yhccl::rt {

/// Capacity of the process-wide window table.  A mapping made while the
/// table is full is simply not recorded: it is then never treated as a
/// window, and collectives over it take their staged arms.
inline constexpr int kMaxShmWindows = 64;

/// A frozen list of shared windows: address ranges mapped MAP_SHARED.
class ShmWindows {
 public:
  /// The live ShmRegion mappings of this process right now.  Lock-free:
  /// a child forked while another thread edits the table never inherits
  /// a held lock, and a slot caught mid-edit reads as absent.
  static ShmWindows snapshot() noexcept;

  /// Does one window hold all of [p, p + bytes)?
  bool covers(const void* p, std::size_t bytes) const noexcept;

  int size() const noexcept { return n_; }

 private:
  struct Range {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
  };
  Range r_[kMaxShmWindows];
  int n_ = 0;
};

class ShmRegion {
 public:
  ShmRegion() = default;
  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;
  ShmRegion(ShmRegion&& o) noexcept;
  ShmRegion& operator=(ShmRegion&& o) noexcept;
  ~ShmRegion();

  /// Anonymous shared mapping, zero-initialized, survives fork().
  static ShmRegion create_anonymous(std::size_t bytes);

  /// Named POSIX shm object (O_CREAT | O_EXCL); unlinked on destruction.
  static ShmRegion create_named(const std::string& name, std::size_t bytes);

  /// Map an existing named object created by another process.
  static ShmRegion open_named(const std::string& name, std::size_t bytes);

  std::byte* data() noexcept { return static_cast<std::byte*>(addr_); }
  const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(addr_);
  }
  std::size_t size() const noexcept { return bytes_; }
  bool valid() const noexcept { return addr_ != nullptr; }
  const std::string& name() const noexcept { return name_; }

 private:
  /// Take ownership of a fresh mapping and record it in the window table.
  ShmRegion(void* addr, std::size_t bytes, std::string name, bool owner);

  void* addr_ = nullptr;
  std::size_t bytes_ = 0;
  std::string name_;  // empty for anonymous regions
  bool owner_ = false;
};

}  // namespace yhccl::rt
