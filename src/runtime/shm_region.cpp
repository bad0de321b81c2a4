#include "yhccl/runtime/shm_region.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "yhccl/common/error.hpp"
#include "yhccl/mc/atomic.hpp"

namespace yhccl::rt {

namespace {

// The process-wide window table.  Each slot is a seqlock whose version is
// also its claim word: an editor moves `ver` from even to odd with a CAS,
// writes the range, then releases the next even value.  No editor ever
// waits on another (a claim that fails moves on), so a child forked while
// a sibling thread held a slot odd finds that slot absent, never a lock
// it has to wait for.  `hi == 0` marks a free slot.
struct WindowSlot {
  mc::atomic<std::uint64_t> ver{0};
  mc::atomic<std::uintptr_t> lo{0};
  mc::atomic<std::uintptr_t> hi{0};
};
constinit WindowSlot g_windows[kMaxShmWindows];

/// Claim slot `w` if its version is still `v` (even); the caller then
/// edits the range and calls release(w, v).
bool claim(WindowSlot& w, std::uint64_t v) noexcept {
  if ((v & 1) != 0) return false;
  if (!w.ver.compare_exchange_strong(v, v + 1, std::memory_order_acq_rel,
                                     std::memory_order_relaxed))
    return false;
  mc::fence(std::memory_order_release);
  return true;
}

void release(WindowSlot& w, std::uint64_t v) noexcept {
  w.ver.store(v + 2, std::memory_order_release);
}

void record_window(const void* p, std::size_t bytes) noexcept {
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  for (WindowSlot& w : g_windows) {
    const std::uint64_t v = w.ver.load(std::memory_order_acquire);
    if (w.hi.load(std::memory_order_relaxed) != 0 || !claim(w, v)) continue;
    w.lo.store(lo, std::memory_order_relaxed);
    w.hi.store(lo + bytes, std::memory_order_relaxed);
    release(w, v);
    return;
  }
  // Table full: the mapping is not a window (see kMaxShmWindows).
}

void forget_window(const void* p) noexcept {
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  for (WindowSlot& w : g_windows) {
    for (;;) {
      const std::uint64_t v = w.ver.load(std::memory_order_acquire);
      if (w.hi.load(std::memory_order_relaxed) == 0 ||
          w.lo.load(std::memory_order_relaxed) != lo)
        break;
      if (!claim(w, v)) {
        if ((v & 1) != 0) break;  // another editor holds it: not my entry
        continue;                 // version moved under me: look again
      }
      w.hi.store(0, std::memory_order_relaxed);
      w.lo.store(0, std::memory_order_relaxed);
      release(w, v);
      return;
    }
  }
}

}  // namespace

ShmWindows ShmWindows::snapshot() noexcept {
  ShmWindows s;
  for (const WindowSlot& w : g_windows) {
    const std::uint64_t v = w.ver.load(std::memory_order_acquire);
    if ((v & 1) != 0) continue;
    const Range r{w.lo.load(std::memory_order_relaxed),
                  w.hi.load(std::memory_order_relaxed)};
    mc::fence(std::memory_order_acquire);
    if (r.hi == 0 || w.ver.load(std::memory_order_relaxed) != v) continue;
    s.r_[s.n_++] = r;
  }
  return s;
}

bool ShmWindows::covers(const void* p, std::size_t bytes) const noexcept {
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  for (int i = 0; i < n_; ++i)
    if (lo >= r_[i].lo && lo <= r_[i].hi && bytes <= r_[i].hi - lo)
      return true;
  return false;
}

ShmRegion::ShmRegion(void* addr, std::size_t bytes, std::string name,
                     bool owner)
    : addr_(addr), bytes_(bytes), name_(std::move(name)), owner_(owner) {
  record_window(addr_, bytes_);
}

ShmRegion::ShmRegion(ShmRegion&& o) noexcept
    : addr_(std::exchange(o.addr_, nullptr)),
      bytes_(std::exchange(o.bytes_, 0)),
      name_(std::exchange(o.name_, {})),
      owner_(std::exchange(o.owner_, false)) {}

ShmRegion& ShmRegion::operator=(ShmRegion&& o) noexcept {
  if (this != &o) {
    this->~ShmRegion();
    new (this) ShmRegion(std::move(o));
  }
  return *this;
}

ShmRegion::~ShmRegion() {
  if (addr_ != nullptr) {
    forget_window(addr_);
    munmap(addr_, bytes_);
  }
  if (owner_ && !name_.empty()) shm_unlink(name_.c_str());
}

ShmRegion ShmRegion::create_anonymous(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) raise_errno("mmap(MAP_SHARED|MAP_ANONYMOUS)");
  return ShmRegion(p, bytes, {}, false);
}

ShmRegion ShmRegion::create_named(const std::string& name, std::size_t bytes) {
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) raise_errno("shm_open(create " + name + ")");
  if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    close(fd);
    shm_unlink(name.c_str());
    raise_errno("ftruncate(" + name + ")");
  }
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (p == MAP_FAILED) {
    shm_unlink(name.c_str());
    raise_errno("mmap(" + name + ")");
  }
  return ShmRegion(p, bytes, name, true);
}

ShmRegion ShmRegion::open_named(const std::string& name, std::size_t bytes) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) raise_errno("shm_open(open " + name + ")");
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (p == MAP_FAILED) raise_errno("mmap(" + name + ")");
  return ShmRegion(p, bytes, name, false);
}

}  // namespace yhccl::rt
