#include "yhccl/trace/trace.hpp"

#include <time.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "yhccl/common/time.hpp"

namespace yhccl::trace {

// ---------------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------------

Mode mode_from_env() {
  const char* e = std::getenv("YHCCL_TRACE");
  if (e == nullptr || *e == '\0' || std::strcmp(e, "off") == 0)
    return Mode::off;
  if (std::strcmp(e, "spans") == 0) return Mode::spans;
  if (std::strcmp(e, "flight") == 0) return Mode::flight;
  raise(std::string("YHCCL_TRACE='") + e +
        "' is not one of off|spans|flight");
}

Mode resolve_mode(Mode cfg) {
  return cfg == Mode::env ? mode_from_env() : cfg;
}

std::uint32_t slots_from_env() {
  constexpr std::uint32_t kDefault = 4096;
  constexpr std::uint32_t kMin = 64;
  constexpr std::uint32_t kMax = 1u << 20;
  const char* e = std::getenv("YHCCL_TRACE_EVENTS");
  if (e == nullptr || *e == '\0') return kDefault;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(e, &end, 10);
  YHCCL_REQUIRE(end != nullptr && end != e && *end == '\0' && errno == 0,
                "YHCCL_TRACE_EVENTS is not a positive integer");
  std::uint32_t n = static_cast<std::uint32_t>(
      v < kMin ? kMin : (v > kMax ? kMax : v));
  // Round up to a power of two so ring indexing is a mask, not a modulo.
  std::uint32_t pow2 = kMin;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

const char* trace_dir() noexcept {
  const char* e = std::getenv("YHCCL_TRACE_DIR");
  return (e != nullptr && *e != '\0') ? e : nullptr;
}

// ---------------------------------------------------------------------------
// Name tables
// ---------------------------------------------------------------------------

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::coll: return "coll";
    case Phase::copy_in: return "copy_in";
    case Phase::copy_out: return "copy_out";
    case Phase::reduce: return "reduce";
    case Phase::barrier: return "barrier";
    case Phase::flag_wait: return "flag_wait";
    case Phase::flag_post: return "flag_post";
    case Phase::fifo: return "fifo";
    case Phase::rndv: return "rndv";
    case Phase::pagelock: return "pagelock";
    case Phase::fault: return "fault";
    case Phase::recover: return "recover";
    case Phase::retry: return "retry";
    case Phase::degrade: return "degrade";
    case Phase::straggler: return "straggler";
    default: return "?";
  }
}

const char* site_name(Site s) noexcept {
  switch (s) {
    case Site::unknown: return "unknown";
    case Site::barrier: return "barrier";
    case Site::flag: return "flag";
    case Site::fifo: return "fifo";
    case Site::rndv: return "rndv";
    case Site::pagelock: return "pagelock";
    case Site::slice: return "slice";
    case Site::pipeline: return "pipeline";
    case Site::liveness: return "liveness";
    default: return "?";
  }
}

Site site_from_string(const char* s) noexcept {
  if (s == nullptr) return Site::unknown;
  // Substring match so both fault_point sites ("barrier") and SpinGuard
  // descriptions ("barrier wait", "pt2pt send slot wait") map correctly.
  if (std::strstr(s, "barrier") != nullptr) return Site::barrier;
  if (std::strstr(s, "flag") != nullptr) return Site::flag;
  if (std::strstr(s, "fifo") != nullptr ||
      std::strstr(s, "pt2pt") != nullptr ||
      std::strstr(s, "sendrecv") != nullptr)
    return Site::fifo;
  if (std::strstr(s, "rndv") != nullptr ||
      std::strstr(s, "rendezvous") != nullptr ||
      std::strstr(s, "seqlock") != nullptr)
    return Site::rndv;
  if (std::strstr(s, "pagelock") != nullptr ||
      std::strstr(s, "page-lock") != nullptr)
    return Site::pagelock;
  if (std::strstr(s, "pipeline") != nullptr) return Site::pipeline;
  if (std::strstr(s, "slice") != nullptr) return Site::slice;
  if (std::strstr(s, "liveness") != nullptr) return Site::liveness;
  return Site::unknown;
}

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

std::size_t TraceBuffer::required_bytes(int nranks, std::uint32_t slots) {
  // slots and nranks are caller-controlled: checked so an absurd request
  // raises instead of silently sizing a too-small arena.
  const std::size_t stride = checked_add(
      kCacheline,
      checked_mul(static_cast<std::size_t>(slots), sizeof(Rec),
                  "trace ring capacity"),
      "trace ring stride");
  return checked_add(
      round_up(sizeof(TraceBuffer), kCacheline),
      checked_mul(static_cast<std::size_t>(nranks) + 1, stride,
                  "trace ring count"),
      "trace arena");
}

TraceBuffer* TraceBuffer::create(void* mem, std::size_t bytes, int nranks,
                                 std::uint32_t slots, Mode mode) {
  YHCCL_REQUIRE(nranks >= 1, "trace: nranks out of range");
  YHCCL_REQUIRE(slots >= 2 && (slots & (slots - 1)) == 0,
                "trace: ring capacity must be a power of two");
  YHCCL_REQUIRE(bytes >= required_bytes(nranks, slots),
                "trace: region too small for the rings");
  auto* buf = new (mem) TraceBuffer();
  buf->nranks_ = nranks;
  buf->slots_ = slots;
  buf->mask_ = slots - 1;
  buf->stride_ = kCacheline + static_cast<std::size_t>(slots) * sizeof(Rec);
  buf->mode_ = mode;
  for (int r = 0; r < buf->nrings(); ++r)
    new (buf->ring_next(r)) mc::atomic<std::uint64_t>(0);
  buf->clock_.start();
  return buf;
}

// ---------------------------------------------------------------------------
// ClockOrigin
// ---------------------------------------------------------------------------

void ClockOrigin::start() noexcept {
  wall0 = wall_seconds();
  tsc0 = trace_now();
}

double ClockOrigin::ticks_per_second() const noexcept {
  std::uint64_t bits = hz_bits.load(std::memory_order_acquire);
  if (bits != 0) {
    double hz;
    std::memcpy(&hz, &bits, sizeof hz);
    return hz;
  }
  // Calibrate against the wall clock over the interval since start(); pad
  // with a short busy sample when a harvest runs immediately after
  // construction (unit tests) so the ratio is not noise.
  double wall1 = wall_seconds();
  std::uint64_t tsc1 = trace_now();
  while (wall1 - wall0 < 2e-3) {
    timespec ts{0, 200'000};
    nanosleep(&ts, nullptr);
    wall1 = wall_seconds();
    tsc1 = trace_now();
  }
  double hz = static_cast<double>(tsc1 - tsc0) / (wall1 - wall0);
  if (!(hz > 0)) hz = 1e9;  // defensive: never divide by zero downstream
  std::memcpy(&bits, &hz, sizeof bits);
  std::uint64_t expect = 0;
  // First calibrator wins; concurrent harvesters adopt its value so every
  // export of this buffer converts ticks identically (incl. across fork()).
  if (!hz_bits.compare_exchange_strong(expect, bits,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    std::memcpy(&hz, &expect, sizeof hz);
  }
  return hz;
}

}  // namespace yhccl::trace
