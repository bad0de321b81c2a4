#include "yhccl/metrics/metrics.hpp"

#include <time.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "yhccl/common/time.hpp"

namespace yhccl::metrics {

// ---------------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------------

Mode mode_from_env() {
  const char* e = std::getenv("YHCCL_METRICS");
  if (e == nullptr || *e == '\0' || std::strcmp(e, "off") == 0)
    return Mode::off;
  if (std::strcmp(e, "on") == 0) return Mode::on;
  if (std::strcmp(e, "serve") == 0) return Mode::serve;
  raise(std::string("YHCCL_METRICS='") + e + "' is not one of off|on|serve");
}

Mode resolve_mode(Mode cfg) {
  return cfg == Mode::env ? mode_from_env() : cfg;
}

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::env: return "env";
    case Mode::off: return "off";
    case Mode::on: return "on";
    case Mode::serve: return "serve";
  }
  return "?";
}

const char* metrics_dir() noexcept {
  const char* e = std::getenv("YHCCL_METRICS_DIR");
  return (e != nullptr && *e != '\0') ? e : nullptr;
}

int interval_ms_from_env() {
  constexpr int kDefault = 1000;
  constexpr int kMin = 10;
  constexpr int kMax = 600000;
  const char* e = std::getenv("YHCCL_METRICS_INTERVAL_MS");
  if (e == nullptr || *e == '\0') return kDefault;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(e, &end, 10);
  YHCCL_REQUIRE(end != nullptr && end != e && *end == '\0' && errno == 0 &&
                    v > 0,
                "YHCCL_METRICS_INTERVAL_MS is not a positive integer");
  return static_cast<int>(v < kMin ? kMin : (v > kMax ? kMax : v));
}

// ---------------------------------------------------------------------------
// Name tables
// ---------------------------------------------------------------------------

const char* coll_slot_name(int id) noexcept {
  // 1 + coll::CollKind, the trace::coll_id_name convention (test_metrics
  // pins this to coll_kind_name).
  switch (id) {
    case 0: return "";
    case 1: return "allreduce";
    case 2: return "reduce";
    case 3: return "reduce_scatter";
    case 4: return "broadcast";
    case 5: return "allgather";
    default: return "?";
  }
}

const char* alg_slot_name(int id) noexcept {
  // 1 + coll::Algorithm; test_metrics pins this to algorithm_name.
  switch (id) {
    case 0: return "?";
    case 1: return "automatic";
    case 2: return "ma_flat";
    case 3: return "ma_socket_aware";
    case 4: return "dpml_two_level";
    case 5: return "pipelined";
    case 6: return "fold";
    default: return "?";
  }
}

// ---------------------------------------------------------------------------
// MetricsBuffer
// ---------------------------------------------------------------------------

std::size_t MetricsBuffer::required_bytes(int nranks) {
  return checked_add(
      checked_add(round_up(sizeof(MetricsBuffer), kCacheline),
                  round_up(sizeof(TeamGauges), alignof(RankSlot)),
                  "metrics header"),
      checked_mul(static_cast<std::size_t>(nranks), sizeof(RankSlot),
                  "metrics slot count"),
      "metrics arena");
}

MetricsBuffer* MetricsBuffer::create(void* mem, std::size_t bytes, int nranks,
                                     Mode mode) {
  YHCCL_REQUIRE(nranks >= 1, "metrics: nranks out of range");
  YHCCL_REQUIRE(mode == Mode::on || mode == Mode::serve,
                "metrics: create requires a resolved active mode");
  YHCCL_REQUIRE(bytes >= required_bytes(nranks),
                "metrics: region too small for the registry");
  auto* buf = new (mem) MetricsBuffer();
  buf->nranks_ = nranks;
  buf->mode_ = mode;
  new (&buf->team()) TeamGauges();
  for (int r = 0; r < nranks; ++r) new (&buf->rank(r)) RankSlot();
  buf->wall0_ = wall_seconds();
  buf->tsc0_ = trace::trace_now();
  return buf;
}

double MetricsBuffer::ticks_per_second() const noexcept {
  std::uint64_t bits = hz_bits_.load(std::memory_order_acquire);
  if (bits != 0) {
    double hz;
    std::memcpy(&hz, &bits, sizeof hz);
    return hz;
  }
  // The TraceBuffer calibration scheme: ratio over the interval since
  // create, padded with a short busy sample so an immediate export (unit
  // tests) is not noise; the first calibrator's value is CAS-published in
  // the shared header so all readers — either side of a fork() — convert
  // ticks identically.
  double wall1 = wall_seconds();
  std::uint64_t tsc1 = trace::trace_now();
  while (wall1 - wall0_ < 2e-3) {
    timespec ts{0, 200'000};
    nanosleep(&ts, nullptr);
    wall1 = wall_seconds();
    tsc1 = trace::trace_now();
  }
  double hz = static_cast<double>(tsc1 - tsc0_) / (wall1 - wall0_);
  if (!(hz > 0)) hz = 1e9;  // defensive: never divide by zero downstream
  std::memcpy(&bits, &hz, sizeof bits);
  std::uint64_t expect = 0;
  if (!hz_bits_.compare_exchange_strong(expect, bits,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    std::memcpy(&hz, &expect, sizeof hz);
  }
  return hz;
}

}  // namespace yhccl::metrics
