#include "yhccl/metrics/metrics.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

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
  buf->clock_.start();
  return buf;
}

}  // namespace yhccl::metrics
