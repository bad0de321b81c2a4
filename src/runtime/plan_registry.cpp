#include "yhccl/runtime/plan_registry.hpp"

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>

#include "yhccl/common/error.hpp"

namespace yhccl::rt {

TuneMode resolve_tune_mode(TuneMode cfg) {
  if (cfg != TuneMode::env) return cfg;
  const char* e = std::getenv("YHCCL_TUNE");
  if (e == nullptr || *e == '\0') return TuneMode::prior;
  if (std::strcmp(e, "prior") == 0) return TuneMode::prior;
  if (std::strcmp(e, "online") == 0) return TuneMode::online;
  raise(std::string("YHCCL_TUNE: unknown mode '") + e +
        "' (prior|online)");
}

std::uint32_t tune_eps_mille_from_env() {
  const char* e = std::getenv("YHCCL_TUNE_EPS");
  if (e == nullptr || *e == '\0') return 100;  // 10%
  char* end = nullptr;
  errno = 0;
  const double eps = std::strtod(e, &end);
  YHCCL_REQUIRE(end != nullptr && *end == '\0' && errno == 0 && eps >= 0 &&
                    eps <= 1,
                "YHCCL_TUNE_EPS must be a probability in [0, 1]");
  return static_cast<std::uint32_t>(eps * 1000.0 + 0.5);
}

PlanCaps::PlanCaps(const Topology& topo, const copy::CacheConfig& cache,
                   bool shared_address_space) noexcept
    : topo_(topo), cache_(cache), shared_(shared_address_space) {
  std::uint64_t h = plan_mix64(topo.signature());
  const auto fold = [&h](std::uint64_t v) {
    h = plan_mix64(h ^ plan_mix64(v));
  };
  fold(cache.llc_bytes);
  fold(cache.l2_per_core);
  fold(cache.llc_inclusive ? 1 : 0);
  machine_sig_ = h != 0 ? h : 1;
  if (shared_) fold(1);  // backend bit; forked teams skip it
  sig_ = h != 0 ? h : 1;
}

double PlanSlot::ewma_seconds(int arm) const noexcept {
  return std::bit_cast<double>(
      arm_ewma[arm].load(std::memory_order_relaxed));
}

void PlanSlot::update_arm(int arm, double seconds) noexcept {
  const double old = ewma_seconds(arm);
  const double next = old == 0 ? seconds : 0.75 * old + 0.25 * seconds;
  arm_ewma[arm].store(std::bit_cast<std::uint64_t>(next),
                      std::memory_order_relaxed);
  arm_n[arm].fetch_add(1, std::memory_order_relaxed);
}

std::size_t PlanRegistry::required_bytes(std::uint32_t slots) {
  return checked_add(round_up(sizeof(PlanRegistry), kCacheline),
                     checked_mul(static_cast<std::size_t>(slots),
                                 sizeof(PlanSlot), "plan slot table"),
                     "plan registry segment");
}

PlanRegistry* PlanRegistry::create(void* mem, std::size_t bytes,
                                   std::uint32_t slots,
                                   std::uint32_t eps_mille) {
  YHCCL_REQUIRE(slots >= kProbe && (slots & (slots - 1)) == 0,
                "plan registry: slot count must be a power of two");
  YHCCL_REQUIRE(bytes >= required_bytes(slots),
                "plan registry: segment too small");
  auto* reg = new (mem) PlanRegistry(slots, eps_mille);
  auto* sl = reg->slots_begin();
  for (std::uint32_t i = 0; i < slots; ++i) new (sl + i) PlanSlot();
  return reg;
}

PlanSlot* PlanRegistry::find(std::uint64_t hash) noexcept {
  const std::uint32_t mask = slots_ - 1;
  for (std::uint32_t k = 0; k < kProbe; ++k) {
    auto& s = slots_begin()[(static_cast<std::uint32_t>(hash) + k) & mask];
    const std::uint64_t h = s.hash.load(std::memory_order_acquire);
    if (h == hash) return &s;
    if (h == 0) return nullptr;
  }
  return nullptr;
}

const PlanSlot* PlanRegistry::find(std::uint64_t hash) const noexcept {
  return const_cast<PlanRegistry*>(this)->find(hash);
}

PlanSlot* PlanRegistry::acquire(std::uint64_t hash, std::uint64_t fields,
                                bool* inserted) noexcept {
  if (inserted != nullptr) *inserted = false;
  const std::uint32_t mask = slots_ - 1;
  for (std::uint32_t k = 0; k < kProbe; ++k) {
    auto& s = slots_begin()[(static_cast<std::uint32_t>(hash) + k) & mask];
    std::uint64_t h = s.hash.load(std::memory_order_acquire);
    if (h == 0) {
      // Publish the fields first: a racer that wins the same CAS writes the
      // identical value, and a reader that sees `hash` also sees `fields`.
      s.fields.store(fields, std::memory_order_release);
      if (s.hash.compare_exchange_strong(
              h, hash,
              YHCCL_MC_ORDER(plan_claim_release,
                             std::memory_order_acq_rel))) {
        inserts_.fetch_add(1, std::memory_order_relaxed);
        if (inserted != nullptr) *inserted = true;
        return &s;
      }
      // Lost the race; h now holds the winner's hash.
    }
    if (h == hash) return &s;
  }
  return nullptr;  // probe window exhausted; caller serves the prior
}

bool PlanRegistry::quarantine(std::uint64_t hash,
                              std::uint64_t until_epoch) noexcept {
  PlanSlot* s = find(hash);
  if (s == nullptr) return false;
  // Clear the committed word *before* publishing the mark: the release CAS
  // below orders the clear ahead of the mark, so a rank that acquires the
  // mark can never serve the stale (failing) plan word.  Model-checked as
  // protocol "quarantine"; weakening this order is mutation-caught.
  s->plan.store(0, std::memory_order_relaxed);
  std::uint64_t cur = s->quar.load(std::memory_order_relaxed);
  while (cur < until_epoch) {
    if (s->quar.compare_exchange_weak(
            cur, until_epoch,
            YHCCL_MC_ORDER(quar_publish_release, std::memory_order_acq_rel),
            std::memory_order_relaxed)) {
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return true;
}

PlanRegistryStats PlanRegistry::stats() const noexcept {
  PlanRegistryStats st;
  st.lookups = lookups_.load(std::memory_order_relaxed);
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.inserts = inserts_.load(std::memory_order_relaxed);
  st.explores = explores_.load(std::memory_order_relaxed);
  st.commits = commits_.load(std::memory_order_relaxed);
  st.quarantines = quarantines_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < slots_; ++i)
    if (slot(i).hash.load(std::memory_order_relaxed) != 0) ++st.entries;
  return st;
}

bool PlanRegistry::wait_bound(int cls) const noexcept {
  return cls >= 0 && cls < kPlanClasses &&
         wait_bound_[cls].load(std::memory_order_relaxed) != 0;
}

void PlanRegistry::mark_wait_bound(int cls) noexcept {
  if (cls >= 0 && cls < kPlanClasses)
    wait_bound_[cls].store(1, std::memory_order_relaxed);
}

void PlanRegistry::clear_wait_bound() noexcept {
  for (auto& flag : wait_bound_) flag.store(0, std::memory_order_relaxed);
}

}  // namespace yhccl::rt
