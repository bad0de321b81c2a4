#include "yhccl/runtime/sync.hpp"

#include <immintrin.h>
#include <sched.h>
#include <time.h>

#include "yhccl/common/error.hpp"
#include "yhccl/common/time.hpp"

namespace yhccl::rt {

void SpinGuard::relax() {
#ifdef YHCCL_MC
  // Under a model-checking session the wait must become a scheduling point
  // instead of a busy loop: park this model rank until a watched location
  // gains a store it has not read yet (yhccl/mc/checker.hpp).
  if (mc::session_active()) {
    mc::detail::sess_spin_yield();
    return;
  }
#endif
  if (++spins_ < 64) {
    _mm_pause();
    return;
  }
  spins_ = 0;
  // Once per cycle: keep my liveness slot beating, leave together with the
  // rest of the team if anyone raised the abort word — the parent raises it
  // when it reaps a sibling that died before posting its completion — and
  // so detect that death at reap latency instead of watchdog latency.
  detail::fault_heartbeat();
  fault_poll_abort();
  if (++yields_ < 256) {
    sched_yield();
    return;
  }
  // Sleep stage: the wait is ms-scale or worse — stop burning the core.
  if (!marked_) {
    marked_ = true;
    trace::stall_marker(ph_);
  }
  fault_check_dead();
  timespec ts{0, sleep_ns_};
  nanosleep(&ts, nullptr);
  if (sleep_ns_ < 1'000'000) sleep_ns_ *= 2;
  const double timeout = sync_timeout();
  if (timeout <= 0) return;
  const double now = wall_seconds();
  if (deadline_ < 0) {
    deadline_ = now + timeout;
    return;
  }
  if (now >= deadline_) fault_timeout(what_);
}

}  // namespace yhccl::rt
