#include "yhccl/runtime/process_team.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "yhccl/common/error.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/runtime/sync_timeout.hpp"

namespace yhccl::rt {

namespace {

void sleep_us(long us) noexcept {
  timespec ts{us / 1'000'000, (us % 1'000'000) * 1'000};
  nanosleep(&ts, nullptr);
}

}  // namespace

void ProcessTeam::run_ranks(const std::function<void(int)>& wrapped) {
  auto& fs = shared().fault;
  const std::uint64_t epoch = fs.team_epoch.load(std::memory_order_acquire);

  // Flush the parent's stdio buffers first: children inherit them, and
  // each child's exit flush would otherwise write the parent's pending
  // output once more per rank.
  std::fflush(nullptr);
  // Freeze the shared windows: what the parent has mapped shared now is at
  // the same address in every child (docs/algorithms.md §3c).
  windows_ = ShmWindows::snapshot();
  std::vector<pid_t> children(static_cast<std::size_t>(nranks()), -1);
  for (int r = 0; r < nranks(); ++r) {
    const pid_t pid = fork();
    YHCCL_CHECK_SYS(pid, "fork");
    if (pid == 0) {
      int code = 0;
      try {
        wrapped(r);
      } catch (const FaultInjectedDeath&) {
        // `die` injection on a forked rank _exits at the injection point and
        // never unwinds this far; keep the crash semantics if it ever does.
        std::fflush(nullptr);
        _exit(kDieExitCode);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[yhccl rank %d pid %d] %s\n", r, getpid(),
                     e.what());
        code = 1;
      } catch (...) {
        std::fprintf(stderr, "[yhccl rank %d] unknown exception\n", r);
        code = 1;
      }
      // _exit: skip atexit/static destructors we share with the parent.
      std::fflush(nullptr);
      _exit(code);
    }
    children[static_cast<std::size_t>(r)] = pid;
  }

  // Reap with WNOHANG so a sibling's death lands in the shared liveness
  // slots (and the abort word) at reap latency — survivors then leave their
  // spin loops within milliseconds instead of waiting out the watchdog.
  int alive = nranks();
  int deaths = 0;
  int failures = 0;
  double kill_deadline = -1.0;
  while (alive > 0) {
    bool reaped_any = false;
    for (int r = 0; r < nranks(); ++r) {
      pid_t& pid = children[static_cast<std::size_t>(r)];
      if (pid <= 0) continue;
      int status = 0;
      const pid_t got = waitpid(pid, &status, WNOHANG);
      if (got == 0) continue;
      YHCCL_CHECK_SYS(got, "waitpid");
      reaped_any = true;
      pid = -1;
      --alive;
      const bool died =
          WIFSIGNALED(status) ||
          (WIFEXITED(status) && WEXITSTATUS(status) == kDieExitCode);
      if (died) {
        ++deaths;
        // Tombstone first (so classification sees it), then raise the team
        // abort on the dead rank's behalf: survivors poll the word on every
        // backoff cycle and exit almost immediately.
        fs.hb[r].dead.store(1, std::memory_order_release);
        fs.hb[r].left.store(1, std::memory_order_release);
        std::uint64_t expect = 0;
        fs.abort_word.compare_exchange_strong(
            expect,
            FaultState::pack(FaultInfo{FaultKind::peer_dead, r, epoch}),
            std::memory_order_acq_rel, std::memory_order_acquire);
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++failures;
      }
    }
    if (alive == 0) break;
    if (!reaped_any) sleep_us(200);

    // Grace kill: once the team abort is up every survivor exits within
    // milliseconds, so a rank still running long past that is wedged
    // outside our spin loops.  SIGKILL it so run() terminates.
    const std::uint64_t w = fs.abort_word.load(std::memory_order_acquire);
    const bool aborted = w != 0 && FaultState::unpack(w).epoch == epoch;
    if (!aborted && deaths == 0) continue;
    const double now = wall_seconds();
    if (kill_deadline < 0) {
      const double t = sync_timeout();
      kill_deadline = now + (t > 0 ? t + 2.0 : 2.0);
    } else if (now >= kill_deadline) {
      for (int r = 0; r < nranks(); ++r) {
        const pid_t pid = children[static_cast<std::size_t>(r)];
        if (pid > 0) kill(pid, SIGKILL);
      }
    }
  }

  if (deaths == 0 && failures == 0) return;
  const std::string tally = std::to_string(deaths) + " of " +
                            std::to_string(nranks()) +
                            " rank processes died, " +
                            std::to_string(failures) + " exited with errors";
  const std::uint64_t w = fs.abort_word.load(std::memory_order_acquire);
  if (w != 0) {
    const FaultInfo f = FaultState::unpack(w);
    if (f.epoch == epoch)
      throw Error("ProcessTeam: " + describe_fault(f) + " (" + tally + ")",
                  f.kind, f.rank, f.epoch);
  }
  raise("ProcessTeam: " + tally);
}

}  // namespace yhccl::rt
