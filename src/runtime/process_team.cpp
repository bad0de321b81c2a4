#include "yhccl/runtime/process_team.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "yhccl/common/error.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/runtime/sync_timeout.hpp"

namespace yhccl::rt {

namespace {

// HeartbeatSlot::done, as a forked rank posts it.
constexpr std::uint8_t kDoneOk = 1;
constexpr std::uint8_t kDoneFailed = 2;

/// Longest single poll() while ranks run: the parent re-reads the abort
/// word at least this often, so a raised abort arms the grace kill even if
/// no rank posts or exits after it.
constexpr int kAbortCheckMs = 100;

// Raw syscalls: older C libraries lack (or mis-declare) the wrappers.
int pidfd_open(pid_t pid) noexcept {
  return static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
}
void pidfd_kill(int pidfd) noexcept {
  syscall(SYS_pidfd_send_signal, pidfd, SIGKILL, nullptr, 0);
}

}  // namespace

ProcessTeam::ProcessTeam(TeamConfig cfg) : Team(cfg, /*forked_ranks=*/true) {
  done_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  YHCCL_CHECK_SYS(done_fd_, "eventfd");
}

ProcessTeam::~ProcessTeam() {
  reap_posted(/*block=*/true);
  close(done_fd_);
}

void ProcessTeam::reap_posted(bool block) noexcept {
  std::size_t keep = 0;
  for (const int fd : posted_) {
    siginfo_t si{};
    int rc = 0;
    do {
      rc = waitid(P_PIDFD, static_cast<id_t>(fd), &si,
                  WEXITED | (block ? 0 : WNOHANG));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0 && si.si_pid == 0) {  // WNOHANG: still exiting
      posted_[keep++] = fd;
      continue;
    }
    close(fd);  // reaped — or ECHILD: someone else reaped it first
  }
  posted_.resize(keep);
}

void ProcessTeam::run_ranks(const std::function<void(int)>& wrapped) {
  auto& fs = shared().fault;
  const std::uint64_t epoch = fs.team_epoch.load(std::memory_order_acquire);
  const int n = nranks();

  // Ranks that posted in an earlier run have exited by now, or nearly.
  reap_posted(/*block=*/false);
  for (int r = 0; r < n; ++r)
    fs.hb[r].done.store(0, std::memory_order_relaxed);

  // Flush the parent's stdio buffers first: children inherit them, and
  // each child's exit flush would otherwise write the parent's pending
  // output once more per rank.
  std::fflush(nullptr);
  // Freeze the shared windows: what the parent has mapped shared now is at
  // the same address in every child (docs/algorithms.md §3c).
  windows_ = ShmWindows::snapshot();
  std::vector<int> pidfds(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const pid_t pid = fork();
    YHCCL_CHECK_SYS(pid, "fork");
    if (pid == 0) {
      // This process inherited none of the team mapping's page-table
      // entries: map shared destinations by read fault-around.
      copy::enable_dst_prefault();
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
      std::fflush(nullptr);
      // Post the outcome: the release store publishes every write this rank
      // made to the team mapping (results, trace rings, counters) to the
      // parent's acquire load; the eventfd wakes the parent's poll.
      fs.hb[r].done.store(code == 0 ? kDoneOk : kDoneFailed,
                          std::memory_order_release);
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t wrote = write(done_fd_, &one, sizeof one);
      // _exit: skip atexit/static destructors we share with the parent.
      _exit(code);
    }
    const int pidfd = pidfd_open(pid);
    YHCCL_CHECK_SYS(pidfd, "pidfd_open");
    pidfds[static_cast<std::size_t>(r)] = pidfd;
  }

  // Wait until every rank has posted `done` or exited.  A rank that exits
  // without posting is reaped at once, so its death lands in the shared
  // liveness slots (and the abort word) at reap latency — survivors then
  // leave their spin loops within milliseconds instead of waiting out the
  // watchdog.  Ranks that posted are left to reap_posted().
  int waiting = n;
  int deaths = 0;
  int failures = 0;
  double kill_deadline = -1.0;
  std::vector<pollfd> fds;
  std::vector<int> fd_rank;  // rank behind fds[i + 1]
  for (;;) {
    // Drain before scanning: a post after the scan re-arms the eventfd.
    std::uint64_t posts = 0;
    [[maybe_unused]] const ssize_t got = read(done_fd_, &posts, sizeof posts);
    fds.assign(1, pollfd{done_fd_, POLLIN, 0});
    fd_rank.clear();
    for (int r = 0; r < n; ++r) {
      int& pidfd = pidfds[static_cast<std::size_t>(r)];
      if (pidfd < 0) continue;
      const std::uint8_t done = fs.hb[r].done.load(std::memory_order_acquire);
      if (done == 0) {
        fds.push_back(pollfd{pidfd, POLLIN, 0});
        fd_rank.push_back(r);
        continue;
      }
      if (done != kDoneOk) ++failures;
      posted_.push_back(pidfd);
      pidfd = -1;
      --waiting;
    }
    if (waiting == 0) break;

    // Grace kill: once the team abort is up every survivor exits within
    // milliseconds, so a rank still running long past that is wedged
    // outside our spin loops.  SIGKILL it so run() terminates.
    const std::uint64_t w = fs.abort_word.load(std::memory_order_acquire);
    const bool aborted = w != 0 && FaultState::unpack(w).epoch == epoch;
    if (aborted || deaths > 0) {
      const double now = wall_seconds();
      if (kill_deadline < 0) {
        const double t = sync_timeout();
        kill_deadline = now + (t > 0 ? t + 2.0 : 2.0);
      } else if (now >= kill_deadline) {
        for (const int r : fd_rank)
          pidfd_kill(pidfds[static_cast<std::size_t>(r)]);
      }
    }

    const int ready =
        poll(fds.data(), static_cast<nfds_t>(fds.size()), kAbortCheckMs);
    if (ready < 0 && errno != EINTR) YHCCL_CHECK_SYS(ready, "poll");
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int r = fd_rank[i - 1];
      int& pidfd = pidfds[static_cast<std::size_t>(r)];
      siginfo_t si{};
      YHCCL_CHECK_SYS(waitid(P_PIDFD, static_cast<id_t>(pidfd), &si, WEXITED),
                      "waitid");
      close(pidfd);
      pidfd = -1;
      --waiting;
      const bool died =
          si.si_code != CLD_EXITED || si.si_status == kDieExitCode;
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
      } else if (si.si_status != 0) {
        ++failures;
      }
    }
  }

  if (deaths == 0 && failures == 0) return;
  // A failed run is off the fast path: reap every rank before reporting it,
  // so recover() starts from a team with no child left.
  reap_posted(/*block=*/true);
  const std::string tally = std::to_string(deaths) + " of " +
                            std::to_string(n) + " rank processes died, " +
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
