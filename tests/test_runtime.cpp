// Runtime substrate tests: topology math, shm regions, barriers under
// stress, progress flags, the shared heap, pt2pt FIFO and rendezvous
// transfers, the remote-buffer registry, and the fork()-backed team.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "yhccl/copy/kernels.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/remote_access.hpp"
#include "yhccl/runtime/shm_region.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::rt;

namespace {

TEST(Topology, BlockPartitionIsExhaustiveAndConsistent) {
  for (int p = 1; p <= 17; ++p) {
    for (int m = 1; m <= p; ++m) {
      Topology t(p, m);
      int covered = 0;
      for (int s = 0; s < m; ++s) {
        const int base = t.socket_base(s), size = t.socket_size(s);
        EXPECT_GE(size, 1);
        EXPECT_EQ(base, covered);
        for (int r = base; r < base + size; ++r) {
          EXPECT_EQ(t.socket_of(r), s) << "p=" << p << " m=" << m;
          EXPECT_EQ(t.socket_rank(r), r - base);
        }
        covered += size;
      }
      EXPECT_EQ(covered, p);
    }
  }
}

TEST(Topology, SocketSizesDifferByAtMostOne) {
  Topology t(10, 3);
  EXPECT_EQ(t.socket_size(0), 4);
  EXPECT_EQ(t.socket_size(1), 3);
  EXPECT_EQ(t.socket_size(2), 3);
}

TEST(ShmRegion, AnonymousIsZeroedAndWritable) {
  auto r = ShmRegion::create_anonymous(1 << 20);
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.size(), 1u << 20);
  for (std::size_t i = 0; i < r.size(); i += 4096)
    EXPECT_EQ(std::to_integer<int>(r.data()[i]), 0);
  std::memset(r.data(), 0xab, r.size());
  EXPECT_EQ(std::to_integer<int>(r.data()[12345]), 0xab);
}

TEST(ShmRegion, NamedCreateOpenRoundTrip) {
  const std::string name =
      "/yhccl_test_" + std::to_string(getpid());
  auto a = ShmRegion::create_named(name, 64 << 10);
  std::memset(a.data(), 0x5c, 64 << 10);
  auto b = ShmRegion::open_named(name, 64 << 10);
  EXPECT_EQ(std::to_integer<int>(b.data()[40000]), 0x5c);
}

TEST(ShmRegion, NamedCreateRefusesDuplicates) {
  const std::string name = "/yhccl_dup_" + std::to_string(getpid());
  auto a = ShmRegion::create_named(name, 4096);
  EXPECT_THROW(ShmRegion::create_named(name, 4096), Error);
}

// The window table lists exactly the live mappings: a move keeps the
// mapping (one entry, same range), move-assignment unmaps the target's old
// mapping and destruction the last owner's.
TEST(ShmRegion, WindowTableTracksCreateMoveAndDestroy) {
  const int base = ShmWindows::snapshot().size();
  std::byte* old_c = nullptr;
  {
    auto a = ShmRegion::create_anonymous(64 << 10);
    ShmWindows w = ShmWindows::snapshot();
    EXPECT_EQ(w.size(), base + 1);
    EXPECT_TRUE(w.covers(a.data(), a.size()));
    EXPECT_TRUE(w.covers(a.data() + 100, 1000));
    EXPECT_FALSE(w.covers(a.data(), a.size() + 1));
    EXPECT_FALSE(w.covers(a.data() - 1, 2));

    std::byte* const at = a.data();
    ShmRegion b(std::move(a));
    w = ShmWindows::snapshot();
    EXPECT_EQ(w.size(), base + 1);
    EXPECT_TRUE(w.covers(at, b.size()));

    auto c = ShmRegion::create_anonymous(4096);
    old_c = c.data();
    EXPECT_EQ(ShmWindows::snapshot().size(), base + 2);
    c = std::move(b);  // unmaps c's own mapping
    w = ShmWindows::snapshot();
    EXPECT_EQ(w.size(), base + 1);
    EXPECT_TRUE(w.covers(at, c.size()));
    EXPECT_FALSE(w.covers(old_c, 1));

    // A named object opened twice is two mappings at two addresses.
    const std::string name = "/yhccl_win_" + std::to_string(getpid());
    auto n1 = ShmRegion::create_named(name, 8192);
    auto n2 = ShmRegion::open_named(name, 8192);
    w = ShmWindows::snapshot();
    EXPECT_EQ(w.size(), base + 3);
    EXPECT_TRUE(w.covers(n1.data(), 8192));
    EXPECT_TRUE(w.covers(n2.data(), 8192));
  }
  const ShmWindows w = ShmWindows::snapshot();
  EXPECT_EQ(w.size(), base);
  EXPECT_FALSE(w.covers(old_c, 1));
}

// Threads creating and destroying regions while another snapshots the
// table: a slot under edit reads as absent, but edits never hide a region
// nobody touches, each editor always finds its own live region, and the
// table ends exact.  A snapshot scans the slots one by one, so it is no
// atomic cut of the table and its size is not bounded by the live count.
// (The TSan CI leg runs this for data races on the lock-free slots.)
TEST(ShmRegion, WindowTableStaysExactUnderConcurrentEdits) {
  const int base = ShmWindows::snapshot().size();
  const auto stable = ShmRegion::create_anonymous(4096);
  std::atomic<bool> started{false}, done{false};
  std::vector<std::thread> editors;
  for (int t = 0; t < 3; ++t)
    editors.emplace_back([t, &started] {
      while (!started.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        auto r = ShmRegion::create_anonymous(4096 * (1 + (i + t) % 4));
        auto moved = std::move(r);
        EXPECT_TRUE(ShmWindows::snapshot().covers(moved.data(), moved.size()));
      }
    });
  std::thread reader([&] {
    started.store(true);
    do {
      EXPECT_TRUE(ShmWindows::snapshot().covers(stable.data(), stable.size()));
    } while (!done.load());
  });
  for (auto& e : editors) e.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(ShmWindows::snapshot().size(), base + 1);
}

// Thread teams share one address space and never list windows; a forked
// team freezes the parent's mappings, its own included, at every run().
TEST(ShmRegion, ProcessTeamFreezesTheParentsWindowsAtFork) {
  TeamConfig cfg;
  cfg.nranks = 2;
  cfg.scratch_bytes = 1 << 20;
  cfg.shared_heap_bytes = 1 << 20;
  ThreadTeam threads(cfg);
  threads.run([](RankCtx&) {});
  EXPECT_EQ(threads.windows().size(), 0);

  ProcessTeam procs(cfg);
  std::byte* heap = procs.shared_alloc(4096);
  EXPECT_EQ(procs.windows().size(), 0) << "nothing frozen before run()";
  auto later = ShmRegion::create_anonymous(4096);
  auto* seen = reinterpret_cast<int*>(procs.shared_alloc(2 * sizeof(int)));
  procs.run([&](RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    seen[0] = ctx.team().windows().covers(heap, 4096) ? 1 : 0;
    seen[1] = ctx.team().windows().covers(later.data(), 4096) ? 1 : 0;
  });
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 1) << "mapped before run(): inherited at one address";
  EXPECT_EQ(procs.windows().size(), ShmWindows::snapshot().size());
}

TEST(ThreadTeamBarrier, StressManyIterations) {
  auto& team = test::cached_team(8, 2);
  auto* counter = reinterpret_cast<std::atomic<std::uint64_t>*>(
      team.shared_alloc(sizeof(std::atomic<std::uint64_t>)));
  counter->store(0);
  constexpr int kIters = 2000;
  team.run([&](RankCtx& ctx) {
    for (int i = 0; i < kIters; ++i) {
      // Everyone must observe exactly i*p increments after barrier i.
      counter->fetch_add(1, std::memory_order_relaxed);
      ctx.barrier();
      const auto v = counter->load(std::memory_order_relaxed);
      if (v < static_cast<std::uint64_t>((i + 1) * ctx.nranks()))
        throw Error("barrier violated: saw " + std::to_string(v));
      ctx.barrier();
    }
  });
  EXPECT_EQ(counter->load(), static_cast<std::uint64_t>(kIters) * 8);
}

TEST(ThreadTeamBarrier, SocketBarrierOnlySyncsSocketMembers) {
  auto& team = test::cached_team(6, 2);
  auto* sums = reinterpret_cast<std::atomic<int>*>(
      team.shared_alloc(2 * sizeof(std::atomic<int>)));
  sums[0].store(0);
  sums[1].store(0);
  team.run([&](RankCtx& ctx) {
    sums[ctx.socket()].fetch_add(1);
    ctx.socket_barrier();
    if (sums[ctx.socket()].load() < ctx.socket_size())
      throw Error("socket barrier violated");
    ctx.barrier();
  });
}

TEST(ThreadTeam, StepFlagsEnforceNeighbourOrdering) {
  auto& team = test::cached_team(4, 1);
  constexpr int kSteps = 500;
  team.run([&](RankCtx& ctx) {
    const auto seq = ctx.next_seq();
    const int right = (ctx.rank() + 1) % ctx.nranks();
    for (int k = 0; k < kSteps; ++k) {
      if (k > 0)
        ctx.step_wait(right, RankCtx::step_value(seq, k));
      ctx.step_publish(RankCtx::step_value(seq, k + 1));
    }
    ctx.barrier();
  });
}

TEST(ThreadTeam, RunPropagatesRankExceptions) {
  auto& team = test::cached_team(3, 1);
  EXPECT_THROW(team.run([&](RankCtx& ctx) {
                 if (ctx.rank() == 1) throw Error("rank 1 exploded");
               }),
               Error);
  // The team must remain usable afterwards.
  team.run([](RankCtx& ctx) { ctx.barrier(); });
}

TEST(ThreadTeam, DavAndTimeAreCapturedPerRank) {
  auto& team = test::cached_team(2, 1);
  std::vector<std::uint8_t> a(1 << 16), b(1 << 16);
  team.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) copy::t_copy(b.data(), a.data(), 1 << 16);
  });
  EXPECT_EQ(team.last_dav(0).total(), 2u << 16);
  EXPECT_EQ(team.last_dav(1).total(), 0u);
  EXPECT_EQ(team.total_dav().total(), 2u << 16);
  EXPECT_GT(team.max_time(), 0.0);
}

TEST(SharedHeap, AlignmentAndExhaustion) {
  rt::TeamConfig cfg;
  cfg.nranks = 1;
  cfg.shared_heap_bytes = 1 << 16;
  cfg.scratch_bytes = 1 << 12;
  ThreadTeam team(cfg);
  auto* a = team.shared_alloc(100, 64);
  auto* b = team.shared_alloc(100, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 4096, 0u);
  EXPECT_THROW(team.shared_alloc(1 << 20), Error);
}

TEST(Pt2Pt, EagerSendRecvRoundTripAllSizes) {
  auto& team = test::cached_team(2, 1);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{100},
                        std::size_t{8192},   // == chunk
                        std::size_t{8193},   // chunk + 1
                        std::size_t{100000}}) {
    std::vector<std::uint8_t> payload(n);
    for (std::size_t i = 0; i < n; ++i)
      payload[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> got(n, 0);
    team.run([&](RankCtx& ctx) {
      if (ctx.rank() == 0)
        ctx.send(1, payload.data(), n, /*tag=*/5);
      else
        ctx.recv(0, got.data(), n, /*tag=*/5);
    });
    EXPECT_EQ(got, payload) << "n=" << n;
  }
}

TEST(Pt2Pt, BidirectionalExchangeDoesNotDeadlock) {
  auto& team = test::cached_team(2, 1);
  const std::size_t n = 200000;  // >> FIFO capacity: exercises pipelining
  std::vector<std::uint8_t> buf0(n, 1), buf1(n, 2), got0(n), got1(n);
  team.run([&](RankCtx& ctx) {
    // Rank 0 sends far more than the FIFO capacity before receiving; the
    // chunked eager protocol must keep making progress.
    if (ctx.rank() == 0) {
      ctx.send(1, buf0.data(), n / 2, 0);
      ctx.recv(1, got0.data(), n / 2, 0);
    } else {
      ctx.recv(0, got1.data(), n / 2, 0);
      ctx.send(0, buf1.data(), n / 2, 0);
    }
  });
  EXPECT_EQ(got1[100], 1);
  EXPECT_EQ(got0[100], 2);
}

TEST(Pt2Pt, RendezvousSingleCopyMovesHalfTheBytes) {
  auto& team = test::cached_team(2, 1);
  const std::size_t n = 1 << 20;
  std::vector<std::uint8_t> src(n, 0x3d), dst(n, 0);
  team.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0)
      ctx.send_zc(1, src.data(), n);
    else
      ctx.recv_zc(0, dst.data(), n);
  });
  EXPECT_EQ(dst, src);
  // Receiver did one copy (2n traffic); sender touched nothing.
  EXPECT_EQ(team.last_dav(1).total(), 2 * n);
  EXPECT_EQ(team.last_dav(0).total(), 0u);
}

TEST(RemoteAccess, RegistryPublishLookup) {
  auto& team = test::cached_team(3, 1);
  std::vector<double> mine(64);
  team.run([&](RankCtx& ctx) {
    std::vector<double> local(16, ctx.rank() + 1.0);
    ctx.publish_buffer(0, local.data(), local.size() * sizeof(double));
    ctx.barrier();
    const int peer = (ctx.rank() + 1) % ctx.nranks();
    auto rb = ctx.remote_buffer(peer, 0);
    std::vector<double> got(16);
    remote_read(got.data(), rb, 0, 16 * sizeof(double), RemoteMode::direct);
    if (got[7] != peer + 1.0) throw Error("remote_read wrong data");
    ctx.barrier();  // keep `local` alive until all reads finish
  });
}

TEST(RemoteAccess, CmaPagewiseMatchesDirectAndCountsSameDav) {
  const std::size_t n = 3 * 4096 + 123;
  std::vector<std::uint8_t> src(n);
  for (std::size_t i = 0; i < n; ++i)
    src[i] = static_cast<std::uint8_t>(i * 13);
  RemoteBuf rb{src.data(), n, getpid()};
  std::vector<std::uint8_t> direct(n), cma(n);
  copy::dav_reset();
  remote_read(direct.data(), rb, 0, n, RemoteMode::direct);
  const auto dav_direct = copy::dav_read();
  copy::dav_reset();
  PageLockTable locks;
  remote_read(cma.data(), rb, 0, n, RemoteMode::cma_pagewise, &locks);
  const auto dav_cma = copy::dav_read();
  EXPECT_EQ(direct, src);
  EXPECT_EQ(cma, src);
  EXPECT_EQ(dav_direct.total(), dav_cma.total());
}

TEST(RemoteAccess, OffsetReadsAndBoundsChecking) {
  std::vector<std::uint8_t> src(8192, 9);
  src[5000] = 77;
  RemoteBuf rb{src.data(), src.size(), getpid()};
  std::uint8_t out = 0;
  remote_read(&out, rb, 5000, 1, RemoteMode::direct);
  EXPECT_EQ(out, 77);
  EXPECT_THROW(remote_read(&out, rb, 8192, 1, RemoteMode::direct), Error);
}

// ---- fork()-backed team ----------------------------------------------------

TEST(ProcessTeam, SpmdOverSharedHeapBuffers) {
  rt::TeamConfig cfg;
  cfg.nranks = 4;
  cfg.nsockets = 2;
  cfg.scratch_bytes = 4 << 20;
  cfg.shared_heap_bytes = 4 << 20;
  ProcessTeam team(cfg);
  auto* out = reinterpret_cast<int*>(team.shared_alloc(4 * sizeof(int)));
  team.run([&](RankCtx& ctx) { out[ctx.rank()] = 100 + ctx.rank(); });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(out[r], 100 + r);
}

TEST(ProcessTeam, BarrierAndPt2PtAcrossProcesses) {
  rt::TeamConfig cfg;
  cfg.nranks = 3;
  cfg.scratch_bytes = 1 << 20;
  cfg.shared_heap_bytes = 1 << 20;
  ProcessTeam team(cfg);
  auto* sink = reinterpret_cast<std::uint8_t*>(team.shared_alloc(1 << 16));
  team.run([&](RankCtx& ctx) {
    std::vector<std::uint8_t> priv(1 << 16, static_cast<std::uint8_t>(42));
    if (ctx.rank() == 0) ctx.send(2, priv.data(), 1 << 16);
    if (ctx.rank() == 2) {
      ctx.recv(0, sink, 1 << 16);
    }
    ctx.barrier();
  });
  EXPECT_EQ(sink[12345], 42);
}

// Regression: a line buffered on a piped stream before run() used to be
// written once by the parent and once more by every forked rank.
TEST(ProcessTeam, OutputBufferedBeforeRunIsWrittenOnce) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::fflush(nullptr);  // the probe child must not inherit our buffers
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    FILE* out = fdopen(fds[1], "w");  // a pipe: fully buffered
    std::fputs("before-run marker\n", out);
    rt::TeamConfig cfg;
    cfg.nranks = 4;
    cfg.scratch_bytes = 1 << 20;
    cfg.shared_heap_bytes = 1 << 20;
    int code = 0;
    try {
      ProcessTeam team(cfg);
      team.run([](RankCtx&) {});
    } catch (...) {
      code = 1;
    }
    std::fclose(out);
    _exit(code);
  }
  close(fds[1]);
  std::string got;
  char buf[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0)
    got.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::size_t lines = 0;
  for (std::size_t at = 0;
       (at = got.find("before-run marker", at)) != std::string::npos; ++at)
    ++lines;
  EXPECT_EQ(lines, 1u) << got;
}

TEST(ProcessTeam, FailedRankSurfacesAsError) {
  rt::TeamConfig cfg;
  cfg.nranks = 2;
  cfg.scratch_bytes = 1 << 20;
  cfg.shared_heap_bytes = 1 << 20;
  ProcessTeam team(cfg);
  EXPECT_THROW(team.run([](RankCtx& ctx) {
                 if (ctx.rank() == 1) throw Error("child failure");
               }),
               Error);
  team.run([](RankCtx&) {});  // usable afterwards
}

// ---- posted completion and deferred reaping ---------------------------------

TeamConfig posted_cfg() {
  TeamConfig cfg;
  cfg.nranks = 4;
  cfg.scratch_bytes = 1 << 20;
  cfg.shared_heap_bytes = 1 << 20;
  return cfg;
}

// run() returns once every rank posted; the destructor reaps whatever the
// next run() did not, so no child outlives the team.
TEST(ProcessTeam, DestructionReapsEveryDeferredRank) {
  {
    ProcessTeam team(posted_cfg());
    for (int i = 0; i < 50; ++i) team.run([](RankCtx& ctx) { ctx.barrier(); });
  }
  int status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// A caller that reaps the team's posted ranks itself (a blanket
// waitpid(-1) loop, a SIGCHLD handler) leaves the team ECHILD to swallow.
TEST(ProcessTeam, ForeignReapOfAPostedRankIsTolerated) {
  const auto reap_all = [] {
    int status = 0;
    while (waitpid(-1, &status, 0) > 0) {
    }
    EXPECT_EQ(errno, ECHILD);
  };
  {
    ProcessTeam team(posted_cfg());
    team.run([](RankCtx& ctx) { ctx.barrier(); });
    reap_all();
    EXPECT_NO_THROW(team.run([](RankCtx& ctx) { ctx.barrier(); }));
    reap_all();
  }  // must not hang on the ranks reaped above
  int status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// A rank that dies before it posts is reaped at once and classified as a
// death, exactly like an injected one.
TEST(ProcessTeam, RankKilledBeforePostingIsADeath) {
  ProcessTeam team(posted_cfg());
  try {
    team.run([](RankCtx& ctx) {
      if (ctx.rank() == 2) ::raise(SIGKILL);
      ctx.barrier();
    });
    ADD_FAILURE() << "run() returned despite a killed rank";
  } catch (const Error& e) {
    EXPECT_EQ(e.fault_kind(), FaultKind::peer_dead) << e.what();
    EXPECT_EQ(e.fault_rank(), 2) << e.what();
  }
}

}  // namespace
