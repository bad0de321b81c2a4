// Backend-parity and race-cleanliness of the deterministic counters.
//
// The same collective on the same geometry must produce *bit-identical*
// profiler records — calls, payload bytes, DAV loads/stores, per-tier
// kernel dispatches, barrier/flag sync ops — whether the ranks are
// threads or fork()ed processes (wall times obviously differ).  That
// equivalence is what lets the bench comparator gate on counters without
// caring which backend produced a report.  The same runs must also be
// clean under the happens-before race checker (YHCCL_CHECK=hb wiring,
// here forced programmatically).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/coll/profiler.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "test_util.hpp"

using namespace yhccl;
using test::cached_team;
using test::fill_buffer;

namespace {

constexpr std::size_t kScratch = 24u << 20;

coll::CollOpts parity_opts() {
  coll::CollOpts o;
  o.slice_max = 4u << 10;
  return o;
}

/// Run every profiled collective wrapper once per rank and collect the
/// per-rank profiles through the team's shared heap (CollProfiler's record
/// table is trivially copyable, so a memcpy out of a fork()ed child is
/// well-defined).  `allreduce_alg` pins the allreduce arm (automatic by
/// default).
std::vector<coll::CollProfiler> profile_all(
    rt::Team& team, int p, std::size_t count,
    coll::Algorithm allreduce_alg = coll::Algorithm::automatic) {
  auto* out = reinterpret_cast<coll::CollProfiler*>(team.shared_alloc(
      sizeof(coll::CollProfiler) * static_cast<std::size_t>(p),
      alignof(coll::CollProfiler)));
  const auto o = parity_opts();
  auto ar = o;
  ar.algorithm = allreduce_alg;
  team.run([&](rt::RankCtx& ctx) {
    coll::CollProfiler prof;
    std::vector<double> send(count * ctx.nranks());
    std::vector<double> recv(count * ctx.nranks());
    fill_buffer(send.data(), send.size(), Datatype::f64, ctx.rank(),
                ReduceOp::sum);
    coll::allreduce(prof, ctx, send.data(), recv.data(), count,
                    Datatype::f64, ReduceOp::sum, ar);
    coll::reduce(prof, ctx, send.data(), recv.data(), count, Datatype::f64,
                 ReduceOp::sum, /*root=*/0, o);
    coll::reduce_scatter(prof, ctx, send.data(), recv.data(), count,
                         Datatype::f64, ReduceOp::sum, o);
    coll::broadcast(prof, ctx, send.data(), count, Datatype::f64, /*root=*/0,
                    o);
    coll::allgather(prof, ctx, send.data(), recv.data(), count, Datatype::f64,
                    o);
    std::memcpy(&out[ctx.rank()], &prof, sizeof(prof));
    ctx.barrier();
  });
  return {out, out + p};
}

::testing::AssertionResult records_identical(
    const coll::CollProfiler::Record& a,
    const coll::CollProfiler::Record& b) {
  if (a.calls != b.calls)
    return ::testing::AssertionFailure()
           << "calls " << a.calls << " != " << b.calls;
  if (a.payload_bytes != b.payload_bytes)
    return ::testing::AssertionFailure()
           << "payload " << a.payload_bytes << " != " << b.payload_bytes;
  if (!(a.dav == b.dav))
    return ::testing::AssertionFailure()
           << "dav " << a.dav.loads << "/" << a.dav.stores << " != "
           << b.dav.loads << "/" << b.dav.stores;
  if (!(a.kernels == b.kernels))
    return ::testing::AssertionFailure() << "kernel dispatch counts differ";
  if (a.sync.barriers != b.sync.barriers ||
      a.sync.flag_posts != b.sync.flag_posts ||
      a.sync.flag_waits != b.sync.flag_waits)
    return ::testing::AssertionFailure()
           << "sync " << a.sync.barriers << "/" << a.sync.flag_posts << "/"
           << a.sync.flag_waits << " != " << b.sync.barriers << "/"
           << b.sync.flag_posts << "/" << b.sync.flag_waits;
  return ::testing::AssertionSuccess();
}

TEST(CounterParityBackends, ProfilerRecordsBitIdenticalThreadVsFork) {
  for (auto [p, m] : {std::pair{2, 1}, {4, 2}, {3, 2}}) {
    const std::size_t count = 3003;  // ragged: not a slice multiple

    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = kScratch;
    cfg.shared_heap_bytes = 8u << 20;
    rt::ProcessTeam pteam(cfg);
    auto& tteam = cached_team(p, m, kScratch);

    // This allreduce is above the fold cut, where a thread team serves the
    // single-copy direct arm, which forked ranks cannot run.  Both
    // backends run the arm the process team serves.
    const std::size_t bytes = count * sizeof(double);
    EXPECT_EQ(coll::plan::query(tteam, coll::CollKind::allreduce, bytes,
                                Datatype::f64, ReduceOp::sum, parity_opts())
                  .algorithm,
              coll::Algorithm::direct)
        << "p=" << p << " m=" << m;
    const coll::Algorithm shared_arm =
        coll::plan::query(pteam, coll::CollKind::allreduce, bytes,
                          Datatype::f64, ReduceOp::sum, parity_opts())
            .algorithm;

    const auto thread_profiles = profile_all(tteam, p, count, shared_arm);
    const auto fork_profiles = profile_all(pteam, p, count, shared_arm);

    for (int r = 0; r < p; ++r) {
      for (int k = 0; k < static_cast<int>(coll::CollKind::kCount_); ++k) {
        const auto kind = static_cast<coll::CollKind>(k);
        EXPECT_TRUE(records_identical(thread_profiles[r].get(kind),
                                      fork_profiles[r].get(kind)))
            << "p=" << p << " m=" << m << " rank " << r << " "
            << coll::coll_kind_name(kind);
      }
    }

    // Team totals agree too (what the bench harness snapshots).
    const auto td = tteam.total_dav(), pd = pteam.total_dav();
    EXPECT_EQ(td.loads, pd.loads) << "p=" << p << " m=" << m;
    EXPECT_EQ(td.stores, pd.stores) << "p=" << p << " m=" << m;
    EXPECT_TRUE(tteam.total_kernels() == pteam.total_kernels());
    const auto ts = tteam.total_sync(), ps = pteam.total_sync();
    EXPECT_EQ(ts.barriers, ps.barriers);
    EXPECT_EQ(ts.flag_posts, ps.flag_posts);
    EXPECT_EQ(ts.flag_waits, ps.flag_waits);
  }
}

TEST(CounterParityBackends, ProfiledRunsAreHbCleanOnBothBackends) {
  const int p = 4, m = 2;
  const std::size_t count = 2048;

  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = kScratch;
  cfg.shared_heap_bytes = 8u << 20;
  cfg.hb_check = rt::HbMode::on;

  rt::ThreadTeam tteam(cfg);
  profile_all(tteam, p, count);
  EXPECT_EQ(tteam.hb_races(), 0u) << tteam.hb_report();

  rt::ProcessTeam pteam(cfg);
  profile_all(pteam, p, count);
  EXPECT_EQ(pteam.hb_races(), 0u) << pteam.hb_report();
}

}  // namespace
