// Model-checker validation (docs/analysis.md §MC).  Three layers:
//
//   1. Engine litmus tests against hand-built Specs: the classic
//      store-buffering and message-passing shapes prove the reads-from
//      exploration actually exercises the relaxed outcomes the C++ memory
//      model permits, and that release/acquire edges suppress them; a
//      never-signalled spin proves lost-wakeup (deadlock) detection.
//   2. Every protocol harness verifies CLEAN at 2 and 3 model ranks.
//   3. Every entry of the mutation table — one seeded memory-order
//      weakening in the production sync code — is CAUGHT, its schedule
//      replays deterministically, and the flight-recorder re-execution
//      yields a usable JSON dump.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/mc/checker.hpp"
#include "yhccl/mc/protocols.hpp"

using namespace yhccl;

namespace {

mc::Options budget() {
  mc::Options opt = mc::Options::from_env();
  return opt;
}

// ---------------------------------------------------------------------------
// 1. Engine litmus tests
// ---------------------------------------------------------------------------

// Store buffering: with relaxed atomics both loads may miss both stores
// (each reads the initial value).  An engine that only interleaved the
// program orders could never produce r0 == r1 == 0; only reads-from
// exploration finds it.
TEST(McEngine, StoreBufferingRelaxedOutcomeIsFound) {
  struct St {
    mc::atomic<std::uint64_t> x{0}, y{0};
    std::uint64_t r[2];
  };
  static St st;  // static: Spec lambdas must outlive explore()
  mc::Spec s;
  s.nthreads = 2;
  s.reset = [] {
    st.x.store(0, std::memory_order_relaxed);
    st.y.store(0, std::memory_order_relaxed);
    st.r[0] = st.r[1] = 1;
  };
  s.body = [](int t) {
    auto& mine = t == 0 ? st.x : st.y;
    auto& theirs = t == 0 ? st.y : st.x;
    mine.store(1, std::memory_order_relaxed);
    st.r[t] = theirs.load(std::memory_order_relaxed);
  };
  s.check_final = [] {
    mc::require(st.r[0] == 1 || st.r[1] == 1,
                "store-buffering: both threads read 0");
  };
  const mc::Result r = mc::explore(s, budget());
  ASSERT_TRUE(r.caught());
  EXPECT_EQ(r.violations.front().kind, "assert");
  EXPECT_FALSE(r.violations.front().schedule.empty());
}

// Message passing, correct form: release store / acquire spin — the
// payload must always be visible.  This must verify clean AND exhaust the
// space (complete == true).
TEST(McEngine, MessagePassingReleaseAcquireIsClean) {
  struct St {
    mc::atomic<std::uint64_t> flag{0};
    mc::atomic<std::uint64_t> data{0};
  };
  static St st;
  mc::Spec s;
  s.nthreads = 2;
  s.reset = [] {
    st.flag.store(0, std::memory_order_relaxed);
    st.data.store(0, std::memory_order_relaxed);
  };
  s.body = [](int t) {
    if (t == 0) {
      st.data.store(7, std::memory_order_relaxed);
      st.flag.store(1, std::memory_order_release);
    } else {
      while (st.flag.load(std::memory_order_acquire) == 0) mc::spin_pause();
      mc::require(st.data.load(std::memory_order_relaxed) == 7,
                  "MP: payload invisible after acquire");
    }
  };
  const mc::Result r = mc::explore(s, budget());
  EXPECT_TRUE(r.clean()) << (r.violations.empty()
                                 ? "incomplete exploration"
                                 : r.violations.front().message);
}

// Message passing, broken form: a relaxed flag store lets the consumer
// observe the flag without the payload.
TEST(McEngine, MessagePassingRelaxedFlagIsCaught) {
  struct St {
    mc::atomic<std::uint64_t> flag{0};
    mc::atomic<std::uint64_t> data{0};
  };
  static St st;
  mc::Spec s;
  s.nthreads = 2;
  s.reset = [] {
    st.flag.store(0, std::memory_order_relaxed);
    st.data.store(0, std::memory_order_relaxed);
  };
  s.body = [](int t) {
    if (t == 0) {
      st.data.store(7, std::memory_order_relaxed);
      st.flag.store(1, std::memory_order_relaxed);  // missing release
    } else {
      while (st.flag.load(std::memory_order_acquire) == 0) mc::spin_pause();
      mc::require(st.data.load(std::memory_order_relaxed) == 7,
                  "MP: payload invisible after acquire");
    }
  };
  const mc::Result r = mc::explore(s, budget());
  ASSERT_TRUE(r.caught());
  EXPECT_EQ(r.violations.front().kind, "assert");
}

// A spin that can never be satisfied is a lost wakeup: no thread enabled,
// not all finished.
TEST(McEngine, LostWakeupReportsDeadlock) {
  struct St {
    mc::atomic<std::uint64_t> flag{0};
  };
  static St st;
  mc::Spec s;
  s.nthreads = 2;
  s.reset = [] { st.flag.store(0, std::memory_order_relaxed); };
  s.body = [](int t) {
    if (t == 0) {
      st.flag.store(1, std::memory_order_release);
    } else {
      while (st.flag.load(std::memory_order_acquire) < 2) mc::spin_pause();
    }
  };
  const mc::Result r = mc::explore(s, budget());
  ASSERT_TRUE(r.caught());
  EXPECT_EQ(r.violations.front().kind, "deadlock");
}

// A data race on plain memory (hb_read/hb_write instrumentation) is caught
// even when every outcome happens to look right.
TEST(McEngine, PlainMemoryRaceIsCaught) {
  struct St {
    std::uint64_t plain = 0;
  };
  static St st;
  mc::Spec s;
  s.nthreads = 2;
  s.reset = [] { st.plain = 0; };
  s.body = [](int) {
    yhccl::analysis::hb_write(&st.plain, sizeof st.plain, "racy counter");
    st.plain += 1;
  };
  const mc::Result r = mc::explore(s, budget());
  ASSERT_TRUE(r.caught());
  EXPECT_EQ(r.violations.front().kind, "race");
}

// ---------------------------------------------------------------------------
// 2. Protocols verify clean
// ---------------------------------------------------------------------------

class McProtocolClean
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(McProtocolClean, VerifiesCleanWithinBudget) {
  const auto& [name, ranks] = GetParam();
  ASSERT_TRUE(mc::protocol_supports(name, ranks));
  const mc::Result r = mc::check_protocol(name, ranks, budget());
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().kind << ": " << r.violations.front().message
      << "\nschedule: " << r.violations.front().schedule;
  EXPECT_TRUE(r.complete) << "state space not exhausted: " << r.execs
                          << " execs, " << r.seconds << "s";
  EXPECT_EQ(r.truncated, 0);
}

std::vector<std::tuple<std::string, int>> clean_cases() {
  std::vector<std::tuple<std::string, int>> cases;
  for (const auto& name : mc::protocol_names())
    for (int n : {2, 3})
      if (mc::protocol_supports(name, n)) cases.emplace_back(name, n);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, McProtocolClean,
                         ::testing::ValuesIn(clean_cases()),
                         [](const auto& i) {
                           return std::get<0>(i.param) + "_n" +
                                  std::to_string(std::get<1>(i.param));
                         });

// ---------------------------------------------------------------------------
// 3. Mutation table: every seeded weakening is caught and replayable
// ---------------------------------------------------------------------------

class McMutation : public ::testing::TestWithParam<mc::Mutation> {};

TEST_P(McMutation, CaughtWithReplayableCounterexample) {
  const mc::Mutation& m = GetParam();
  const mc::Result found = mc::check_mutation(m, budget());
  ASSERT_TRUE(found.caught())
      << mc::weak_point_name(m.point) << " weakening escaped ("
      << found.execs << " execs, complete=" << found.complete << ")";
  const mc::Violation& v = found.violations.front();
  ASSERT_FALSE(v.schedule.empty());

  // The schedule must reproduce the violation deterministically, twice.
  mc::Options opt = budget();
  opt.mutation = m.point;
  for (int round = 0; round < 2; ++round) {
    const mc::Result rep =
        mc::replay(mc::protocol_spec(m.protocol, m.nthreads), v.schedule, opt);
    ASSERT_TRUE(rep.caught()) << "replay round " << round << " of "
                              << mc::weak_point_name(m.point) << " was clean";
    EXPECT_EQ(rep.violations.front().kind, v.kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Table, McMutation,
                         ::testing::ValuesIn(mc::mutation_table()),
                         [](const auto& i) {
                           return std::string(
                               mc::weak_point_name(i.param.point));
                         });

TEST(McMutationTable, CoversEveryWeakPoint) {
  // kCount_ - 1 seedable points (none excluded); each must appear exactly
  // once so a new WeakPoint cannot land without a harness that catches it.
  const auto& table = mc::mutation_table();
  ASSERT_EQ(table.size(),
            static_cast<std::size_t>(mc::WeakPoint::kCount_) - 1);
  std::vector<bool> seen(static_cast<std::size_t>(mc::WeakPoint::kCount_));
  for (const auto& m : table) {
    const auto idx = static_cast<std::size_t>(m.point);
    EXPECT_FALSE(seen[idx]) << mc::weak_point_name(m.point) << " duplicated";
    seen[idx] = true;
  }
}

// The fold allreduce skips the trailing barrier only because its stage
// alternates: with a single stage the next round's copy-in overlaps the
// previous round's fold, and the checker must produce a counterexample
// that replays deterministically.
TEST(McFold, SingleStageFoldIsCaughtWithReplayableCounterexample) {
  mc::clear_labels();
  const mc::Result found = mc::explore(mc::fold_spec(2, 1), budget());
  ASSERT_TRUE(found.caught()) << found.execs << " execs, complete="
                              << found.complete;
  const mc::Violation& v = found.violations.front();
  ASSERT_FALSE(v.schedule.empty());
  for (int round = 0; round < 2; ++round) {
    const mc::Result rep =
        mc::replay(mc::fold_spec(2, 1), v.schedule, budget());
    ASSERT_TRUE(rep.caught()) << "replay round " << round << " was clean";
    EXPECT_EQ(rep.violations.front().kind, v.kind);
  }
  mc::clear_labels();
}

// The direct allreduce's trailing barrier is what keeps a returning rank
// from reusing its receive buffer while peers still read it (pull) or have
// not yet pushed into it (push).  Dropping it must produce a counterexample
// that replays deterministically, for both schedules.
TEST(McDirect, DroppedTrailingBarrierIsCaughtWithReplayableCounterexample) {
  for (const bool push : {false, true}) {
    mc::clear_labels();
    const mc::Result found =
        mc::explore(mc::direct_spec(2, push, /*trailing_barrier=*/false),
                    budget());
    ASSERT_TRUE(found.caught()) << (push ? "push: " : "pull: ")
                                << found.execs << " execs, complete="
                                << found.complete;
    const mc::Violation& v = found.violations.front();
    ASSERT_FALSE(v.schedule.empty());
    for (int round = 0; round < 2; ++round) {
      const mc::Result rep = mc::replay(
          mc::direct_spec(2, push, /*trailing_barrier=*/false), v.schedule,
          budget());
      ASSERT_TRUE(rep.caught()) << (push ? "push" : "pull") << " replay round "
                                << round << " was clean";
      EXPECT_EQ(rep.violations.front().kind, v.kind);
    }
  }
  mc::clear_labels();
}

// The direct reduce_scatter's trailing barrier keeps a returning rank from
// refilling its send buffer while a peer still reduces from it; dropping
// it must produce a counterexample that replays deterministically.
TEST(McDirectScatter, DroppedTrailingBarrierIsCaughtWithReplayableCounterexample) {
  mc::clear_labels();
  const mc::Result found = mc::explore(
      mc::direct_scatter_spec(2, /*trailing_barrier=*/false), budget());
  ASSERT_TRUE(found.caught()) << found.execs << " execs, complete="
                              << found.complete;
  const mc::Violation& v = found.violations.front();
  ASSERT_FALSE(v.schedule.empty());
  for (int round = 0; round < 2; ++round) {
    const mc::Result rep = mc::replay(
        mc::direct_scatter_spec(2, /*trailing_barrier=*/false), v.schedule,
        budget());
    ASSERT_TRUE(rep.caught()) << "replay round " << round << " was clean";
    EXPECT_EQ(rep.violations.front().kind, v.kind);
  }
  mc::clear_labels();
}

// The counterexample replay with the flight recorder attached must not
// perturb the schedule (same violation) and must emit the PR-5 flight JSON.
TEST(McFlight, CounterexampleReplayYieldsFlightDump) {
  const mc::Mutation m{mc::WeakPoint::step_publish_release, "flags", 2};
  const mc::Result found = mc::check_mutation(m, budget());
  ASSERT_TRUE(found.caught());
  const std::string json = mc::counterexample_flight(
      m.protocol, m.nthreads, found.violations.front().schedule, m.point);
  EXPECT_NE(json.find("yhccl-flight/1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fault\""), std::string::npos) << json;
  EXPECT_NE(json.find("assert"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ranks\""), std::string::npos) << json;
}

}  // namespace
