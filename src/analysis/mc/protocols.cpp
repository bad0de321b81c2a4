#ifdef YHCCL_MC

#include "yhccl/mc/protocols.hpp"

#include <unistd.h>

#include <cstring>
#include <memory>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/runtime/channel.hpp"
#include "yhccl/runtime/plan_registry.hpp"
#include "yhccl/runtime/remote_access.hpp"
#include "yhccl/runtime/sync.hpp"
#include "yhccl/trace/export.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::mc {

namespace {

using yhccl::analysis::hb_read;
using yhccl::analysis::hb_write;

// ---------------------------------------------------------------------------
// flags: step_publish / spin_wait_ge payload visibility
// ---------------------------------------------------------------------------

Spec flags_spec(int n) {
  struct St {
    rt::PaddedFlag flag;
    mc::atomic<std::uint64_t> payload{0};
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  s.reset = [st] {
    st->flag.v.store(0, std::memory_order_relaxed);
    st->payload.store(0, std::memory_order_relaxed);
    set_label(&st->flag.v, sizeof st->flag.v, "step-flag");
    set_label(&st->payload, sizeof st->payload, "payload");
  };
  s.body = [st](int r) {
    if (r == 0) {
      st->payload.store(42, std::memory_order_relaxed);
      rt::flag_publish(st->flag, 1);
    } else {
      rt::spin_wait_ge(st->flag.v, 1);
      require(st->payload.load(std::memory_order_relaxed) == 42,
              "progress flag observed without its payload");
    }
  };
  return s;
}

// ---------------------------------------------------------------------------
// barrier / dissemination: two write-barrier-read-barrier episodes.  The
// trailing barrier of each episode fences the reads from the next episode's
// writes, so a correct barrier admits exactly one value per (episode, slot).
// ---------------------------------------------------------------------------

template <class St, class Arrive>
void barrier_episodes(const std::shared_ptr<St>& st, int n, int r,
                      Arrive&& arrive) {
  // Two episodes with a trailing barrier catch cross-epoch leaks (a rank
  // racing ahead into the next round).  That depth is exhaustively explored
  // at 2 ranks; at >= 3 a single write-arrive-read round keeps the state
  // space within the CI budget while still covering the n-rank release.
  const std::uint64_t episodes = n == 2 ? 2 : 1;
  for (std::uint64_t e = 0; e < episodes; ++e) {
    st->slot[r].store(100 * e + 10 + static_cast<std::uint64_t>(r),
                      std::memory_order_relaxed);
    arrive();
    for (int q = 0; q < n; ++q)
      require(st->slot[q].load(std::memory_order_relaxed) ==
                  100 * e + 10 + static_cast<std::uint64_t>(q),
              "barrier admitted a stale or early episode value");
    if (n == 2) arrive();
  }
}

Spec barrier_spec(int n) {
  struct St {
    rt::BarrierState bar;
    std::uint32_t sense[4];
    mc::atomic<std::uint64_t> slot[4];
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  s.reset = [st, n] {
    rt::barrier_init(st->bar, static_cast<std::uint32_t>(n));
    for (int r = 0; r < 4; ++r) {
      st->sense[r] = 0;
      st->slot[r].store(0, std::memory_order_relaxed);
    }
    set_label(&st->bar.arrived, sizeof st->bar.arrived, "arrived");
    set_label(&st->bar.sense, sizeof st->bar.sense, "sense");
    set_label(st->slot, sizeof st->slot, "episode-slot");
  };
  s.body = [st, n](int r) {
    barrier_episodes(st, n, r,
                     [&] { rt::barrier_arrive(st->bar, st->sense[r]); });
  };
  return s;
}

Spec dissemination_spec(int n) {
  struct St {
    rt::DisseminationBarrierState bar;
    rt::DisseminationToken tok[4];
    mc::atomic<std::uint64_t> slot[4];
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  s.reset = [st, n] {
    rt::dissemination_init(st->bar, static_cast<std::uint32_t>(n));
    // Only the flags the n-rank instance can touch need clearing.
    for (int round = 0; round < rt::DisseminationBarrierState::kMaxRounds;
         ++round)
      for (int r = 0; r < n; ++r)
        st->bar.flags[round][r].v.store(0, std::memory_order_relaxed);
    for (int r = 0; r < 4; ++r) {
      st->tok[r] = rt::DisseminationToken{};
      st->slot[r].store(0, std::memory_order_relaxed);
    }
    set_label(st->slot, sizeof st->slot, "episode-slot");
  };
  s.body = [st, n](int r) {
    barrier_episodes(st, n, r,
                     [&] { rt::dissemination_arrive(st->bar, r, st->tok[r]); });
  };
  return s;
}

// ---------------------------------------------------------------------------
// fifo: eager FIFO payload/meta publication and slot reuse.  Three messages
// over kSlots == 2 make the third push reuse slot 0, exercising the
// head-release (consumer-frees-slot) edge; 3 ranks relay through a second
// channel so the middle rank runs both protocol roles.
// ---------------------------------------------------------------------------

constexpr std::size_t kFifoChunk = 8;

struct FifoSt {
  rt::FifoChannel ch01, ch12;
  alignas(8) std::byte data01[rt::FifoChannel::kSlots * kFifoChunk];
  alignas(8) std::byte data12[rt::FifoChannel::kSlots * kFifoChunk];
  std::uint64_t vals[3];
};

void fifo_reset_channel(rt::FifoChannel& ch) {
  ch.head.store(0, std::memory_order_relaxed);
  ch.tail.store(0, std::memory_order_relaxed);
  ch.rndv_posted.store(0, std::memory_order_relaxed);
  ch.rndv_done.store(0, std::memory_order_relaxed);
  for (auto& m : ch.meta) m = {};
  ch.rndv_ptr = nullptr;
  ch.rndv_bytes = 0;
  ch.rndv_pid = 0;
}

Spec fifo_spec(int n) {
  auto st = std::make_shared<FifoSt>();
  Spec s;
  s.nthreads = n;
  const int nmsg = n == 2 ? 3 : 2;  // 3 ranks relay: keep the space bounded
  s.reset = [st] {
    fifo_reset_channel(st->ch01);
    fifo_reset_channel(st->ch12);
    std::memset(st->data01, 0, sizeof st->data01);
    std::memset(st->data12, 0, sizeof st->data12);
    st->vals[0] = 0xA1;
    st->vals[1] = 0xA2;
    st->vals[2] = 0xA3;
    set_label(&st->ch01.head, sizeof st->ch01.head, "fifo01.head");
    set_label(&st->ch01.tail, sizeof st->ch01.tail, "fifo01.tail");
    set_label(&st->ch12.head, sizeof st->ch12.head, "fifo12.head");
    set_label(&st->ch12.tail, sizeof st->ch12.tail, "fifo12.tail");
  };
  s.body = [st, n, nmsg](int r) {
    constexpr int kTag = 7;
    if (r == 0) {
      for (int i = 0; i < nmsg; ++i)
        rt::fifo_push_chunk(st->ch01, st->data01, kFifoChunk, &st->vals[i],
                            sizeof(std::uint64_t), kTag);
      return;
    }
    const bool last = r == n - 1;
    auto& ch = r == 1 ? st->ch01 : st->ch12;
    auto* data = r == 1 ? st->data01 : st->data12;
    for (int i = 0; i < nmsg; ++i) {
      std::uint64_t v = 0;
      const std::size_t len =
          rt::fifo_pop_chunk(ch, data, kFifoChunk, &v, sizeof v, kTag);
      require(len == sizeof v, "fifo chunk length corrupted");
      if (last)
        require(v == st->vals[i], "fifo delivered a stale or torn payload");
      else
        rt::fifo_push_chunk(st->ch12, st->data12, kFifoChunk, &v, sizeof v,
                            kTag);
    }
  };
  return s;
}

// ---------------------------------------------------------------------------
// rndv: rendezvous descriptor publication + sender buffer reuse.  Two posts
// over one reused payload buffer: the drained edge must order the receiver's
// pull before the sender's rewrite.  3 ranks chain 0 -> 1 -> 2.
// ---------------------------------------------------------------------------

Spec rndv_spec(int n) {
  struct St {
    rt::FifoChannel ch01, ch12;
    std::uint64_t payload0;  // rank 0's buffer, reused across both posts
    std::uint64_t relay1;    // rank 1's buffer in the 3-rank chain
    std::uint64_t out[2];
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  const int nposts = n == 2 ? 2 : 1;
  s.reset = [st] {
    fifo_reset_channel(st->ch01);
    fifo_reset_channel(st->ch12);
    st->payload0 = 0;
    st->relay1 = 0;
    st->out[0] = st->out[1] = 0;
    set_label(&st->ch01.rndv_posted, sizeof st->ch01.rndv_posted,
              "rndv01.posted");
    set_label(&st->ch01.rndv_done, sizeof st->ch01.rndv_done, "rndv01.done");
  };
  s.body = [st, n, nposts](int r) {
    const std::uint64_t vals[2] = {0xAB, 0xCD};
    if (r == 0) {
      for (int i = 0; i < nposts; ++i) {
        hb_write(&st->payload0, sizeof st->payload0, "rndv payload");
        st->payload0 = vals[i];
        const std::uint64_t t =
            rt::rndv_post(st->ch01, &st->payload0, sizeof st->payload0,
                          getpid());
        rt::rndv_wait_drained(st->ch01, t);
      }
      return;
    }
    if (r == 1 && n == 3) {
      rt::rndv_pull(st->ch01, &st->relay1, sizeof st->relay1,
                    rt::RemoteMode::direct);
      const std::uint64_t t =
          rt::rndv_post(st->ch12, &st->relay1, sizeof st->relay1, getpid());
      rt::rndv_wait_drained(st->ch12, t);
      return;
    }
    auto& ch = n == 2 ? st->ch01 : st->ch12;
    for (int i = 0; i < nposts; ++i) {
      rt::rndv_pull(ch, &st->out[i], sizeof st->out[i],
                    rt::RemoteMode::direct);
      require(st->out[i] == vals[i],
              "rendezvous pull observed a stale or torn payload");
    }
  };
  return s;
}

// ---------------------------------------------------------------------------
// pagelock: the CMA page-lock must order critical sections (lock acquire
// joins the previous unlock release); the guarded counter is plain data, so
// a missing edge is a data race on it.
// ---------------------------------------------------------------------------

Spec pagelock_spec(int n) {
  struct St {
    rt::PageLockTable locks;
    std::uint64_t counter;
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  s.reset = [st] {
    st->locks.reset();
    st->counter = 0;
    set_label(&st->counter, sizeof st->counter, "guarded-counter");
  };
  s.body = [st](int) {
    st->locks.lock(0);
    hb_read(&st->counter, sizeof st->counter, "guarded counter");
    hb_write(&st->counter, sizeof st->counter, "guarded counter");
    ++st->counter;
    st->locks.unlock(0);
  };
  s.check_final = [st, n] {
    require(st->counter == static_cast<std::uint64_t>(n),
            "page lock lost an increment");
  };
  return s;
}

// ---------------------------------------------------------------------------
// seqlock: RemoteWindow readers must only ever observe one of the fully
// published descriptors, never a torn mix.  Two publishes make every mixed
// tuple distinguishable from the allowed ones.
// ---------------------------------------------------------------------------

Spec seqlock_spec(int n) {
  struct St {
    rt::RemoteWindow w;
    char bufa, bufb;
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  s.reset = [st] {
    st->w.seq.store(0, std::memory_order_relaxed);
    st->w.ptr.store(nullptr, std::memory_order_relaxed);
    st->w.bytes.store(0, std::memory_order_relaxed);
    st->w.pid.store(0, std::memory_order_relaxed);
    set_label(&st->w.seq, sizeof st->w.seq, "window.seq");
    set_label(&st->w.ptr, sizeof st->w.ptr, "window.ptr");
    set_label(&st->w.bytes, sizeof st->w.bytes, "window.bytes");
    set_label(&st->w.pid, sizeof st->w.pid, "window.pid");
  };
  s.body = [st, n](int r) {
    // Two publishes make every torn mix distinguishable from the allowed
    // tuples; the second is exhaustively explored at one reader (n == 2)
    // and dropped at two readers to bound the space.
    const bool republish = n == 2;
    if (r == 0) {
      rt::window_publish(st->w, &st->bufa, 1, 1);
      if (republish) rt::window_publish(st->w, &st->bufb, 2, 2);
      return;
    }
    const rt::RemoteBuf rb = rt::window_read(st->w);
    const bool initial = rb.ptr == nullptr && rb.bytes == 0 && rb.pid == 0;
    const bool first = rb.ptr == &st->bufa && rb.bytes == 1 && rb.pid == 1;
    const bool second = republish && rb.ptr == &st->bufb && rb.bytes == 2 &&
                        rb.pid == 2;
    require(initial || first || second,
            "seqlock reader returned a torn descriptor");
  };
  return s;
}

// ---------------------------------------------------------------------------
// plan: registry claim must publish the slot's fields with the hash CAS,
// and a plan word committed before a barrier must be visible after it.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kPlanHash = 0x1234567;
constexpr std::uint64_t kPlanFields = 0xBEEF;
constexpr std::uint64_t kPlanWord = 0xCAFE;

Spec plan_spec(int n) {
  struct St {
    std::unique_ptr<std::byte[]> mem;
    rt::PlanRegistry* reg = nullptr;
    rt::BarrierState bar;
    std::uint32_t sense[4];
  };
  auto st = std::make_shared<St>();
  const std::uint32_t slots = 16;  // the registry's minimum (== probe window)
  st->mem = std::make_unique<std::byte[]>(
      rt::PlanRegistry::required_bytes(slots));
  Spec s;
  s.nthreads = n;
  s.reset = [st, slots, n] {
    std::memset(st->mem.get(), 0, rt::PlanRegistry::required_bytes(slots));
    st->reg = rt::PlanRegistry::create(st->mem.get(),
                                       rt::PlanRegistry::required_bytes(slots),
                                       slots, 0);
    rt::barrier_init(st->bar, static_cast<std::uint32_t>(n));
    for (auto& se : st->sense) se = 0;
  };
  s.body = [st, n](int r) {
    rt::PlanSlot* slot = nullptr;
    if (r < (n == 2 ? 1 : 2)) {
      // Claimers race the insert CAS with identical fields; the winner
      // commits the plan word before the barrier.
      bool inserted = false;
      slot = st->reg->acquire(kPlanHash, kPlanFields, &inserted);
      require(slot != nullptr, "plan registry probe window exhausted");
      if (inserted)
        slot->plan.store(kPlanWord, std::memory_order_release);
    } else {
      while ((slot = st->reg->find(kPlanHash)) == nullptr) spin_pause();
    }
    require(slot->fields.load(std::memory_order_relaxed) == kPlanFields,
            "plan slot hash visible without its fields");
    rt::barrier_arrive(st->bar, st->sense[r]);
    require(slot->plan.load(std::memory_order_relaxed) == kPlanWord,
            "committed plan word invisible after the trailing barrier");
  };
  return s;
}

// ---------------------------------------------------------------------------
// quarantine: message-passing shape of PlanRegistry::quarantine.  The
// committed plan word is cleared *before* the quarantine mark is raised
// (release CAS), so any rank that observes the mark (acquire) must also
// observe the cleared word — never the poisoned plan being pinned out of
// rotation.  Weakening the mark's order lets a reader honor the quarantine
// while still serving the stale word it was meant to bury.
// ---------------------------------------------------------------------------

Spec quarantine_spec(int n) {
  struct St {
    std::unique_ptr<std::byte[]> mem;
    rt::PlanRegistry* reg = nullptr;
  };
  auto st = std::make_shared<St>();
  const std::uint32_t slots = 16;  // the registry's minimum (== probe window)
  st->mem = std::make_unique<std::byte[]>(
      rt::PlanRegistry::required_bytes(slots));
  Spec s;
  s.nthreads = n;
  s.reset = [st, slots] {
    std::memset(st->mem.get(), 0, rt::PlanRegistry::required_bytes(slots));
    st->reg = rt::PlanRegistry::create(st->mem.get(),
                                       rt::PlanRegistry::required_bytes(slots),
                                       slots, 0);
  };
  s.body = [st](int r) {
    if (r == 0) {
      bool inserted = false;
      rt::PlanSlot* slot = st->reg->acquire(kPlanHash, kPlanFields, &inserted);
      require(slot != nullptr, "plan registry probe window exhausted");
      slot->plan.store(kPlanWord, std::memory_order_release);
      require(st->reg->quarantine(kPlanHash, /*until_epoch=*/5),
              "quarantine refused a cached key");
      return;
    }
    rt::PlanSlot* slot = nullptr;
    while ((slot = st->reg->find(kPlanHash)) == nullptr) spin_pause();
    while (!rt::PlanRegistry::quarantined(*slot, /*epoch=*/0)) spin_pause();
    require(slot->plan.load(std::memory_order_relaxed) == 0,
            "quarantine mark observed with the buried plan word");
  };
  return s;
}

// ---------------------------------------------------------------------------
// ring: the trace ring's counter release must publish the 32-byte slot
// record to a concurrent harvester (count/read pair).
// ---------------------------------------------------------------------------

Spec ring_spec(int n) {
  struct St {
    std::unique_ptr<std::byte[]> mem;
    trace::TraceBuffer* buf = nullptr;
  };
  auto st = std::make_shared<St>();
  constexpr std::uint32_t kSlots = 4;
  const std::size_t bytes = trace::TraceBuffer::required_bytes(1, kSlots);
  st->mem = std::make_unique<std::byte[]>(bytes);
  Spec s;
  s.nthreads = n;
  s.reset = [st, bytes] {
    std::memset(st->mem.get(), 0, bytes);
    st->buf = trace::TraceBuffer::create(st->mem.get(), bytes, 1, kSlots,
                                         trace::Mode::spans);
  };
  s.body = [st](int r) {
    if (r == 0) {
      for (std::uint64_t i = 0; i < 2; ++i) {
        trace::Rec rec{};
        rec.t0 = rec.t1 = i + 1;
        rec.arg = 111 * (i + 1);
        st->buf->push(0, rec);
      }
      return;
    }
    while (st->buf->count(0) < 2) spin_pause();
    for (std::uint64_t i = 0; i < 2; ++i) {
      const trace::Rec rec = st->buf->read(0, i);
      require(rec.arg == 111 * (i + 1), "trace ring slot corrupted");
    }
  };
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// fold: the stage protocol of coll::fold_allreduce over the production
// barrier.  Back-to-back rounds of write-my-slot, one barrier, read every
// slot — no trailing barrier.  The stage alternates on a per-rank call
// counter, so round k+2 rewrites round k's stage only after round k+1's
// barrier, which no rank reaches before it finished reading round k.  The
// slots are plain memory, as in the fold: a rewrite that can overlap a
// read is a race even when the values happen to match.
// ---------------------------------------------------------------------------

Spec fold_spec(int n, int nstages) {
  YHCCL_REQUIRE(n >= 2 && n <= 3 && (nstages == 1 || nstages == 2),
                "fold spec: 2..3 ranks over 1 or 2 stages");
  struct St {
    rt::BarrierState bar;
    std::uint32_t sense[3];
    std::uint64_t fold_seq[3];  // RankCtx::next_fold_stage's counter
    std::uint64_t stage[2][3];
  };
  auto st = std::make_shared<St>();
  Spec s;
  s.nthreads = n;
  s.reset = [st, n] {
    rt::barrier_init(st->bar, static_cast<std::uint32_t>(n));
    for (int r = 0; r < 3; ++r) {
      st->sense[r] = 0;
      st->fold_seq[r] = 0;
      st->stage[0][r] = st->stage[1][r] = 0;
    }
    set_label(&st->bar.arrived, sizeof st->bar.arrived, "arrived");
    set_label(&st->bar.sense, sizeof st->bar.sense, "sense");
    set_label(st->stage, sizeof st->stage, "fold-stage");
  };
  // Three rounds at 2 ranks, so the third reuses the first round's stage;
  // at 3 ranks (a third round exceeds 200 000 executions) two rounds keep
  // the space within the CI budget while still covering the 3-rank release.
  const std::uint64_t rounds = n == 2 ? 3 : 2;
  s.body = [st, n, nstages, rounds](int r) {
    for (std::uint64_t k = 0; k < rounds; ++k) {
      std::uint64_t* slots =
          st->stage[st->fold_seq[r]++ % static_cast<std::uint64_t>(nstages)];
      hb_write(&slots[r], sizeof slots[r], "fold stage (copy-in)");
      slots[r] = 100 * k + 10 + static_cast<std::uint64_t>(r);
      rt::barrier_arrive(st->bar, st->sense[r]);
      for (int q = 0; q < n; ++q) {
        hb_read(&slots[q], sizeof slots[q], "fold stage (fold)");
        require(slots[q] == 100 * k + 10 + static_cast<std::uint64_t>(q),
                "fold read a slot the next round already rewrote");
      }
    }
  };
  return s;
}

// ---------------------------------------------------------------------------
// direct: the block ownership protocol of coll::direct_allreduce over the
// production barrier, one element per block.  Each round the caller fills
// its send buffer, every rank passes barrier 1, then rank r reduces block r
// of every send buffer and
//   pull: writes it to its own recv, passes barrier 2 and copies every
//         other block b from rank b's recv;
//   push: writes it to block r of every rank's recv;
// then the trailing barrier.  After the call the caller checks its recv
// and poisons it, as a benchmark that reuses its output buffer does.  The
// trailing barrier is what keeps a returning rank from poisoning a block
// a peer still reads (pull) or reading a block a peer has not yet pushed
// (push); without it the checker must find the race.  RemoteWindow
// publication has its own harness (seqlock), so the buffers here are fixed.
// ---------------------------------------------------------------------------

Spec direct_spec(int n, bool push, bool trailing_barrier) {
  YHCCL_REQUIRE(n >= 2 && n <= 3, "direct spec: 2..3 ranks");
  struct St {
    rt::BarrierState bar;
    std::uint32_t sense[3];
    std::uint64_t send[3][3];  // send[rank][block]
    std::uint64_t recv[3][3];  // recv[rank][block]
  };
  auto st = std::make_shared<St>();
  const auto value = [](std::uint64_t k, int q, int b) {
    return 100 * k + 10 * static_cast<std::uint64_t>(q) +
           static_cast<std::uint64_t>(b) + 1;
  };
  // Two rounds at 2 ranks cover a round's buffers being refilled for the
  // next.  Three barrier episodes at 3 ranks exceed 200 000 executions, so
  // there one round runs on buffers filled before the ranks start: barrier
  // 1 then orders nothing and is left out.
  const bool prefilled = n == 3;
  const std::uint64_t rounds = prefilled ? 1 : 2;
  Spec s;
  s.nthreads = n;
  s.reset = [st, n, value, prefilled] {
    rt::barrier_init(st->bar, static_cast<std::uint32_t>(n));
    std::memset(st->sense, 0, sizeof st->sense);
    std::memset(st->send, 0, sizeof st->send);
    std::memset(st->recv, 0, sizeof st->recv);
    if (prefilled)
      for (int q = 0; q < n; ++q)
        for (int b = 0; b < n; ++b) st->send[q][b] = value(0, q, b);
    set_label(&st->bar.arrived, sizeof st->bar.arrived, "arrived");
    set_label(&st->bar.sense, sizeof st->bar.sense, "sense");
    set_label(st->send, sizeof st->send, "direct send");
    set_label(st->recv, sizeof st->recv, "direct recv");
  };
  s.body = [st, n, push, trailing_barrier, value, prefilled, rounds](int r) {
    const auto arrive = [&] { rt::barrier_arrive(st->bar, st->sense[r]); };
    for (std::uint64_t k = 0; k < rounds; ++k) {
      if (!prefilled) {
        for (int b = 0; b < n; ++b) {
          hb_write(&st->send[r][b], sizeof(std::uint64_t), "caller fill");
          st->send[r][b] = value(k, r, b);
        }
        arrive();  // barrier 1: every buffer is published and filled
      }
      std::uint64_t acc = 0;
      for (int q = 0; q < n; ++q) {
        hb_read(&st->send[q][r], sizeof(std::uint64_t), "direct reduce");
        acc += st->send[q][r];
      }
      for (int i = 0; i < (push ? n : 1); ++i) {
        const int q = (r + i) % n;
        hb_write(&st->recv[q][r], sizeof(std::uint64_t),
                 push ? "direct push" : "direct reduce");
        st->recv[q][r] = acc;
      }
      if (!push) {
        arrive();  // barrier 2: every block is reduced
        for (int b = 0; b < n; ++b) {
          if (b == r) continue;
          hb_read(&st->recv[b][b], sizeof(std::uint64_t), "direct gather");
          hb_write(&st->recv[r][b], sizeof(std::uint64_t), "direct gather");
          st->recv[r][b] = st->recv[b][b];
        }
      }
      if (trailing_barrier) arrive();
      for (int b = 0; b < n; ++b) {
        std::uint64_t want = 0;
        for (int q = 0; q < n; ++q) want += value(k, q, b);
        hb_read(&st->recv[r][b], sizeof(std::uint64_t), "caller check");
        require(st->recv[r][b] == want,
                "direct returned before its receive buffer was complete");
      }
      for (int b = 0; b < n; ++b) {
        hb_write(&st->recv[r][b], sizeof(std::uint64_t), "caller poison");
        st->recv[r][b] = 0;
      }
    }
  };
  return s;
}

// ---------------------------------------------------------------------------
// direct_scatter: the block ownership protocol of
// coll::direct_reduce_scatter over the production barrier, one element per
// block.  Each round the caller fills its send buffer, every rank passes
// barrier 1, rank r reduces block r of every send buffer into its own
// recv, then the trailing barrier.  The caller then checks its recv and
// refills its send buffer for the next round.  The recv is private to its
// owner; the trailing barrier is what keeps a returning rank from
// refilling a send block a peer still reads, which the checker must find
// without it.  Buffers are fixed, as in the direct harness.
// ---------------------------------------------------------------------------

Spec direct_scatter_spec(int n, bool trailing_barrier) {
  YHCCL_REQUIRE(n >= 2 && n <= 3, "direct_scatter spec: 2..3 ranks");
  struct St {
    rt::BarrierState bar;
    std::uint32_t sense[3];
    std::uint64_t send[3][3];  // send[rank][block]
    std::uint64_t recv[3];
  };
  auto st = std::make_shared<St>();
  const auto value = [](std::uint64_t k, int q, int b) {
    return 100 * k + 10 * static_cast<std::uint64_t>(q) +
           static_cast<std::uint64_t>(b) + 1;
  };
  // As in the direct harness: two rounds at 2 ranks; at 3 ranks one round
  // over buffers filled before the ranks start, without barrier 1.
  const bool prefilled = n == 3;
  const std::uint64_t rounds = prefilled ? 1 : 2;
  Spec s;
  s.nthreads = n;
  s.reset = [st, n, value, prefilled] {
    rt::barrier_init(st->bar, static_cast<std::uint32_t>(n));
    std::memset(st->sense, 0, sizeof st->sense);
    std::memset(st->send, 0, sizeof st->send);
    std::memset(st->recv, 0, sizeof st->recv);
    if (prefilled)
      for (int q = 0; q < n; ++q)
        for (int b = 0; b < n; ++b) st->send[q][b] = value(0, q, b);
    set_label(&st->bar.arrived, sizeof st->bar.arrived, "arrived");
    set_label(&st->bar.sense, sizeof st->bar.sense, "sense");
    set_label(st->send, sizeof st->send, "direct_scatter send");
    set_label(st->recv, sizeof st->recv, "direct_scatter recv");
  };
  s.body = [st, n, trailing_barrier, value, prefilled, rounds](int r) {
    const auto arrive = [&] { rt::barrier_arrive(st->bar, st->sense[r]); };
    for (std::uint64_t k = 0; k < rounds; ++k) {
      if (!prefilled) {
        for (int b = 0; b < n; ++b) {
          hb_write(&st->send[r][b], sizeof(std::uint64_t), "caller fill");
          st->send[r][b] = value(k, r, b);
        }
        arrive();  // barrier 1: every buffer is published and filled
      }
      std::uint64_t acc = 0;
      for (int q = 0; q < n; ++q) {
        hb_read(&st->send[q][r], sizeof(std::uint64_t), "direct reduce");
        acc += st->send[q][r];
      }
      hb_write(&st->recv[r], sizeof(std::uint64_t), "direct reduce");
      st->recv[r] = acc;
      if (trailing_barrier) arrive();
      std::uint64_t want = 0;
      for (int q = 0; q < n; ++q) want += value(k, q, r);
      hb_read(&st->recv[r], sizeof(std::uint64_t), "caller check");
      require(st->recv[r] == want, "direct_scatter reduced a refilled block");
    }
    // The caller reuses its send buffer after the call returns.
    for (int b = 0; b < n; ++b) {
      hb_write(&st->send[r][b], sizeof(std::uint64_t), "caller refill");
      st->send[r][b] = 0;
    }
  };
  return s;
}

const std::vector<std::string>& protocol_names() {
  static const std::vector<std::string> names = {
      "flags",      "barrier",     "dissemination", "fifo",
      "rndv",       "pagelock",    "seqlock",       "plan",
      "quarantine", "ring",        "fold",          "direct_pull",
      "direct_push", "direct_scatter"};
  return names;
}

bool protocol_supports(const std::string& name, int nthreads) {
  if (nthreads < 2) return false;
  if (name == "fifo" || name == "rndv" || name == "ring" || name == "plan" ||
      name == "seqlock" || name == "quarantine" || name == "fold" ||
      name == "direct_pull" || name == "direct_push" ||
      name == "direct_scatter")
    return nthreads <= 3;
  return nthreads <= 4;
}

Spec protocol_spec(const std::string& name, int nthreads) {
  YHCCL_REQUIRE(protocol_supports(name, nthreads),
                "unknown model-checker protocol or unsupported rank count");
  if (name == "flags") return flags_spec(nthreads);
  if (name == "barrier") return barrier_spec(nthreads);
  if (name == "dissemination") return dissemination_spec(nthreads);
  if (name == "fifo") return fifo_spec(nthreads);
  if (name == "rndv") return rndv_spec(nthreads);
  if (name == "pagelock") return pagelock_spec(nthreads);
  if (name == "seqlock") return seqlock_spec(nthreads);
  if (name == "plan") return plan_spec(nthreads);
  if (name == "quarantine") return quarantine_spec(nthreads);
  if (name == "fold") return fold_spec(nthreads, 2);
  if (name == "direct_pull") return direct_spec(nthreads, false, true);
  if (name == "direct_push") return direct_spec(nthreads, true, true);
  if (name == "direct_scatter") return direct_scatter_spec(nthreads, true);
  return ring_spec(nthreads);
}

Result check_protocol(const std::string& name, int nthreads,
                      const Options& opt) {
  clear_labels();
  const Result r = explore(protocol_spec(name, nthreads), opt);
  clear_labels();
  return r;
}

const std::vector<Mutation>& mutation_table() {
  static const std::vector<Mutation> table = {
      {WeakPoint::barrier_join_rmw, "barrier", 2},
      {WeakPoint::barrier_sense_release, "barrier", 2},
      {WeakPoint::dissem_signal_rmw, "dissemination", 2},
      {WeakPoint::spin_acquire, "flags", 2},
      {WeakPoint::step_publish_release, "flags", 2},
      {WeakPoint::seqlock_writer_fence, "seqlock", 2},
      {WeakPoint::seqlock_commit_release, "seqlock", 2},
      {WeakPoint::seqlock_reader_fence, "seqlock", 2},
      {WeakPoint::fifo_tail_release, "fifo", 2},
      {WeakPoint::fifo_head_release, "fifo", 2},
      {WeakPoint::rndv_post_release, "rndv", 2},
      {WeakPoint::rndv_done_release, "rndv", 2},
      {WeakPoint::pagelock_acquire, "pagelock", 2},
      {WeakPoint::pagelock_release, "pagelock", 2},
      {WeakPoint::ring_push_release, "ring", 2},
      {WeakPoint::plan_claim_release, "plan", 2},
      {WeakPoint::quar_publish_release, "quarantine", 2},
  };
  return table;
}

Result check_mutation(const Mutation& m, Options opt) {
  opt.mutation = m.point;
  clear_labels();
  const Result r = explore(protocol_spec(m.protocol, m.nthreads), opt);
  clear_labels();
  return r;
}

std::string counterexample_flight(const std::string& protocol, int nthreads,
                                  const std::string& schedule,
                                  WeakPoint mutation) {
  const Spec spec = protocol_spec(protocol, nthreads);

  // One ring per model rank, outside the checker's jurisdiction: the
  // passthrough range keeps the recorder's own atomics off the schedule.
  constexpr std::uint32_t kSlots = 256;
  const std::size_t bytes =
      trace::TraceBuffer::required_bytes(nthreads, kSlots);
  auto mem = std::make_unique<std::byte[]>(bytes);
  trace::TraceBuffer* buf = trace::TraceBuffer::create(
      mem.get(), bytes, nthreads, kSlots, trace::Mode::flight);

  ReplayEnv env;
  env.passthrough = mem.get();
  env.passthrough_bytes = bytes;
  env.on_resume = [buf](int tid) {
    auto& c = trace::detail::tl_trace;
    if (tid < 0) {
      c = trace::detail::TraceCtx{};
    } else {
      c.buf = buf;
      c.ring = tid;
    }
  };

  Options opt = Options::from_env();
  opt.mutation = mutation;
  const Result r = replay(spec, schedule, opt, &env);
  trace::detail::tl_trace = trace::detail::TraceCtx{};

  trace::Harvest h(*buf);
  trace::FlightContext fc;
  fc.fault = r.violations.empty()
                 ? "schedule replayed clean"
                 : r.violations.front().kind + ": " +
                       r.violations.front().message;
  return h.flight_json(fc).dump(1);
}

}  // namespace yhccl::mc

#endif  // YHCCL_MC
