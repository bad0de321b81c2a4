#include "yhccl/runtime/team.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/common/fs.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/trace/export.hpp"

namespace yhccl::rt {

namespace {
constexpr std::size_t kPageAlign = 4096;

/// Satellite route into the watchdog: TeamConfig wins, then
/// $YHCCL_SYNC_TIMEOUT (strictly validated), else leave the process-wide
/// setting alone.
void apply_sync_timeout(const TeamConfig& cfg) {
  if (cfg.sync_timeout >= 0) {
    set_sync_timeout(cfg.sync_timeout);
    return;
  }
  const char* e = std::getenv("YHCCL_SYNC_TIMEOUT");
  if (e == nullptr || *e == '\0') return;
  char* end = nullptr;
  errno = 0;
  const double seconds = std::strtod(e, &end);
  YHCCL_REQUIRE(end != nullptr && *end == '\0' && errno == 0,
                "YHCCL_SYNC_TIMEOUT is not a number (seconds)");
  set_sync_timeout(seconds);
}

bool want_hb_checker(const TeamConfig& cfg) {
  switch (cfg.hb_check) {
    case HbMode::off: return false;
    case HbMode::on: return true;
    case HbMode::env: return analysis::hb_env_enabled();
  }
  return false;
}

/// Installs the checker context for the duration of one rank function and
/// raises if that run recorded new happens-before violations.
class HbRunScope {
 public:
  HbRunScope(analysis::HbChecker* chk, int rank) noexcept : chk_(chk) {
    if (chk_ != nullptr) {
      races_before_ = chk_->races();
      analysis::hb_set_context(chk_, rank);
    }
  }
  ~HbRunScope() { analysis::hb_set_context(nullptr, 0); }
  HbRunScope(const HbRunScope&) = delete;
  HbRunScope& operator=(const HbRunScope&) = delete;

  /// Call on the success path only (failing ranks already throw).
  void check() const {
    if (chk_ != nullptr && chk_->races() > races_before_)
      raise("hb checker: " + chk_->first_report());
  }

 private:
  analysis::HbChecker* chk_;
  std::uint64_t races_before_ = 0;
};

}  // namespace

Team::Team(TeamConfig cfg, bool forked_ranks)
    : cfg_(cfg),
      forked_(forked_ranks),
      caps_(caps_for(Topology(cfg.nranks, cfg.nsockets))) {
  YHCCL_REQUIRE(cfg_.nranks >= 1 && cfg_.nranks <= kMaxRanks,
                "nranks out of range");
  YHCCL_REQUIRE(cfg_.nsockets >= 1 && cfg_.nsockets <= kMaxSockets,
                "nsockets out of range");
  YHCCL_REQUIRE(cfg_.chunk_bytes >= 256, "pt2pt chunk too small");
  apply_sync_timeout(cfg_);
  fault_plan_ = FaultPlan::from_env();
  resilience_ = cfg_.resilience.resolved();
  nranks_ = cfg_.nranks;
  active_.resize(static_cast<std::size_t>(nranks_));
  std::iota(active_.begin(), active_.end(), 0);

  // All layout arithmetic below is overflow-checked: these sizes multiply
  // user-controlled knobs, and a silent wrap would map a too-small region
  // that every later bounds check trusts.
  const std::size_t p = static_cast<std::size_t>(cfg_.nranks);
  const std::size_t nchan = checked_mul(p, p, "channel count");
  const std::size_t chan_data =
      checked_mul(FifoChannel::kSlots, cfg_.chunk_bytes, "channel data");

  bool with_hb = want_hb_checker(cfg_);
  if (with_hb && cfg_.nranks > analysis::HbChecker::kMaxHbRanks) {
    std::fprintf(stderr,
                 "[yhccl hb] warning: team of %d ranks exceeds the "
                 "checker's %d-rank model; running unchecked\n",
                 cfg_.nranks, analysis::HbChecker::kMaxHbRanks);
    with_hb = false;
  }
  // The shared heap holds the caller's shared_heap_bytes plus the two fold
  // stages reserved from it below.
  heap_bytes_ = checked_add(cfg_.shared_heap_bytes, 2 * kFoldStageBytes,
                            "shared heap");
  // The checker shadows the two regions collective data flows through:
  // the scratch arena (slice buffers) and the persistent shared heap.
  const std::size_t hb_cells =
      analysis::HbChecker::ncells_for(cfg_.scratch_bytes) +
      analysis::HbChecker::ncells_for(heap_bytes_);
  const std::size_t hb_bytes =
      with_hb ? analysis::HbChecker::required_bytes(hb_cells) : 0;

  // Phase tracer: rings live in the same shared mapping so fork()ed ranks'
  // records survive their exit and the parent harvests them once each rank
  // has posted its completion.
  trace_mode_ = trace::resolve_mode(cfg_.trace);
  const std::uint32_t trace_slots =
      trace_mode_ == trace::Mode::off ? 0 : trace::slots_from_env();
  const std::size_t trace_bytes =
      trace_mode_ == trace::Mode::off
          ? 0
          : trace::TraceBuffer::required_bytes(cfg_.nranks, trace_slots);

  // Auto-tuner plan cache: one shared table per team so every rank of both
  // backends resolves collectives to the same cached plan (docs/tuning.md).
  tune_mode_ = resolve_tune_mode(cfg_.tune);
  const std::size_t plan_bytes = PlanRegistry::required_bytes(kPlanSlots);

  // Always-on metrics registry: per-rank counter/histogram slots in the
  // shared mapping, live-readable by the serve-mode sampler and yhccl_top
  // (docs/observability.md §6).  Off by default — no section is mapped.
  metrics_mode_ = metrics::resolve_mode(cfg_.metrics);
  const std::size_t metrics_bytes =
      metrics_mode_ == metrics::Mode::off
          ? 0
          : metrics::MetricsBuffer::required_bytes(cfg_.nranks);

  // Section payloads; each section starts page-aligned where the last ends.
  std::size_t bytes[kMaxSections] = {};
  const auto size = [&bytes](Section s, std::size_t b) {
    bytes[static_cast<int>(s)] = b;
  };
  size(Section::control, sizeof(TeamShared));
  size(Section::channels, checked_mul(nchan, sizeof(FifoChannel), "channels"));
  size(Section::chan_data, checked_mul(nchan, chan_data, "channel arenas"));
  size(Section::heap, heap_bytes_);
  size(Section::scratch, cfg_.scratch_bytes);
  size(Section::hb, hb_bytes);
  size(Section::trace, trace_bytes);
  size(Section::plans, plan_bytes);
  size(Section::metrics, metrics_bytes);
  for (int i = 0; i < kMaxSections; ++i)
    section_off_[i + 1] = checked_round_up(
        checked_add(section_off_[i], bytes[i], "section size"), kPageAlign,
        "section alignment");

  region_ = ShmRegion::create_anonymous(section_off_[kMaxSections]);
  shared_ = new (section(Section::control)) TeamShared();
  barrier_init(shared_->node_barrier, static_cast<std::uint32_t>(p));
  for (int s = 0; s < cfg_.nsockets; ++s)
    barrier_init(shared_->socket_barrier[s],
                 static_cast<std::uint32_t>(topo().socket_size(s)));
  for (FifoChannel& ch : channels()) new (&ch) FifoChannel();

  if (with_hb) {
    hb_ = analysis::HbChecker::create(section(Section::hb), hb_bytes,
                                      cfg_.nranks, hb_cells);
    hb_->add_region(section(Section::scratch), cfg_.scratch_bytes,
                    "coll-scratch");
    hb_->add_region(section(Section::heap), heap_bytes_, "shared-heap");
  }
  if (trace_mode_ != trace::Mode::off)
    trace_ = trace::TraceBuffer::create(section(Section::trace), trace_bytes,
                                        cfg_.nranks, trace_slots, trace_mode_);
  plans_ = PlanRegistry::create(section(Section::plans), plan_bytes,
                                kPlanSlots, tune_eps_mille_from_env());
  if (metrics_bytes != 0) {
    metrics_ = metrics::MetricsBuffer::create(section(Section::metrics),
                                              metrics_bytes, cfg_.nranks,
                                              metrics_mode_);
    metrics_fold_team();
  }

  for (auto*& stage : fold_stage_) stage = shared_alloc(kFoldStageBytes);
  stamp_sections();

  // Register the corrupt@<section> injection targets: pointers at the
  // *validated* control words of each shared section, so a flipped byte
  // always lands on state some integrity check covers (fault.hpp).
  const auto add_target = [this](const char* name, void* base,
                                 std::size_t bytes) {
    if (n_corrupt_targets_ >= kMaxCorruptTargets) return;
    corrupt_targets_[n_corrupt_targets_++] =
        CorruptTarget{name, static_cast<unsigned char*>(base), bytes};
  };
  add_target("arena", shared_->sections, sizeof(shared_->sections));
  add_target("plans", &plans_->slot(0).plan, sizeof(std::uint64_t));
  add_target("fifo", &channel(0, cfg_.nranks > 1 ? 1 : 0).head,
             sizeof(std::uint64_t));

  // serve mode: live shm mirror for external yhccl_top attach, plus the
  // sampler thread that exports snapshots and runs the straggler sweep.
  if (metrics_ != nullptr && metrics_mode_ == metrics::Mode::serve) {
    try {
      mirror_ = ShmRegion::create_named(metrics::mirror_shm_name(getpid()),
                                        metrics::kMirrorBytes);
    } catch (...) {
      // A second serve-mode team in this process: the first team owns the
      // per-pid mirror name; this one still samples and exports files.
    }
    sampler_ = std::make_unique<metrics::Sampler>(
        metrics::interval_ms_from_env(), [this] { metrics_tick(); });
  }
}

Team::~Team() {
  // The sampler stops first (its final synchronous tick refreshes the live
  // export once more), then the parent folds its stats and leaves a final
  // numbered snapshot behind when $YHCCL_METRICS_DIR is set.
  if (sampler_ != nullptr) sampler_->stop();
  sampler_.reset();
  if (metrics_ != nullptr) {
    try {
      metrics_fold_team();
      metrics_export(/*live=*/false);
    } catch (...) {
      // Destructor: exports are best-effort, never a crash on teardown.
    }
  }

  // Convenience export: with $YHCCL_TRACE_DIR set, every traced team leaves
  // a Chrome-trace JSON behind without the app calling the exporter itself.
  if (trace_ == nullptr) return;
  const char* dir = trace::trace_dir();
  if (dir == nullptr) return;
  try {
    trace::Harvest h(*trace_);
    if (h.total_events() == 0) return;
    if (!ensure_dir_warn_once(dir, "YHCCL_TRACE_DIR", trace_dir_warned_))
      return;
    const std::string path = std::string(dir) + "/yhccl_trace_" +
                             std::to_string(getpid()) + ".json";
    std::ofstream out(path);
    if (out) out << h.chrome_json().dump(1) << '\n';
  } catch (...) {
    // Destructor: a full trace is best-effort, never a crash on teardown.
  }
}

void Team::flight_dump() {
  if (trace_ == nullptr || flight_dumped_) return;
  const FaultInfo f = last_fault();
  if (f.kind == FaultKind::none) return;
  flight_dumped_ = true;
  try {
    trace::Harvest h(*trace_);
    trace::FlightContext fc;
    fc.fault = describe_fault(f);
    fc.rank = f.rank;
    fc.epoch = f.epoch;
    const bench::Json j = h.flight_json(fc);
    const char* dir = trace::trace_dir();
    if (dir != nullptr &&
        !ensure_dir_warn_once(dir, "YHCCL_TRACE_DIR", trace_dir_warned_))
      dir = nullptr;  // fall through to the stderr dump below
    if (dir != nullptr) {
      const std::string path = std::string(dir) + "/yhccl_flight_" +
                               std::to_string(getpid()) + ".json";
      std::ofstream out(path);
      if (out) out << j.dump(1) << '\n';
      std::fprintf(stderr, "[yhccl trace] flight-recorder dump: %s\n",
                   path.c_str());
    } else {
      std::fprintf(stderr,
                   "[yhccl trace] flight-recorder dump (set YHCCL_TRACE_DIR "
                   "to write a file):\n%s\n",
                   j.dump(1).c_str());
    }
  } catch (...) {
    // Fault path: the dump must never mask the collective's own error.
  }
}

FifoChannel& Team::channel(int src, int dst) noexcept {
  return channels()[static_cast<std::size_t>(src) * cfg_.nranks + dst];
}

std::byte* Team::channel_data(int src, int dst) noexcept {
  const std::size_t stride = FifoChannel::kSlots * cfg_.chunk_bytes;
  return section(Section::chan_data) +
         (static_cast<std::size_t>(src) * cfg_.nranks + dst) * stride;
}

std::byte* Team::shared_alloc(std::size_t bytes, std::size_t align) {
  YHCCL_REQUIRE(align != 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
  auto& cur = shared_->heap_cursor;
  std::uint64_t old = cur.load(std::memory_order_relaxed);
  std::uint64_t base;
  do {
    base = (old + align - 1) & ~(static_cast<std::uint64_t>(align) - 1);
    YHCCL_REQUIRE(checked_add(base, bytes, "shared heap reservation") <=
                      heap_bytes_,
                  "shared heap exhausted");
  } while (!cur.compare_exchange_weak(old, base + bytes,
                                      std::memory_order_relaxed));
  return section(Section::heap) + base;
}

void Team::run(const std::function<void(RankCtx&)>& fn) {
  if (!resilience_.enabled()) {
    // Legacy fail-fast path, untouched: tests pin it allocation- and
    // barrier-identical to the pre-resilience run().
    run_once(fn);
    return;
  }
  degraded_ = false;
  for (int attempt = 0;; ++attempt) {
    try {
      run_once(fn);
      if (attempt > 0) ++rstats_.heals;
      fail_streak_ = 0;
      degraded_ = false;
      return;
    } catch (const Error& e) {
      // Only classified faults are retryable: an invariant/syscall error
      // (kind none) means a bug, not a fault — hand it straight back.
      if (e.fault_kind() == FaultKind::none) throw;
      ++rstats_.faults;
      const std::uint64_t bad_plan = plans_->inflight();
      if (attempt >= resilience_.max_retries) {
        ++rstats_.giveups;
        throw;
      }
      recover();  // repairing integrity sweep + shared-state rebuild
      ++rstats_.recoveries;
      ++rstats_.retries;
      note_failed_plan(bad_plan);
      if (attempt + 1 >= resilience_.degrade_after && !degraded_) {
        degraded_ = true;
        ++rstats_.degrades;
        control_instant(trace::Phase::degrade, team_epoch());
      }
      control_instant(trace::Phase::retry,
                      static_cast<std::uint64_t>(attempt + 1));
      metrics_fold_team();
      resilience_backoff_sleep(resilience_, attempt);
    }
  }
}

void Team::run_once(const std::function<void(RankCtx&)>& fn) {
  // Pre-run reset, on the caller thread while the team is quiesced: an
  // abort word or tombstones left by a previous failed run describe *that*
  // run's fault (kept readable via last_fault() until here) and must not
  // instantly re-abort this one — each run() gets fresh ranks anyway.
  auto& fs = shared_->fault;
  fs.abort_word.store(0, std::memory_order_relaxed);
  for (int r = 0; r < cfg_.nranks; ++r) {
    fs.hb[r].left.store(0, std::memory_order_relaxed);
    fs.hb[r].dead.store(0, std::memory_order_relaxed);
  }
  const std::uint64_t epoch =
      fs.team_epoch.load(std::memory_order_acquire);
  const std::uint64_t rseq = ++run_seq_;
  flight_dumped_ = false;  // a fresh run may fault afresh
  try {
    run_ranks([&, epoch, rseq](int rank) {
      RankCtx ctx(*this, rank);
      FaultRunScope fault_scope(shared_->fault, fault_plan_, rank, nranks_,
                                epoch, forked_, corrupt_targets_,
                                n_corrupt_targets_);
      HbRunScope hb_scope(hb_, rank);
      // The rank's trace ring is indexed by *original* rank id so harvests
      // line up across recoveries that shrank the membership.
      trace::TraceRunScope trace_scope(
          trace_, active_[static_cast<std::size_t>(rank)]);
      metrics::RunScope metrics_scope(
          metrics_, active_[static_cast<std::size_t>(rank)], rseq);
      copy::dav_reset();
      copy::kernel_counts_reset();
      sync_counts_reset();
      const double t0 = wall_seconds();
      fn(ctx);
      const double t1 = wall_seconds();
      shared_->dav_out[rank] = copy::dav_read();
      shared_->time_out[rank] = t1 - t0;
      shared_->kernels_out[rank] = copy::kernel_counts_read();
      shared_->sync_out[rank] = sync_counts_read();
      // Surface races as a per-rank failure: the ThreadTeam rethrows it, the
      // ProcessTeam turns it into a non-zero child exit.
      hb_scope.check();
    });
  } catch (...) {
    // Coherent abort: every surviving rank has unwound, the rings are
    // quiesced — the flight recorder captures what everyone was doing.
    if (trace_mode_ == trace::Mode::flight) flight_dump();
    throw;
  }
  // Parent-side fold while the team is quiesced: per-rank run aggregates
  // (forked ranks' counter writes died with the child; the shared *_out
  // mailboxes are the surviving record) and the team-wide gauges.
  if (metrics_ != nullptr) {
    for (int r = 0; r < nranks_; ++r) {
      auto& slot = metrics_->rank(active_[static_cast<std::size_t>(r)]);
      metrics::bump(slot.runs);
      metrics::bump(slot.wall_ns,
                    static_cast<std::uint64_t>(shared_->time_out[r] * 1e9));
      metrics::bump(slot.dav_loads, shared_->dav_out[r].loads);
      metrics::bump(slot.dav_stores, shared_->dav_out[r].stores);
    }
    metrics::bump(metrics_->team().runs);
    metrics_fold_team();
  }
}

FaultInfo Team::recover() {
  // run() is synchronous, so reaching here means every surviving rank has
  // quiesced: threads are joined, and child processes have posted their
  // completion or been reaped.  No rank holds a lock or sits in a spin loop
  // — shared state can be rebuilt in place.
  auto& fs = shared_->fault;
  const FaultInfo info = last_fault();

  // The flight recorder fires before the rebuild wipes the abort word (a
  // no-op when run() already dumped this fault, or when nothing aborted).
  if (trace_mode_ == trace::Mode::flight) flight_dump();

  // Repairing integrity sweep *before* the rebuild: corrupted plan slots
  // are wiped (the rebuild below does not touch the plan cache) and damage
  // is counted while the evidence still exists.
  const IntegrityReport integrity = verify_integrity(/*repair=*/true);
  rstats_.corruptions += integrity.findings.size();

  // Membership: drop ranks whose *process* died (reap bookkeeping).  A
  // thread-backed rank's death is only a modelling device — the thread is
  // joined and a fresh one can take its place — so thread teams always
  // recover to full membership.
  if (forked_) {
    std::vector<int> survivors;
    for (int r = 0; r < nranks_; ++r)
      if (fs.hb[r].dead.load(std::memory_order_acquire) == 0)
        survivors.push_back(active_[static_cast<std::size_t>(r)]);
    YHCCL_REQUIRE(!survivors.empty(), "recover: no surviving ranks");
    active_ = std::move(survivors);
    nranks_ = static_cast<int>(active_.size());
  }
  const int nsockets = std::min(cfg_.nsockets, nranks_);
  // Cached plans persist across recovery (slot updates are single-word
  // atomics, so an abort cannot tear them); the refreshed caps key the
  // shrunken topology into its own plan space, so plans cached for the old
  // shape simply stop matching.
  caps_ = caps_for(Topology(nranks_, nsockets));

  // Re-initialize every piece of shared synchronization state the aborted
  // collective may have left torn.
  barrier_init(shared_->node_barrier, static_cast<std::uint32_t>(nranks_));
  for (int s = 0; s < kMaxSockets; ++s)
    barrier_init(shared_->socket_barrier[s],
                 s < nsockets
                     ? static_cast<std::uint32_t>(topo().socket_size(s))
                     : 0);
  for (int r = 0; r < kMaxRanks; ++r) {
    shared_->step[r].v.store(0, std::memory_order_relaxed);
    shared_->flag[r].v.store(0, std::memory_order_relaxed);
    shared_->persist[r] = TeamShared::Persist{};
    shared_->dav_out[r] = copy::Dav{};
    shared_->time_out[r] = 0;
    shared_->kernels_out[r] = copy::KernelCounts{};
    shared_->sync_out[r] = SyncCounts{};
    for (int s = 0; s < kRegistrySlots; ++s) {
      auto& w = shared_->registry[r][s];
      w.ptr.store(nullptr, std::memory_order_relaxed);
      w.bytes.store(0, std::memory_order_relaxed);
      w.pid.store(0, std::memory_order_relaxed);
      w.seq.store(0, std::memory_order_relaxed);
    }
  }
  for (FifoChannel& ch : channels()) {
    ch.~FifoChannel();
    new (&ch) FifoChannel();  // drops orphaned rendezvous descriptors
  }
  shared_->page_locks.reset();  // releases locks held by the dead rank

  // Liveness slots and the abort word restart clean.
  for (int r = 0; r < kMaxFaultRanks; ++r) {
    auto& slot = fs.hb[r];
    slot.beat.store(0, std::memory_order_relaxed);
    slot.seq.store(0, std::memory_order_relaxed);
    slot.epoch.store(0, std::memory_order_relaxed);
    slot.pid.store(0, std::memory_order_relaxed);
    slot.left.store(0, std::memory_order_relaxed);
    slot.dead.store(0, std::memory_order_relaxed);
    slot.done.store(0, std::memory_order_relaxed);
  }
  fs.abort_word.store(0, std::memory_order_relaxed);
  // The rebuilt team starts with no straggler history behind it.
  plans_->clear_wait_bound();

  // The race checker must see the re-initialization as a global
  // synchronization point: everything before recovery happens-before
  // everything after (including the dead rank's last writes).
  if (hb_ != nullptr) hb_->on_recover();

  // New epoch: a stale rank resumed from before recovery hits the epoch
  // fence in fault_point instead of tearing the rebuilt state.
  const std::uint64_t new_epoch =
      fs.team_epoch.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Recovery epochs land on the parent-side control ring (no rank context
  // is installed here, so the instant is pushed by hand).
  control_instant(trace::Phase::recover, new_epoch);
  metrics_fold_team();  // epoch and (possibly shrunken) membership gauges
  flight_dumped_ = false;  // the next epoch's fault deserves its own dump

  // Re-stamp the section directory under the new epoch: the epoch-tagged
  // checksums from before recovery stop validating, so tampering that
  // happened under the old epoch cannot be replayed into the new one.
  stamp_sections();
  return info;
}

void Team::stamp_sections() {
  const std::uint64_t epoch = team_epoch();
  for (int i = 0; i < kMaxSections; ++i) {
    SectionHeader& h = shared_->sections[i];
    h.off = section_off_[i];
    h.bytes = section_off_[i + 1] - section_off_[i];
    h.canary = kSectionCanary ^ h.off;
    h.epoch = epoch;
    h.sum = section_sum(h);
  }
}

void Team::note_failed_plan(std::uint64_t hash) {
  if (hash == 0) {
    fail_streak_ = 0;
    return;
  }
  if (hash == fail_hash_) {
    ++fail_streak_;
  } else {
    fail_hash_ = hash;
    fail_streak_ = 1;
  }
  // Two consecutive faults on the same key: stop re-selecting its cached
  // plan.  until_epoch is measured from the *post-recovery* epoch, so the
  // quarantine outlives the recovery that just happened.
  if (fail_streak_ >= 2) {
    if (plans_->quarantine(hash,
                           team_epoch() + resilience_.quarantine_epochs))
      ++rstats_.quarantines;
    fail_streak_ = 0;
  }
}

void Team::control_instant(trace::Phase phase, std::uint64_t arg) {
  if (trace_ == nullptr) return;
  // The control ring is single-writer by protocol; the parent's retry /
  // recover / degrade instants and the sampler thread's straggler instants
  // both land on it, so pushes serialize on the metrics mutex.
  std::lock_guard<std::mutex> lk(metrics_mu_);
  const std::uint64_t t = trace::trace_now();
  trace_->push(trace_->control_ring(),
               trace::Rec{t, t, arg, static_cast<std::uint8_t>(phase), 0, 0,
                          trace::kFlagInstant, 0});
}

void Team::metrics_fold_team() {
  // Parent-side only, at quiesced points (end of run_once, the retry loop,
  // recover(), teardown): rstats_ / plans_ / the membership are parent
  // state, so the sampler thread reads them only through these gauges.
  if (metrics_ == nullptr) return;
  auto& tg = metrics_->team();
  const auto st = [](mc::atomic<std::uint64_t>& g, std::uint64_t v) {
    g.store(v, std::memory_order_relaxed);
  };
  st(tg.epoch, team_epoch());
  st(tg.active_ranks, static_cast<std::uint64_t>(nranks_));
  st(tg.rs_faults, rstats_.faults);
  st(tg.rs_retries, rstats_.retries);
  st(tg.rs_recoveries, rstats_.recoveries);
  st(tg.rs_degrades, rstats_.degrades);
  st(tg.rs_quarantines, rstats_.quarantines);
  st(tg.rs_corruptions, rstats_.corruptions);
  st(tg.rs_giveups, rstats_.giveups);
  st(tg.rs_heals, rstats_.heals);
  const PlanRegistryStats ps = plans_->stats();
  st(tg.plan_lookups, ps.lookups);
  st(tg.plan_hits, ps.hits);
  st(tg.plan_misses, ps.misses);
  st(tg.plan_inserts, ps.inserts);
  st(tg.plan_explores, ps.explores);
  st(tg.plan_commits, ps.commits);
  st(tg.plan_loaded, ps.loaded);
  st(tg.plan_entries, ps.entries);
  st(tg.plan_quarantines, ps.quarantines);
}

metrics::StragglerReport Team::straggler_check() {
  metrics::StragglerReport rep;
  if (metrics_ == nullptr) return rep;
  const metrics::Snapshot snap = metrics::Snapshot::capture(*metrics_);
  rep = metrics::detect_stragglers(snap);
  // Level-triggered detector, edge-triggered accounting: only ranks that
  // were not already flagged on the previous sweep produce a new flag
  // count, flight-recorder instant and tuner nudge.
  std::vector<int> fresh;
  {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    for (int r : rep.flagged)
      if (std::find(last_stragglers_.begin(), last_stragglers_.end(), r) ==
          last_stragglers_.end())
        fresh.push_back(r);
    last_stragglers_ = rep.flagged;
  }
  for (int r : fresh) {
    metrics::bump(metrics_->team().straggler_flags);
    control_instant(trace::Phase::straggler, static_cast<std::uint64_t>(r));
  }
  if (!fresh.empty()) {
    // A flagged straggler means the team is wait-bound right now.
    for (const auto& rs : snap.ranks)
      for (const auto& cell : rs.cells)
        if (cell.coll > 0 && cell.coll < metrics::kCollSlots)
          plans_->mark_wait_bound(cell.coll - 1);
  } else if (rep.flagged.empty()) {
    // ...and a sweep that flags nobody means it no longer is.
    plans_->clear_wait_bound();
  }
  return rep;
}

void Team::metrics_tick() {
  try {
    straggler_check();
    metrics_export(/*live=*/true);
  } catch (...) {
    // Sampler thread: a failed sweep or export never takes the team down.
  }
}

void Team::metrics_export(bool live) {
  if (metrics_ == nullptr) return;
  metrics::Snapshot snap = metrics::Snapshot::capture(*metrics_);
  {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    snap.stragglers = last_stragglers_;
  }
  const std::string json = snap.to_json().dump(1);
  if (mirror_.valid())
    metrics::mirror_publish(mirror_.data(), mirror_.size(), json);
  const char* dir = metrics::metrics_dir();
  if (dir == nullptr) return;
  if (!ensure_dir_warn_once(dir, "YHCCL_METRICS_DIR", metrics_dir_warned_))
    return;
  std::string stem =
      std::string(dir) + "/yhccl_metrics_" + std::to_string(getpid());
  if (live) {
    stem += "_live";
  } else {
    // Numbered per process, not per team, so two teams tearing down never
    // overwrite each other's final snapshot.
    static mc::atomic<int> ordinal{0};
    stem += "_" + std::to_string(ordinal.fetch_add(1));
  }
  const auto write_one = [&stem](const char* ext, const std::string& text) {
    const std::string path = stem + ext;
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      if (!out) return;
      out << text << '\n';
    }
    // Atomic swap: a live reader tailing the _live pair never sees a
    // half-written file.
    std::rename(tmp.c_str(), path.c_str());
  };
  write_one(".json", json);
  write_one(".prom", snap.prometheus());
}

Team::IntegrityReport Team::verify_integrity(bool repair) {
  IntegrityReport rep;
  const auto note = [&rep](std::string what) {
    rep.findings.push_back(std::move(what));
  };

  // --- arena section directory ----------------------------------------------
  const std::uint64_t epoch = team_epoch();
  for (int i = 0; i < kMaxSections; ++i) {
    const SectionHeader& h = shared_->sections[i];
    ++rep.sections_checked;
    const std::string who = "section " + std::to_string(i);
    if (h.canary != (kSectionCanary ^ h.off))
      note(who + ": canary mismatch");
    else if (h.sum != section_sum(h))
      note(who + ": checksum mismatch");
    else if (h.epoch > epoch)
      note(who + ": stamped under future epoch " + std::to_string(h.epoch));
    else if (h.off != section_off_[i] ||
             h.bytes != section_off_[i + 1] - section_off_[i])
      note(who + ": disagrees with the section table");
  }

  // --- plan slots -----------------------------------------------------------
  for (std::uint32_t i = 0; i < plans_->capacity(); ++i) {
    PlanSlot& s = plans_->slot(i);
    ++rep.plan_slots_checked;
    const std::uint64_t h = s.hash.load(std::memory_order_acquire);
    const std::uint64_t f = s.fields.load(std::memory_order_relaxed);
    const std::uint64_t w = s.plan.load(std::memory_order_relaxed);
    const std::string who = "plan slot " + std::to_string(i);
    bool bad = false;
    if (h == 0) {
      if (f != 0 || w != 0) {
        note(who + ": residue in an empty slot");
        bad = true;
      }
    } else {
      if (!plan_fields_sane(f)) {
        note(who + ": reserved key-field bits set");
        bad = true;
      }
      if (!plan_word_sane(w)) {
        note(who + ": plan word failed structural validation");
        bad = true;
      }
    }
    if (bad && repair) {
      // Wipe the slot: readers fall back to the analytic prior, and the
      // probe hole at worst hides later slots of the same window (they
      // regenerate on the next resolve).
      s.plan.store(0, std::memory_order_relaxed);
      s.fields.store(0, std::memory_order_relaxed);
      s.quar.store(0, std::memory_order_relaxed);
      s.hits.store(0, std::memory_order_relaxed);
      for (int a = 0; a < kPlanMaxArms; ++a) {
        s.arm_ewma[a].store(0, std::memory_order_relaxed);
        s.arm_n[a].store(0, std::memory_order_relaxed);
      }
      s.hash.store(0, std::memory_order_release);
    }
  }

  // --- FIFO / rendezvous descriptors ----------------------------------------
  for (FifoChannel& ch : channels()) {
    const std::uint64_t c = rep.channels_checked++;
    const std::uint64_t head = ch.head.load(std::memory_order_relaxed);
    const std::uint64_t tail = ch.tail.load(std::memory_order_relaxed);
    const std::uint64_t posted = ch.rndv_posted.load(std::memory_order_relaxed);
    const std::uint64_t done = ch.rndv_done.load(std::memory_order_relaxed);
    const std::string who = "fifo channel " + std::to_string(c);
    bool bad = false;
    if (head > tail || tail - head > FifoChannel::kSlots) {
      note(who + ": head/tail counters out of bounds");
      bad = true;
    }
    for (std::uint64_t s = 0; s < FifoChannel::kSlots; ++s) {
      if (ch.meta[s].bytes > cfg_.chunk_bytes) {
        note(who + ": slot descriptor exceeds the chunk arena");
        bad = true;
        break;
      }
    }
    if (done > posted) {
      note(who + ": rendezvous retired more descriptors than posted");
      bad = true;
    }
    if (bad && repair) {
      ch.~FifoChannel();
      new (&ch) FifoChannel();
    }
  }

  if (repair && !rep.findings.empty()) stamp_sections();
  return rep;
}

std::uint64_t Team::hb_races() const { return hb_ != nullptr ? hb_->races() : 0; }

std::string Team::hb_report() const {
  return hb_ != nullptr ? hb_->first_report() : std::string();
}

copy::Dav Team::total_dav() const {
  copy::Dav total;
  for (int r = 0; r < nranks_; ++r) total += shared_->dav_out[r];
  return total;
}

copy::KernelCounts Team::total_kernels() const {
  copy::KernelCounts total;
  for (int r = 0; r < nranks_; ++r) total += shared_->kernels_out[r];
  return total;
}

SyncCounts Team::total_sync() const {
  SyncCounts total;
  for (int r = 0; r < nranks_; ++r) total += shared_->sync_out[r];
  return total;
}

double Team::max_time() const {
  double m = 0;
  for (int r = 0; r < nranks_; ++r)
    m = std::max(m, shared_->time_out[r]);
  return m;
}

// ---------------------------------------------------------------------------
// RankCtx
// ---------------------------------------------------------------------------

RankCtx::RankCtx(Team& team, int rank)
    : team_(&team),
      rank_(rank),
      nranks_(team.nranks()),
      persist_(&team.shared().persist[rank]) {
  YHCCL_REQUIRE(rank >= 0 && rank < nranks_, "rank out of range");
}

void RankCtx::barrier() {
  barrier_arrive(team_->shared().node_barrier, persist_->node_sense,
                 /*trace_scope=*/0);
}

void RankCtx::socket_barrier() {
  barrier_arrive(team_->shared().socket_barrier[socket()],
                 persist_->sock_sense,
                 static_cast<std::uint8_t>(1 + socket()));
}

std::uint64_t RankCtx::next_seq() {
  const std::uint64_t s = ++persist_->coll_seq;
  // Published so a watchdog expiry elsewhere can tell a diverged call
  // sequence from a stalled rank (fault.hpp classification).
  team_->shared().fault.hb[rank_].seq.store(s, std::memory_order_relaxed);
  return s;
}

void RankCtx::step_publish(std::uint64_t v) {
  fault_point("flag");
  sync_count_flag_post();
  metrics::note_flag_post();
  flag_publish(team_->shared().step[rank_], v);
  trace::instant(trace::Phase::flag_post, v);
}

void RankCtx::step_wait(int peer, std::uint64_t v) {
  fault_point("flag");
  sync_count_flag_wait();
  metrics::note_flag_wait();
  trace::Span sp(trace::Phase::flag_wait, v);
  spin_wait_ge(team_->shared().step[peer].v, v);
}

void RankCtx::publish_buffer(int slot, const void* p, std::size_t bytes) {
  YHCCL_REQUIRE(slot >= 0 && slot < kRegistrySlots, "registry slot");
  // Single-writer seqlock (see RemoteWindow): only this rank writes its own
  // registry row, so the unsynchronized seq read-modify-write is safe.
  window_publish(team_->shared().registry[rank_][slot], p, bytes, getpid());
}

RemoteBuf RankCtx::remote_buffer(int peer, int slot) const {
  YHCCL_REQUIRE(slot >= 0 && slot < kRegistrySlots, "registry slot");
  return window_read(team_->shared().registry[peer][slot]);
}

void* RankCtx::remote_target(int peer, int slot) const {
  // The registry stores every window read-only; writability is the
  // owner's contract for this slot, so the cast restores what it published.
  return const_cast<void*>(remote_buffer(peer, slot).ptr);
}

// ---------------------------------------------------------------------------
// pt2pt: eager two-copy FIFO
// ---------------------------------------------------------------------------

void RankCtx::send(int dst, const void* p, std::size_t n, int tag) {
  fault_point("fifo");
  YHCCL_REQUIRE(dst >= 0 && dst < nranks_ && dst != rank_, "bad send peer");
  trace::Span sp(trace::Phase::fifo, n);
  auto& ch = team_->channel(rank_, dst);
  std::byte* data = team_->channel_data(rank_, dst);
  const std::size_t chunk = config().chunk_bytes;
  const auto* src = static_cast<const std::byte*>(p);
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(chunk, n - off);
    fifo_push_chunk(ch, data, chunk, src + off, len, tag);
    off += len;
  } while (off < n);
}

void RankCtx::recv(int src, void* p, std::size_t n, int tag) {
  fault_point("fifo");
  YHCCL_REQUIRE(src >= 0 && src < nranks_ && src != rank_, "bad recv peer");
  trace::Span sp(trace::Phase::fifo, n);
  auto& ch = team_->channel(src, rank_);
  std::byte* data = team_->channel_data(src, rank_);
  const std::size_t chunk = config().chunk_bytes;
  auto* dst = static_cast<std::byte*>(p);
  std::size_t off = 0;
  do {
    off += fifo_pop_chunk(ch, data, chunk, dst + off, n - off, tag);
  } while (off < n);
}

void RankCtx::sendrecv(int dst, const void* sbuf, std::size_t sn, int src,
                       void* rbuf, std::size_t rn, int tag) {
  fault_point("fifo");
  trace::Span span(trace::Phase::fifo, sn + rn);
  auto& out = team_->channel(rank_, dst);
  auto& in = team_->channel(src, rank_);
  std::byte* out_data = team_->channel_data(rank_, dst);
  std::byte* in_data = team_->channel_data(src, rank_);
  const std::size_t chunk = config().chunk_bytes;
  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto* rp = static_cast<std::byte*>(rbuf);
  // At least one chunk per direction even for empty messages, matching the
  // chunk counts the peer's send()/recv()/sendrecv() will produce.
  const std::size_t schunks = sn == 0 ? 1 : ceil_div(sn, chunk);
  const std::size_t rchunks = rn == 0 ? 1 : ceil_div(rn, chunk);
  std::size_t sent = 0, received = 0;
  std::size_t soff = 0, roff = 0;
  SpinGuard guard("sendrecv progress", trace::Phase::fifo);
  while (sent < schunks || received < rchunks) {
    bool progressed = false;
    if (sent < schunks) {
      const std::size_t len = std::min(chunk, sn - soff);
      if (fifo_try_push_chunk(out, out_data, chunk, sp + soff, len, tag)) {
        soff += len;
        ++sent;
        progressed = true;
      }
    }
    if (received < rchunks) {
      std::size_t len = 0;
      if (fifo_try_pop_chunk(in, in_data, chunk, rp + roff, rn - roff, tag,
                             &len)) {
        roff += len;
        ++received;
        progressed = true;
      }
    }
    if (!progressed) guard.relax();
  }
}

void RankCtx::sendrecv_zc(int dst, const void* sbuf, std::size_t sn, int src,
                          void* rbuf, std::size_t rn, RemoteMode mode) {
  fault_point("rndv");
  auto& out = team_->channel(rank_, dst);
  const std::uint64_t s = rndv_post(out, sbuf, sn, getpid());
  recv_zc(src, rbuf, rn, mode);  // has its own rndv span for the pull side
  trace::Span sp(trace::Phase::rndv, sn);
  rndv_wait_drained(out, s);
}

// ---------------------------------------------------------------------------
// pt2pt: rendezvous single-copy
// ---------------------------------------------------------------------------

void RankCtx::send_zc(int dst, const void* p, std::size_t n) {
  fault_point("rndv");
  auto& ch = team_->channel(rank_, dst);
  const std::uint64_t s = rndv_post(ch, p, n, getpid());
  trace::Span sp(trace::Phase::rndv, n);
  rndv_wait_drained(ch, s);
}

void RankCtx::recv_zc(int src, void* p, std::size_t n, RemoteMode mode) {
  fault_point("rndv");
  rndv_pull(team_->channel(src, rank_), p, n, mode);
}

}  // namespace yhccl::rt
