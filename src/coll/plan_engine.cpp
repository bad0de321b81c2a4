// The per-call tuner engine: resolve a plan at collective entry, feed the
// measured time back at exit (docs/tuning.md).
//
// Prior mode (the default) computes the key and the analytic prior: no
// registry access, zero allocation, zero barriers.  Online mode hashes the
// key into the registry and adds exactly two barriers per call (leading in
// resolve, trailing in finish); their release/acquire edges are what make
// rank 0's refinement race-free.
#include "yhccl/coll/plan.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/runtime/fault.hpp"

namespace yhccl::coll::plan {

namespace {

thread_local std::uint64_t tl_last_plan = 0;

}  // namespace

std::uint64_t last_plan_word() noexcept { return tl_last_plan; }

TunedCall::TunedCall(rt::RankCtx& ctx, CollKind kind, std::size_t msg_bytes,
                     Datatype d, ReduceOp op, const CollOpts& opts)
    : opts_(opts), base_opts_(opts) {
  rt::Team& team = ctx.team();
  const rt::PlanCaps& caps = team.caps();
  if (msg_bytes == 0 || opts.algorithm != Algorithm::automatic) {
    // Bypass: the caller's arm (the §5.1 rule for an empty automatic
    // reduction) with the caller's options, and no registry access.
    plan_.algorithm = is_reduction(kind)
                          ? choose_reduction_algorithm(kind, msg_bytes, opts,
                                                       caps)
                          : Algorithm::pipelined;
    return;
  }
  key_ = make_key(kind, msg_bytes, d, op, team.topo(), opts);
  // Prior mode: nothing ever writes the registry, so the §5.1/§5.4 rules
  // are served straight, with no hash, probe or shared-state access.
  if (team.tune_mode() == rt::TuneMode::online)
    resolve_online(ctx);
  else
    plan_ = prior_plan(key_, base_opts_, caps);

  plan_.apply(opts_);
  tl_last_plan = plan_.pack();
  // Serving gauge: what the tuner handed this collective kind last (the
  // yhccl_top "plan" column); ids follow the trace name-table convention.
  metrics::note_plan(
      1 + static_cast<int>(key_.kind),
      metrics::plan_gauge_pack(1 + static_cast<int>(plan_.algorithm),
                               plan_.arm, static_cast<int>(plan_.source),
                               key_.bucket));
  if (!finished_) t0_ = wall_seconds();
}

void TunedCall::resolve_online(rt::RankCtx& ctx) {
  rt::Team& team = ctx.team();
  const rt::PlanCaps& caps = team.caps();
  auto* reg = team.plan_registry();
  const std::uint64_t osig = opts_signature(base_opts_);
  const std::uint64_t hash = key_.hash(caps.signature(), osig);

  // Leading barrier: rank 0 publishes refined plan words strictly after
  // the previous call's trailing barrier, so arriving here guarantees
  // every rank reads the same committed word below.
  ctx.barrier();
  rt::PlanSlot* slot = reg->acquire(hash, key_.packed_fields());

  // Resilience gates (docs/robustness.md §resume).  Both flags are set
  // parent-side before run_ranks, so every rank — thread- or fork-backed —
  // reads the same values and the cross-rank agreement invariant holds.
  degraded_ = team.degraded();
  quarantined_ = slot != nullptr &&
                 rt::PlanRegistry::quarantined(*slot, team.team_epoch());
  if (ctx.rank() == 0) reg->note_inflight(hash);

  std::uint64_t word =
      slot != nullptr ? slot->plan.load(std::memory_order_acquire) : 0;
  // Read-side integrity: a committed word must satisfy the structural
  // contract (valid bit + clear reserved bits); a torn or corrupted word
  // must never steer the schedule — every rank would unpack garbage and
  // the team would diverge.  Raise a coherent corruption abort instead.
  if (!rt::plan_word_sane(word))
    rt::fault_raise_corruption("plan cache: stored plan word failed "
                               "structural validation");
  // Degraded lane / quarantine: ignore the cached word and serve the
  // deterministic analytic prior.
  if (degraded_ || quarantined_) word = 0;
  plan_ = word != 0 ? Plan::unpack(word) : prior_plan(key_, base_opts_, caps);

  if (slot != nullptr && !degraded_ && !quarantined_) {
    const ArmTable table = arms(key_, base_opts_, caps);
    narms_ = table.n;
    // Epsilon-greedy exploration.  The schedule is a pure function of
    // (key, machine signature, shared tune_seq), so every rank flips the
    // same coin and picks the same arm with no communication.  tune_seq
    // advances identically everywhere because collectives are called in
    // the same order on every rank (MPI semantics).  The coin hashes the
    // machine signature without the backend bit: where both backends
    // enumerate the same arm table they explore it in the same order.
    if (narms_ > 1) {
      const std::uint64_t seq = ctx.next_tune_seq();
      std::uint32_t eps = reg->eps_mille();
      if (reg->wait_bound(static_cast<int>(key_.kind)))
        eps = eps * 2 > 1000 ? 1000 : eps * 2;
      const std::uint64_t coin = key_.hash(caps.machine_signature(), osig);
      const std::uint64_t mix =
          rt::plan_mix64(coin ^ seq * 0x9e3779b97f4a7c15ull);
      if (mix % 1000 < eps) {
        const int arm = static_cast<int>(
            (mix >> 32) % static_cast<std::uint64_t>(narms_));
        plan_ = table.arm[arm];
        if (ctx.rank() == 0) reg->note_explore();
      }
    }
  }

  if (ctx.rank() == 0) {
    // Only rank 0 bumps the slot counter, so "first lookup ever" (the
    // cache miss) is deterministic even when another rank won the
    // slot-claiming CAS.
    const bool hit =
        slot != nullptr &&
        slot->hits.fetch_add(1, std::memory_order_relaxed) > 0;
    reg->note_lookup(hit);
  }

  slot_ = slot;
  finished_ = false;
}

void TunedCall::finish(rt::RankCtx& ctx) {
  if (finished_) return;
  finished_ = true;
  // Success path: clear the in-flight attribution the retry engine would
  // have charged this key with had the collective aborted.
  if (ctx.rank() == 0) ctx.team().plan_registry()->note_inflight(0);
  const double dt = wall_seconds() - t0_;
  // Trailing barrier: every rank's plan-word read for *this* call happened
  // before this point, so rank 0 may rewrite the word without racing a
  // reader.  The next reader is behind the next call's leading barrier,
  // which rank 0 only reaches after the store below.
  ctx.barrier();
  if (ctx.rank() != 0 || slot_ == nullptr) return;
  // Quarantined/degraded calls ran the prior, not their arm: folding their
  // time into the arm statistics (or re-committing a word) would defeat
  // the quarantine.  The key re-enters refinement when the mark expires.
  if (quarantined_ || degraded_) return;

  slot_->update_arm(plan_.arm, dt);

  // Refinement: commit the best-measured arm once it has at least two
  // samples and beats the incumbent by > 3% (hysteresis against noise).
  const std::uint64_t word = slot_->plan.load(std::memory_order_relaxed);
  const int cur = word != 0 ? Plan::unpack(word).arm : 0;
  int best = -1;
  double best_t = 0;
  for (int a = 0; a < narms_; ++a) {
    if (slot_->arm_n[a].load(std::memory_order_relaxed) == 0) continue;
    const double t = slot_->ewma_seconds(a);
    if (best < 0 || t < best_t) {
      best = a;
      best_t = t;
    }
  }
  if (best < 0 || best == cur) return;
  if (slot_->arm_n[best].load(std::memory_order_relaxed) < 2) return;
  if (slot_->arm_n[cur].load(std::memory_order_relaxed) == 0) return;
  if (best_t >= 0.97 * slot_->ewma_seconds(cur)) return;

  Plan p = arms(key_, base_opts_, ctx.team().caps()).arm[best];
  p.source = PlanSource::online;
  slot_->plan.store(p.pack(), std::memory_order_release);
  ctx.team().plan_registry()->note_commit();
}

Plan query(const rt::Team& team, CollKind kind, std::size_t msg_bytes,
           Datatype d, ReduceOp op, const CollOpts& opts) {
  const rt::PlanCaps& caps = team.caps();
  const PlanKey key = make_key(kind, msg_bytes, d, op, caps.topo(), opts);
  const auto* slot = team.plan_registry()->find(
      key.hash(caps.signature(), opts_signature(opts)));
  if (slot != nullptr) {
    const std::uint64_t w = slot->plan.load(std::memory_order_acquire);
    if (!rt::plan_word_sane(w))
      rt::fault_raise_corruption("plan cache: stored plan word failed "
                                 "structural validation");
    if (w != 0 && !rt::PlanRegistry::quarantined(*slot, team.team_epoch()))
      return Plan::unpack(w);
  }
  return prior_plan(key, opts, caps);
}

rt::PlanRegistryStats tune_stats(const rt::Team& team) {
  return team.plan_registry()->stats();
}

}  // namespace yhccl::coll::plan
