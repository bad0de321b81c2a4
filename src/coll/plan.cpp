// Plan keys, packing, the analytic prior and the candidate-arm tables
// (docs/tuning.md).  Everything here is a pure function of its arguments:
// the agreement argument in plan.hpp leans on that.
#include <algorithm>
#include <bit>

#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"

namespace yhccl::coll::plan {

namespace {

bool socket_topology(const rt::Topology& topo) noexcept {
  return topo.nsockets() > 1 && topo.nranks() % topo.nsockets() == 0;
}

}  // namespace

// ---- key packing ------------------------------------------------------------
// fields: kind 0-3 | dtype 4-7 | op 8-11 | bucket 12-19 | ranks 20-31 |
// sockets 32-39.  kMaxRanks = 256 and kMaxSockets = 16 fit with room.

std::uint64_t PlanKey::packed_fields() const noexcept {
  std::uint64_t f = static_cast<std::uint64_t>(kind) & 0xf;
  f |= (static_cast<std::uint64_t>(dtype) & 0xf) << 4;
  f |= (static_cast<std::uint64_t>(op) & 0xf) << 8;
  f |= static_cast<std::uint64_t>(bucket) << 12;
  f |= (static_cast<std::uint64_t>(ranks) & 0xfff) << 20;
  f |= (static_cast<std::uint64_t>(sockets) & 0xff) << 32;
  return f;
}

PlanKey PlanKey::from_fields(std::uint64_t f) noexcept {
  PlanKey k;
  k.kind = static_cast<CollKind>(f & 0xf);
  k.dtype = static_cast<Datatype>((f >> 4) & 0xf);
  k.op = static_cast<ReduceOp>((f >> 8) & 0xf);
  k.bucket = static_cast<std::uint8_t>((f >> 12) & 0xff);
  k.ranks = static_cast<int>((f >> 20) & 0xfff);
  k.sockets = static_cast<int>((f >> 32) & 0xff);
  return k;
}

std::uint64_t PlanKey::hash(std::uint64_t team_sig,
                            std::uint64_t opts_sig) const noexcept {
  std::uint64_t h = rt::plan_mix64(packed_fields());
  h = rt::plan_mix64(h ^ team_sig);
  h = rt::plan_mix64(h ^ opts_sig);
  return h != 0 ? h : 1;
}

std::uint64_t opts_signature(const CollOpts& opts) noexcept {
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t v) {
    h = rt::plan_mix64(h ^ rt::plan_mix64(v));
  };
  fold(static_cast<std::uint64_t>(opts.policy));
  fold(opts.slice_max);
  fold(opts.slice_min);
  fold(opts.small_msg_threshold);
  fold(opts.dpml_chunk);
  fold(opts.dpml_flat ? 1 : 0);
  return h;
}

// ---- size buckets -----------------------------------------------------------

std::uint8_t bucket_of(CollKind kind, std::size_t msg_bytes,
                       const CollOpts& opts) noexcept {
  if (msg_bytes == 0) return 0;
  auto b = static_cast<std::uint8_t>(std::bit_width(msg_bytes - 1));
  // The §5.1 threshold may land inside a power-of-two bucket; splitting on
  // it keeps the static decision constant within every (bucket, side) class
  // for arbitrary thresholds, so the prior is exact, never approximate.
  if (is_reduction(kind) && msg_bytes > opts.small_msg_threshold) b |= 0x40;
  return b;
}

std::size_t bucket_rep_bytes(CollKind kind, std::uint8_t bucket,
                             const CollOpts& opts) noexcept {
  const std::size_t hi = std::size_t{1} << (bucket & 0x3f);
  if (is_reduction(kind) && (bucket & 0x40) == 0)
    return std::min(hi, opts.small_msg_threshold);
  return hi;
}

PlanKey make_key(CollKind kind, std::size_t msg_bytes, Datatype d,
                 ReduceOp op, const rt::Topology& topo,
                 const CollOpts& opts) noexcept {
  PlanKey k;
  k.kind = kind;
  k.dtype = d;
  k.op = is_reduction(kind) ? op : ReduceOp::sum;
  k.bucket = bucket_of(kind, msg_bytes, opts);
  k.ranks = topo.nranks();
  k.sockets = topo.nsockets();
  return k;
}

// ---- structural contract ----------------------------------------------------
// The runtime's integrity sweep validates stored words against the
// reserved-bit masks in rt/plan_registry.hpp without unpacking them.  These
// asserts pin this file's packing to that contract: the used bits and the
// reserved mask must partition the word exactly, so *any* flipped byte of a
// committed word lands on a reserved bit or clears the valid bit.

namespace {

constexpr std::uint64_t kWordUsedBits =
    (std::uint64_t{1} << 63) |  // valid
    0xfull |                    // algorithm 0-3
    (0x3ull << 4) |             // nt 4-5
    (0x3full << 8) |            // slice_log2 8-13
    (0x3full << 16) |           // chunk_log2 16-21
    (1ull << 24) |              // nt_prior 24
    (0x3ull << 25) |            // source 25-26
    (0xfull << 28);             // arm 28-31
static_assert((kWordUsedBits & rt::kPlanWordValidBit) != 0,
              "plan word must carry the contracted valid bit");
static_assert((kWordUsedBits & rt::kPlanWordReservedMask) == 0,
              "plan packing writes into contracted reserved bits");
static_assert((kWordUsedBits | rt::kPlanWordReservedMask) == ~0ull,
              "plan word bits unaccounted for by the structural contract");

constexpr std::uint64_t kFieldsUsedBits =
    0xfull |            // kind 0-3
    (0xfull << 4) |     // dtype 4-7
    (0xfull << 8) |     // op 8-11
    (0xffull << 12) |   // bucket 12-19
    (0xfffull << 20) |  // ranks 20-31
    (0xffull << 32);    // sockets 32-39
static_assert((kFieldsUsedBits & rt::kPlanFieldsReservedMask) == 0,
              "key packing writes into contracted reserved bits");
static_assert((kFieldsUsedBits | rt::kPlanFieldsReservedMask) == ~0ull,
              "key field bits unaccounted for by the structural contract");

}  // namespace

// ---- plan packing -----------------------------------------------------------
// word: valid 63 | algorithm 0-3 | nt 4-5 | slice_log2 8-13 |
// chunk_log2 16-21 | nt_prior 24 | source 25-26 | arm 28-31.

std::uint64_t Plan::pack() const noexcept {
  std::uint64_t w = std::uint64_t{1} << 63;
  w |= static_cast<std::uint64_t>(algorithm) & 0xf;
  w |= (static_cast<std::uint64_t>(nt) & 0x3) << 4;
  w |= static_cast<std::uint64_t>(slice_log2 & 0x3f) << 8;
  w |= static_cast<std::uint64_t>(chunk_log2 & 0x3f) << 16;
  if (nt_prior) w |= std::uint64_t{1} << 24;
  w |= (static_cast<std::uint64_t>(source) & 0x3) << 25;
  w |= static_cast<std::uint64_t>(arm & 0xf) << rt::kPlanWordArmShift;
  return w;
}

Plan Plan::unpack(std::uint64_t w) noexcept {
  Plan p;
  p.algorithm = static_cast<Algorithm>(w & 0xf);
  p.nt = static_cast<NtChoice>((w >> 4) & 0x3);
  p.slice_log2 = static_cast<std::uint8_t>((w >> 8) & 0x3f);
  p.chunk_log2 = static_cast<std::uint8_t>((w >> 16) & 0x3f);
  p.nt_prior = ((w >> 24) & 1) != 0;
  p.source = static_cast<PlanSource>((w >> 25) & 0x3);
  p.arm = static_cast<std::uint8_t>((w >> rt::kPlanWordArmShift) & 0xf);
  return p;
}

void Plan::apply(CollOpts& o) const noexcept {
  const CollOpts defaults{};
  if (o.policy == copy::CopyPolicy::adaptive) {
    if (nt == NtChoice::temporal) o.policy = copy::CopyPolicy::always_temporal;
    if (nt == NtChoice::stream) o.policy = copy::CopyPolicy::always_nt;
  }
  if (slice_log2 != 0 && o.slice_max == defaults.slice_max)
    o.slice_max = std::size_t{1} << slice_log2;
  if (chunk_log2 != 0 && o.dpml_chunk == defaults.dpml_chunk)
    o.dpml_chunk = std::size_t{1} << chunk_log2;
}

// ---- analytic prior ---------------------------------------------------------

bool serves_direct(CollKind kind, std::size_t msg_bytes, const CollOpts& opts,
                   const rt::PlanCaps& caps) noexcept {
  if (kind == CollKind::allreduce && caps.shared_address_space())
    return msg_bytes > opts.small_msg_threshold ||
           msg_bytes > fold_max_bytes(caps.topo().nranks());
  return (kind == CollKind::allreduce ||
          kind == CollKind::reduce_scatter) &&
         msg_bytes > opts.small_msg_threshold;
}

Algorithm staged_reduction_algorithm(CollKind kind, std::size_t msg_bytes,
                                     const CollOpts& opts,
                                     const rt::Topology& topo) noexcept {
  // fold_max_bytes is a power of two, so the fold cut never splits a size
  // bucket and the prior stays exact.
  if (kind == CollKind::allreduce && msg_bytes <= opts.small_msg_threshold &&
      msg_bytes <= fold_max_bytes(topo.nranks()))
    return Algorithm::fold;
  if (msg_bytes <= opts.small_msg_threshold) return Algorithm::dpml_two_level;
  if (socket_topology(topo)) return Algorithm::ma_socket_aware;
  return Algorithm::ma_flat;
}

Algorithm choose_reduction_algorithm(CollKind kind, std::size_t msg_bytes,
                                     const CollOpts& opts,
                                     const rt::PlanCaps& caps) noexcept {
  if (opts.algorithm != Algorithm::automatic) return opts.algorithm;
  if (serves_direct(kind, msg_bytes, opts, caps)) return Algorithm::direct;
  return staged_reduction_algorithm(kind, msg_bytes, opts, caps.topo());
}

bool prior_nt(CollKind kind, std::size_t msg_bytes, int p, int m,
              const copy::CacheConfig& cache,
              std::size_t slice_max) noexcept {
  const std::size_t I =
      std::max(round_up(slice_max, kCacheline), kCacheline);
  const std::size_t s = msg_bytes;
  std::size_t w = 0;
  switch (kind) {
    case CollKind::reduce_scatter:
      w = detail::WorkSet::reduce_scatter(s, p, I);
      break;
    case CollKind::allreduce:
      // W = 2sp + m*p*I > C  <=>  s > (C - m*p*I)/(2p): exactly the §5.4
      // switch point model::nt_switch_point_allreduce computes.
      w = detail::WorkSet::allreduce(s, p, m, I);
      break;
    case CollKind::reduce:
      w = detail::WorkSet::reduce(s, p, m, I);
      break;
    case CollKind::broadcast:
      w = detail::WorkSet::broadcast(s, p, I);
      break;
    case CollKind::allgather:
      w = detail::WorkSet::allgather(s, p, I);
      break;
    default:
      break;
  }
  return w > cache.available(p);
}

namespace {

/// The store type the direct arm runs under the adaptive policy.  Its work
/// set is the p send and p receive buffers alone (it stages nothing).  An
/// allreduce above the private-cache cut pushes with C = p·c''; below it,
/// and for reduce_scatter, stores use C = c' + p·c''.
bool direct_nt(CollKind kind, std::size_t s, int p,
               const copy::CacheConfig& cache) {
  if (kind == CollKind::reduce_scatter)
    return detail::WorkSet::direct_reduce_scatter(s, p) > cache.available(p);
  return detail::direct_pushes(s, p, cache) ||
         detail::WorkSet::direct_allreduce(s, p) > cache.available(p);
}

}  // namespace

Plan prior_plan(const PlanKey& key, const CollOpts& opts,
                const rt::PlanCaps& caps) noexcept {
  Plan p;
  const rt::Topology& topo = caps.topo();
  const std::size_t rep = bucket_rep_bytes(key.kind, key.bucket, opts);
  p.algorithm = is_reduction(key.kind)
                    ? choose_reduction_algorithm(key.kind, rep, opts, caps)
                    : Algorithm::pipelined;
  p.nt = NtChoice::adaptive;  // per-slice Algorithm 1 (§4.2)
  p.nt_prior = p.algorithm == Algorithm::direct
                   ? direct_nt(key.kind, rep, topo.nranks(), caps.cache())
                   : prior_nt(key.kind, rep, topo.nranks(), topo.nsockets(),
                              caps.cache(), opts.slice_max);
  p.source = PlanSource::prior;
  p.arm = 0;
  return p;
}

// ---- candidate arms ---------------------------------------------------------

ArmTable arms(const PlanKey& key, const CollOpts& opts,
              const rt::PlanCaps& caps) noexcept {
  ArmTable t;
  const auto add = [&t](const Plan& p) { t.arm[t.n++] = p; };
  const Plan prior = prior_plan(key, opts, caps);
  add(prior);
  if (is_reduction(key.kind)) {
    // Direct is only ever arm 0: the prior serves it in every bucket where
    // it may run, and fold buckets keep the table both backends share.
    const Algorithm alts[] = {Algorithm::dpml_two_level, Algorithm::ma_flat,
                              Algorithm::ma_socket_aware};
    for (const Algorithm a : alts) {
      if (a == prior.algorithm) continue;
      if (a == Algorithm::ma_socket_aware && !socket_topology(caps.topo()))
        continue;
      Plan p = prior;
      p.algorithm = a;
      add(p);
    }
  } else if (opts.slice_max == CollOpts{}.slice_max) {
    // Alternative pipeline depths around the paper's Imax = 256 KB; apply()
    // honors them only when the caller kept the default, so these arms are
    // meaningful exactly when they are enumerated.
    for (const std::uint8_t lg : {std::uint8_t{16}, std::uint8_t{20}}) {
      Plan p = prior;
      p.slice_log2 = lg;
      add(p);
    }
  }
  if (opts.policy == copy::CopyPolicy::adaptive &&
      t.n + 2 <= rt::kPlanMaxArms) {
    Plan p = prior;
    p.nt = NtChoice::stream;
    add(p);
    p = prior;
    p.nt = NtChoice::temporal;
    add(p);
  }
  for (int i = 0; i < t.n; ++i) {
    t.arm[i].arm = static_cast<std::uint8_t>(i);
    if (i != 0) t.arm[i].source = PlanSource::online;
  }
  return t;
}

}  // namespace yhccl::coll::plan
