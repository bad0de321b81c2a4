#include "yhccl/model/dav_model.hpp"

#include <algorithm>

namespace yhccl::model {

namespace {

using u64 = std::uint64_t;

u64 mul(std::size_t s, double factor) {
  return static_cast<u64>(static_cast<double>(s) * factor);
}

/// Rabenseifner's halving series: 1/2 + 1/4 + ... + 1/p == 1 - 1/p.
double halving_series(int p) { return 1.0 - 1.0 / p; }

/// RG tree series: 5k/(k+1) + 3k/(k+1)^2 + ... + 3k/p (levels while
/// (k+1)^i <= p).
double rg_series(int p, int k) {
  double sum = 0;
  double denom = k + 1;
  bool first = true;
  while (denom <= static_cast<double>(p)) {
    sum += (first ? 5.0 : 3.0) * k / denom;
    first = false;
    denom *= (k + 1);
  }
  if (first) sum = 5.0 * k / (k + 1);  // degenerate tiny trees
  return sum;
}

}  // namespace

namespace paper {

u64 ring_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * 5 * (p - 1);
}
u64 rabenseifner_reduce_scatter(std::size_t s, int p) {
  return mul(s, 5.0 * p * halving_series(p));
}
u64 dpml_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) - 1);
}
u64 ma_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) - 1);
}
u64 socket_ma_reduce_scatter(std::size_t s, int p, int m) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 2 * m - 3);
}

u64 ring_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * 7 * (p - 1);
}
u64 rabenseifner_allreduce(std::size_t s, int p) {
  return mul(s, 7.0 * p * halving_series(p));
}
u64 dpml_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (7 * static_cast<u64>(p) - 1);
}
u64 rg_allreduce(std::size_t s, int p, int k) {
  return mul(s, p * (rg_series(p, k) + 2.0));
}
u64 ma_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) - 1);
}
u64 socket_ma_allreduce(std::size_t s, int p, int m) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) + 2 * m - 3);
}
u64 xpmem_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * 5 * (p - 1);
}

u64 dpml_reduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) + 1);
}
u64 rg_reduce(std::size_t s, int p, int k) {
  return mul(s, p * rg_series(p, k));
}
u64 ma_reduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 1);
}
u64 socket_ma_reduce(std::size_t s, int p, int m) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 2 * m - 1);
}

}  // namespace paper

namespace impl {

u64 ma_reduce_scatter(std::size_t s, int p) {
  return paper::ma_reduce_scatter(s, p);
}
u64 ma_allreduce(std::size_t s, int p) { return paper::ma_allreduce(s, p); }
u64 ma_reduce(std::size_t s, int p) { return paper::ma_reduce(s, p); }

// The socket-combination stage fuses the m per-socket partials in a single
// pass — (m+1)·(s/p) per rank instead of the pairwise chain's 3(m-1)·(s/p)
// the paper's tables assume.  Stage 1 is unchanged at s(3p-m); the total
// therefore loses its m-dependence:
//   s(3p-m) + s(m+1) = s(3p+1).
u64 socket_ma_reduce_scatter(std::size_t s, int p, int m) {
  (void)m;
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 1);
}
u64 socket_ma_allreduce(std::size_t s, int p, int m) {
  // reduce-scatter + the 2sp copy-out of the full result on every rank.
  return socket_ma_reduce_scatter(s, p, m) + 2 * static_cast<u64>(s) * p;
}
u64 socket_ma_reduce(std::size_t s, int p, int m) {
  // reduce-scatter + the root's 2s copy-out.
  return socket_ma_reduce_scatter(s, p, m) + 2 * static_cast<u64>(s);
}

// Our DPML delivers the scatter blocks / copy-out directly from the staged
// partials (one copy less than the paper's bookkeeping) and fuses the
// partitioned reduction of the p staged buffers into one (p+1)·(s/p)-byte
// pass per block: copy-in 2sp + fused stage s(p+1) = s(3p+1) for the
// scatter shape (flat/single-socket grouping, as the baseline runs it).
u64 dpml_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 1);
}
u64 dpml_allreduce(std::size_t s, int p) {
  return dpml_reduce_scatter(s, p) + 2 * static_cast<u64>(s) * p;
}

u64 ring_reduce_scatter_single_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 5 * (p - 1);  // == paper
}
u64 ring_reduce_scatter_two_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 7 * (p - 1);  // +2 for the eager copy-in
}
u64 ring_allreduce_single_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 7 * (p - 1);  // == paper
}
u64 ring_allreduce_two_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 11 * (p - 1);
}

// Adds the private working-copy initialization (2s per rank) the paper's
// table omits.
u64 rabenseifner_allreduce_single_copy(std::size_t s, int p) {
  return 2 * static_cast<u64>(s) * p + mul(s, 7.0 * (p - 1));
}

u64 xpmem_allreduce(std::size_t s, int p) {
  // Fused p-ary direct reduction s(p+1) + 2s(p-1) block gather.
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) - 1);
}

u64 pipelined_broadcast(std::size_t s, int p) {
  return 2 * static_cast<u64>(s) * p;  // root copy-in + (p-1) copy-outs
}
u64 pipelined_allgather(std::size_t s, int p) {
  // per rank: copy-in 2s + copy-out of all p blocks 2sp.
  return static_cast<u64>(p) * (2 * static_cast<u64>(s) +
                                2 * static_cast<u64>(s) * p);
}

// ---- operation-count simulators ---------------------------------------------
// Each simulator replays the corresponding implementation's loop structure
// over the same slicing arithmetic (coll/detail.hpp BlockSlicing), booking
// per-call contributions with the exact rules of the instrumented kernels:
//   copy (t/nt/dispatch/memmove)      loads n, stores n, 1 kernel call
//   reduce_inplace / reduce_out       loads 2n, stores n, 1 kernel call
//   reduce_out_multi(m)               loads m·n, stores n, 1 kernel call
//                                     (m == 1 degenerates to a copy)
// Zero-length calls book nothing (the kernels early-return and every call
// site guards len > 0).  Sync totals follow runtime/sync_counts.hpp.

namespace {

constexpr std::size_t kCl = 64;  // cacheline, mirrors common/types.hpp

std::size_t ru(std::size_t v, std::size_t a) { return (v + a - 1) / a * a; }
std::size_t cd(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Mirror of coll::detail::BlockSlicing (header cycle kept one-way: the
/// model must not depend on coll).  test_dav_models pins the two together.
struct SimSlicing {
  std::size_t total = 0, block = 0, slice = 0, nrounds = 0;

  static SimSlicing with_block(std::size_t total, std::size_t block,
                               std::size_t slice_min,
                               std::size_t slice_max) {
    SimSlicing s;
    s.total = total;
    s.block = block;
    const std::size_t imax = std::max(ru(slice_max, kCl), kCl);
    const std::size_t imin = std::max(slice_min, kCl);
    s.slice =
        std::clamp(ru(std::max<std::size_t>(block, 1), kCl), imin, imax);
    s.nrounds = std::max<std::size_t>(cd(block, s.slice), 1);
    return s;
  }

  static SimSlicing partitioned(std::size_t total, int parts,
                                std::size_t slice_min,
                                std::size_t slice_max) {
    const std::size_t b =
        ru(cd(total, static_cast<std::size_t>(parts)), kCl);
    return with_block(total, std::max<std::size_t>(b, kCl), slice_min,
                      slice_max);
  }

  std::size_t block_len(std::size_t l) const {
    const std::size_t start = l * block;
    return start >= total ? 0 : std::min(block, total - start);
  }
  std::size_t len(std::size_t l, std::size_t t) const {
    const std::size_t bl = block_len(l);
    const std::size_t start = t * slice;
    return start >= bl ? 0 : std::min(slice, bl - start);
  }
};

struct Sim {
  OpCounts c;

  void copy(std::size_t n) {
    if (n == 0) return;
    c.loads += n;
    c.stores += n;
    ++c.kernel_calls;
  }
  void reduce2(std::size_t n) {  // reduce_inplace / reduce_out
    if (n == 0) return;
    c.loads += 2 * static_cast<u64>(n);
    c.stores += n;
    ++c.kernel_calls;
  }
  void reduce_multi(int m, std::size_t n) {
    if (n == 0) return;
    if (m == 1) return copy(n);
    c.loads += static_cast<u64>(m) * n;
    c.stores += n;
    ++c.kernel_calls;
  }
  void barrier(int p) { c.barriers += static_cast<u64>(p); }  // team-uniform
};

/// Flat MA rounds (ma_reduce.cpp ma_round) for every rank, flag ops
/// included; the final-destination distinction does not change the counts
/// (reduce_out books like reduce_inplace).
void sim_ma_rounds(Sim& sim, const SimSlicing& S, int p) {
  for (int r = 0; r < p; ++r)
    for (std::size_t t = 0; t < S.nrounds; ++t)
      for (int j = 0; j < p; ++j) {
        const auto l = static_cast<std::size_t>((r + 1 + j) % p);
        if (t * static_cast<std::size_t>(p) + static_cast<std::size_t>(j) >
            0)
          ++sim.c.flag_waits;
        const std::size_t len = S.len(l, t);
        if (len > 0) {
          if (j == 0)
            sim.copy(len);
          else
            sim.reduce2(len);
        }
        ++sim.c.flag_posts;
      }
}

/// Per-round body of socket_ma.cpp socket_ma_core for all ranks.
void sim_socket_round(Sim& sim, const SimSlicing& S, std::size_t t, int p,
                      int m, bool fd_shm, int ncopyout) {
  const int n = p / m;
  for (int r = 0; r < p; ++r) {
    const int q = r % n;  // socket_rank under the even layout
    for (int j = 0; j < n; ++j) {
      const int u = (q + 1 + j) % n;
      if (t * static_cast<std::size_t>(n) + static_cast<std::size_t>(j) >
              0 &&
          n > 1)
        ++sim.c.flag_waits;
      for (int b = u * m; b < (u + 1) * m; ++b) {
        const std::size_t len = S.len(static_cast<std::size_t>(b), t);
        if (len == 0) continue;
        if (j == 0)
          sim.copy(len);
        else
          sim.reduce2(len);
      }
      ++sim.c.flag_posts;
    }
  }
  sim.barrier(p);
  for (int r = 0; r < p; ++r)
    sim.reduce_multi(m, S.len(static_cast<std::size_t>(r), t));
  sim.barrier(p);
  if (fd_shm) {
    for (int i = 0; i < ncopyout; ++i)
      for (int b = 0; b < p; ++b)
        sim.copy(S.len(static_cast<std::size_t>(b), t));
    sim.barrier(p);
  }
}

bool socket_layout_usable_sim(const OpGeometry& g) {
  return g.m > 1 && g.p % g.m == 0 && g.p / g.m >= 1;
}

/// DPML group layout (dpml_two_level.cpp make_groups + topology.hpp block
/// partition: the first p%m sockets take one extra rank).
struct SimGroups {
  int m = 0;
  int size[256] = {};
};

SimGroups sim_groups(const OpGeometry& g, bool flat) {
  SimGroups gr;
  if (flat || g.m == 1) {
    gr.m = g.p;
    for (int i = 0; i < gr.m; ++i) gr.size[i] = 1;
  } else {
    gr.m = g.m;
    const int q = g.p / g.m, rem = g.p % g.m;
    for (int x = 0; x < gr.m; ++x) gr.size[x] = q + (x < rem ? 1 : 0);
  }
  return gr;
}

enum class SimDeliver : int { scatter, all, root_only };

OpCounts sim_dpml(std::size_t total, std::size_t block, const OpGeometry& g,
                  SimDeliver deliver) {
  Sim sim;
  const int p = g.p;
  const std::size_t cap =
      g.scratch_bytes /
      ((static_cast<std::size_t>(p) + 1) * static_cast<std::size_t>(p) + 2);
  const std::size_t eff_slice_max = std::clamp<std::size_t>(
      g.dpml_chunk, kCl, std::max<std::size_t>(cap, kCl));
  const SimSlicing S =
      SimSlicing::with_block(total, block, g.slice_min, eff_slice_max);
  const SimGroups gr = sim_groups(g, g.dpml_flat);
  bool any_multi = false;
  for (int x = 0; x < gr.m; ++x) any_multi = any_multi || gr.size[x] > 1;

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    for (int r = 0; r < p; ++r)  // copy-in: every rank stages all p blocks
      for (int b = 0; b < p; ++b)
        sim.copy(S.len(static_cast<std::size_t>(b), t));
    sim.barrier(p);
    for (int x = 0; x < gr.m; ++x) {  // stage 1: intra-group reductions
      const int n = gr.size[x];
      if (n <= 1) continue;
      for (int idx = 0; idx < n; ++idx) {
        const int lo = idx * p / n, hi = (idx + 1) * p / n;
        for (int b = lo; b < hi; ++b)
          sim.reduce_multi(n, S.len(static_cast<std::size_t>(b), t));
      }
    }
    if (any_multi) sim.barrier(p);
    for (int r = 0; r < p; ++r)  // stage 2: owners combine group leaders
      sim.reduce_multi(gr.m, S.len(static_cast<std::size_t>(r), t));
    sim.barrier(p);
    if (deliver != SimDeliver::scatter) {
      const int ncopy = deliver == SimDeliver::all ? p : 1;
      for (int i = 0; i < ncopy; ++i)
        for (int b = 0; b < p; ++b)
          sim.copy(S.len(static_cast<std::size_t>(b), t));
      sim.barrier(p);
    }
  }
  return sim.c;
}

}  // namespace

OpCounts ma_reduce_scatter_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const std::size_t B = s / static_cast<std::size_t>(p);
  if (B == 0) return sim.c;
  const SimSlicing S =
      SimSlicing::with_block(s, B, g.slice_min, g.slice_max);
  sim_ma_rounds(sim, S, p);
  sim.barrier(p);
  return sim.c;
}

OpCounts ma_allreduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const SimSlicing S =
      SimSlicing::partitioned(s, p, g.slice_min, g.slice_max);
  for (std::size_t t = 0; t < S.nrounds; ++t) {
    for (int r = 0; r < p; ++r)
      for (int j = 0; j < p; ++j) {
        const auto l = static_cast<std::size_t>((r + 1 + j) % p);
        if (t * static_cast<std::size_t>(p) + static_cast<std::size_t>(j) >
            0)
          ++sim.c.flag_waits;
        const std::size_t len = S.len(l, t);
        if (len > 0) {
          if (j == 0)
            sim.copy(len);
          else
            sim.reduce2(len);
        }
        ++sim.c.flag_posts;
      }
    sim.barrier(p);
    for (int r = 0; r < p; ++r)  // copy-out on every rank
      for (int b = 0; b < p; ++b)
        sim.copy(S.len(static_cast<std::size_t>(b), t));
    sim.barrier(p);
  }
  return sim.c;
}

OpCounts ma_reduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const SimSlicing S =
      SimSlicing::partitioned(s, p, g.slice_min, g.slice_max);
  for (std::size_t t = 0; t < S.nrounds; ++t) {
    for (int r = 0; r < p; ++r)
      for (int j = 0; j < p; ++j) {
        const auto l = static_cast<std::size_t>((r + 1 + j) % p);
        if (t * static_cast<std::size_t>(p) + static_cast<std::size_t>(j) >
            0)
          ++sim.c.flag_waits;
        const std::size_t len = S.len(l, t);
        if (len > 0) {
          if (j == 0)
            sim.copy(len);
          else
            sim.reduce2(len);
        }
        ++sim.c.flag_posts;
      }
    sim.barrier(p);
    for (int b = 0; b < p; ++b)  // copy-out on the root only
      sim.copy(S.len(static_cast<std::size_t>(b), t));
    sim.barrier(p);
  }
  return sim.c;
}

OpCounts socket_ma_reduce_scatter_ops(std::size_t s, const OpGeometry& g) {
  if (!socket_layout_usable_sim(g)) return ma_reduce_scatter_ops(s, g);
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  const std::size_t B = s / static_cast<std::size_t>(p);
  if (B == 0) return sim.c;
  const SimSlicing S =
      SimSlicing::with_block(s, B, g.slice_min, g.slice_max);
  for (std::size_t t = 0; t < S.nrounds; ++t)
    sim_socket_round(sim, S, t, p, g.m, /*fd_shm=*/false, 0);
  return sim.c;
}

OpCounts socket_ma_allreduce_ops(std::size_t s, const OpGeometry& g) {
  if (!socket_layout_usable_sim(g)) return ma_allreduce_ops(s, g);
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  const SimSlicing S =
      SimSlicing::partitioned(s, p, g.slice_min, g.slice_max);
  for (std::size_t t = 0; t < S.nrounds; ++t)
    sim_socket_round(sim, S, t, p, g.m, /*fd_shm=*/true, /*ncopyout=*/p);
  return sim.c;
}

OpCounts socket_ma_reduce_ops(std::size_t s, const OpGeometry& g) {
  if (!socket_layout_usable_sim(g)) return ma_reduce_ops(s, g);
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  const SimSlicing S =
      SimSlicing::partitioned(s, p, g.slice_min, g.slice_max);
  for (std::size_t t = 0; t < S.nrounds; ++t)
    sim_socket_round(sim, S, t, p, g.m, /*fd_shm=*/true, /*ncopyout=*/1);
  return sim.c;
}

OpCounts dpml_reduce_scatter_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  if (s == 0) return sim.c;
  const std::size_t B = s / static_cast<std::size_t>(g.p);
  if (B == 0) return sim.c;
  if (g.p == 1) {
    sim.copy(B);
    return sim.c;
  }
  return sim_dpml(s, B, g, SimDeliver::scatter);
}

OpCounts dpml_allreduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  if (s == 0) return sim.c;
  if (g.p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const std::size_t B = std::max<std::size_t>(
      ru(cd(s, static_cast<std::size_t>(g.p)), kCl), kCl);
  return sim_dpml(s, B, g, SimDeliver::all);
}

OpCounts dpml_reduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  if (s == 0) return sim.c;
  if (g.p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const std::size_t B = std::max<std::size_t>(
      ru(cd(s, static_cast<std::size_t>(g.p)), kCl), kCl);
  return sim_dpml(s, B, g, SimDeliver::root_only);
}

OpCounts pipelined_broadcast_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0 || p == 1) return sim.c;
  const std::size_t imax = std::max(ru(g.slice_max, kCl), kCl);
  const std::size_t I = std::min(ru(std::max<std::size_t>(s, 1), kCl), imax);
  const std::size_t nsl = cd(s, I);
  auto slice_len = [&](std::size_t k) { return std::min(I, s - k * I); };
  for (std::size_t k = 0; k < nsl; ++k) {
    sim.copy(slice_len(k));  // root fills the slot
    if (k >= 1)
      for (int r = 1; r < p; ++r) sim.copy(slice_len(k - 1));
    sim.barrier(p);
  }
  for (int r = 1; r < p; ++r) sim.copy(slice_len(nsl - 1));
  sim.barrier(p);
  return sim.c;
}

OpCounts pipelined_allgather_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const std::size_t imax = std::max(ru(g.slice_max, kCl), kCl);
  const std::size_t I = std::min(ru(std::max<std::size_t>(s, 1), kCl), imax);
  const std::size_t nsl = cd(s, I);
  auto slice_len = [&](std::size_t k) { return std::min(I, s - k * I); };
  for (int r = 0; r < p; ++r) {
    for (std::size_t k = 0; k < nsl; ++k) {
      sim.copy(slice_len(k));
      if (k >= 1)
        for (int a = 0; a < p; ++a) sim.copy(slice_len(k - 1));
    }
    for (int a = 0; a < p; ++a) sim.copy(slice_len(nsl - 1));
  }
  sim.c.barriers +=
      static_cast<u64>(p) * (static_cast<u64>(nsl) + 1);
  return sim.c;
}

namespace {

/// Bytes of block b of the direct allreduce: p cache-line multiples of
/// ceil(s/p), the trailing ones possibly empty.
std::size_t direct_block_len(std::size_t s, int p, int b) {
  const std::size_t B = std::max<std::size_t>(
      ru(cd(s, static_cast<std::size_t>(p)), kCl), kCl);
  const std::size_t start = static_cast<std::size_t>(b) * B;
  return start >= s ? std::size_t{0} : std::min(B, s - start);
}

}  // namespace

OpCounts xpmem_allreduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  auto blen = [&](int b) { return direct_block_len(s, p, b); };
  sim.barrier(p);
  for (int r = 0; r < p; ++r) sim.reduce_multi(p, blen(r));
  sim.barrier(p);
  for (int r = 0; r < p; ++r)
    for (int b = 0; b < p; ++b)
      if (b != r) sim.copy(blen(b));
  sim.barrier(p);
  return sim.c;
}

OpCounts direct_push_allreduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  const std::size_t I = std::max(ru(g.slice_max, kCl), kCl);
  sim.barrier(p);
  for (int r = 0; r < p; ++r) {
    const std::size_t mine = direct_block_len(s, p, r);
    for (std::size_t at = 0; at < mine; at += I) {
      const std::size_t len = std::min(I, mine - at);
      sim.reduce_multi(p, len);
      for (int k = 1; k < p; ++k) sim.copy(len);
    }
  }
  sim.barrier(p);
  return sim.c;
}

OpCounts direct_reduce_scatter_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  const std::size_t B = s / static_cast<std::size_t>(p);
  if (B == 0) return sim.c;
  if (p == 1) {
    sim.copy(B);
    return sim.c;
  }
  const std::size_t I = std::max(ru(g.slice_max, kCl), kCl);
  sim.barrier(p);
  for (int r = 0; r < p; ++r)
    for (std::size_t at = 0; at < B; at += I)
      sim.reduce_multi(p, std::min(I, B - at));
  sim.barrier(p);
  return sim.c;
}

OpCounts fold_allreduce_ops(std::size_t s, const OpGeometry& g) {
  Sim sim;
  const int p = g.p;
  if (s == 0) return sim.c;
  if (p == 1) {
    sim.copy(s);
    return sim.c;
  }
  for (int r = 0; r < p; ++r) sim.copy(s);  // stage my slot
  sim.barrier(p);
  for (int r = 0; r < p; ++r) sim.reduce_multi(p, s);  // fold all p slots
  return sim.c;
}

}  // namespace impl

std::size_t nt_switch_point(std::size_t cache_capacity, int p,
                            std::size_t shm_bytes) {
  if (cache_capacity <= shm_bytes) return 0;
  return (cache_capacity - shm_bytes) / (2 * static_cast<std::size_t>(p));
}

std::size_t nt_switch_point_allreduce(std::size_t cache_capacity, int p,
                                      int m, std::size_t slice_max) {
  return nt_switch_point(cache_capacity, p,
                         static_cast<std::size_t>(m) *
                             static_cast<std::size_t>(p) * slice_max);
}

double time_from_dav(std::uint64_t dav_bytes, double dab_bytes_per_sec) {
  return dab_bytes_per_sec <= 0
             ? 0.0
             : static_cast<double>(dav_bytes) / dab_bytes_per_sec;
}

}  // namespace yhccl::model
