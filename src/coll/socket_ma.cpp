// Socket-aware two-level movement-avoiding reduction (paper §3.3, Fig. 7).
//
// Stage 1: each socket independently runs an MA reduction of the round's
//   data over its n = p/m local ranks (socket slice size I' = m*I, i.e. m
//   consecutive ownership blocks per socket slice), accumulating into a
//   per-socket shared buffer.  Only neighbour synchronization inside the
//   socket: p/m - 1 syncs instead of p - 1.
// Stage 2: rank r combines its final slice r across the m socket buffers
//   with one single-pass m-ary fused reduction and delivers it.  One node
//   barrier.
//
// DAV: s*(3p - m) + s*(m + 1) = s*(3p + 1), independent of m — below the
// paper's s*(3p + 2m - 3), which assumed a pairwise stage-2 chain; the
// fewer-synchronizations trade (Table 1 discussion) still applies.
//
// Falls back to the flat MA algorithm when the topology has one socket or
// the ranks do not divide evenly across sockets.
#include <cstdint>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll::detail {

namespace {

bool socket_layout_usable(const RankCtx& ctx) {
  auto& t = const_cast<RankCtx&>(ctx).team().topo();
  return t.nsockets() > 1 && t.nranks() % t.nsockets() == 0 &&
         t.nranks() / t.nsockets() >= 1;
}

enum class FinalDest : int { recv_block, shm };

struct SocketPlan {
  int p, m, n;        // ranks, sockets, ranks-per-socket
  int sock, q, base;  // my socket, local index, socket base rank
  std::byte* sock_shm(std::byte* scratch, int x, std::size_t I) const {
    return scratch + static_cast<std::size_t>(x) *
                         (static_cast<std::size_t>(p) * I);
  }
};

SocketPlan make_plan(RankCtx& ctx) {
  SocketPlan pl;
  pl.p = ctx.nranks();
  pl.m = ctx.nsockets();
  pl.n = pl.p / pl.m;
  pl.sock = ctx.socket();
  pl.q = ctx.socket_rank();
  pl.base = ctx.socket_base();
  return pl;
}

/// Stage 1 of round t: intra-socket MA accumulation into sock_shm[sock].
/// Socket slice u covers ownership blocks [u*m, (u+1)*m).
void stage1(RankCtx& ctx, const SocketPlan& pl, const std::byte* send,
            std::byte* my_sock_shm, const BlockSlicing& S, std::size_t t,
            Datatype d, ReduceOp op, const CollOpts& opts, std::size_t C,
            std::size_t W, std::uint64_t seq) {
  const int local_right = pl.base + (pl.q + 1) % pl.n;
  for (int j = 0; j < pl.n; ++j) {
    // Abort/injection check once per intra-socket slice step.
    rt::fault_point("slice");
    const int u = (pl.q + 1 + j) % pl.n;
    const std::uint64_t k = t * static_cast<std::size_t>(pl.n) +
                            static_cast<std::size_t>(j);
    if (k > 0 && pl.n > 1)
      ctx.step_wait(local_right, rt::RankCtx::step_value(seq, k));
    for (int b = u * pl.m; b < (u + 1) * pl.m; ++b) {
      const auto lb = static_cast<std::size_t>(b);
      const std::size_t len = S.len(lb, t);
      if (len == 0) continue;
      std::byte* slot = my_sock_shm + lb * S.slice;
      const std::byte* src = send + S.off(lb, t);
      if (j == 0) {
        trace::Span sp(trace::Phase::copy_in, len);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              copy::use_nt_store(opts.policy, true, C, W, len),
              static_cast<int>(copy::active_isa())));
        copy::dispatch_copy(opts.policy, slot, src, len,
                            /*temporal_hint=*/true, C, W);
      } else {
        trace::Span sp(trace::Phase::reduce, len);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              false, static_cast<int>(copy::active_isa())));
        copy::reduce_inplace(slot, src, len, d, op);
      }
    }
    ctx.step_publish(rt::RankCtx::step_value(seq, k + 1));
  }
}

/// Stage 2 of round t: combine slice `rank` across the m socket buffers.
void stage2(RankCtx& ctx, const SocketPlan& pl, std::byte* scratch,
            std::byte* dest, const BlockSlicing& S,
            Datatype d, ReduceOp op, bool nt, std::size_t len) {
  if (len == 0) return;
  const void* srcs[rt::kMaxSockets];
  const auto r = static_cast<std::size_t>(ctx.rank());
  for (int x = 0; x < pl.m; ++x)
    srcs[x] = pl.sock_shm(scratch, x, S.slice) + r * S.slice;
  trace::Span sp(trace::Phase::reduce, len);
  if (sp.active())
    sp.set_variant(
        trace::copy_variant(nt, static_cast<int>(copy::active_isa())));
  copy::reduce_out_multi(dest, srcs, pl.m, len, d, op, nt);
}

void socket_ma_core(RankCtx& ctx, const std::byte* send, std::byte* recv,
                    const BlockSlicing& S, Datatype d, ReduceOp op,
                    const CollOpts& opts, std::size_t W, FinalDest fd,
                    int root /* <0: scatter/allreduce copy-out semantics */,
                    bool copy_out_all) {
  const auto pl = make_plan(ctx);
  ScratchCarver carve(ctx);
  std::byte* scratch = carve.take(static_cast<std::size_t>(pl.m) *
                                  static_cast<std::size_t>(pl.p) * S.slice);
  std::byte* my_sock_shm = pl.sock_shm(scratch, pl.sock, S.slice);
  std::byte* node_shm = pl.sock_shm(scratch, 0, S.slice);
  const std::size_t C = ctx.cache().available(pl.p);
  const std::uint64_t seq = ctx.next_seq();
  const auto r = static_cast<std::size_t>(ctx.rank());

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    stage1(ctx, pl, send, my_sock_shm, S, t, d, op, opts, C, W, seq);
    ctx.barrier();  // every socket's stage-1 accumulation complete

    rt::fault_point("slice");
    const std::size_t len = S.len(r, t);
    if (fd == FinalDest::recv_block) {
      const bool nt =
          copy::use_nt_store(opts.policy, /*temporal_hint=*/false, C, W, len);
      stage2(ctx, pl, scratch, recv + S.off_in_block(t), S, d, op, nt, len);
    } else {
      // Result gathered into socket-0's buffer (read again right away).
      stage2(ctx, pl, scratch, node_shm + r * S.slice, S, d, op,
             /*nt=*/false, len);
    }
    ctx.barrier();  // stage-2 reads of all sockets' buffers complete

    if (fd == FinalDest::shm) {
      const bool root_only = root >= 0;
      if (copy_out_all || (root_only && ctx.rank() == root)) {
        trace::Span sp(trace::Phase::copy_out);
        if (sp.active())
          sp.set_variant(trace::copy_variant(
              copy::use_nt_store(opts.policy, false, C, W, S.slice),
              static_cast<int>(copy::active_isa())));
        for (int b = 0; b < pl.p; ++b) {
          const auto lb = static_cast<std::size_t>(b);
          const std::size_t blen = S.len(lb, t);
          if (blen > 0) {
            sp.add_bytes(blen);
            copy::dispatch_copy(opts.policy, recv + S.off(lb, t),
                                node_shm + lb * S.slice, blen,
                                /*temporal_hint=*/false, C, W);
          }
        }
      }
      ctx.barrier();  // copy-out done before the next round overwrites
    }
  }
}

}  // namespace

void socket_ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts) {
  if (!socket_layout_usable(ctx))
    return ma_reduce_scatter(ctx, send, recv, count, d, op, opts);
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t B = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, B);
    return;
  }
  const std::size_t total = B * static_cast<std::size_t>(p);
  const auto S = BlockSlicing::with_block(total, B, opts);
  const std::size_t W = WorkSet::reduce_scatter(total, p, S.slice);
  socket_ma_core(ctx, static_cast<const std::byte*>(send),
                 static_cast<std::byte*>(recv), S, d, op, opts, W,
                 FinalDest::recv_block, /*root=*/-1, /*copy_out_all=*/false);
}

void socket_ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, ReduceOp op,
                         const CollOpts& opts) {
  if (!socket_layout_usable(ctx))
    return ma_allreduce(ctx, send, recv, count, d, op, opts);
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, total);
    return;
  }
  const auto S = BlockSlicing::partitioned(total, p, opts);
  const std::size_t W =
      WorkSet::allreduce(total, p, ctx.nsockets(), S.slice);
  socket_ma_core(ctx, static_cast<const std::byte*>(send),
                 static_cast<std::byte*>(recv), S, d, op, opts, W,
                 FinalDest::shm, /*root=*/-1, /*copy_out_all=*/true);
}

void socket_ma_reduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op, int root,
                      const CollOpts& opts) {
  if (!socket_layout_usable(ctx))
    return ma_reduce(ctx, send, recv, count, d, op, root, opts);
  check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const int p = ctx.nranks();
  const std::size_t total = count * dtype_size(d);
  if (p == 1) {
    copy::t_copy(recv, send, total);
    return;
  }
  const auto S = BlockSlicing::partitioned(total, p, opts);
  const std::size_t W =
      WorkSet::reduce(total, p, ctx.nsockets(), S.slice);
  socket_ma_core(ctx, static_cast<const std::byte*>(send),
                 static_cast<std::byte*>(recv), S, d, op, opts, W,
                 FinalDest::shm, root, /*copy_out_all=*/false);
}

}  // namespace yhccl::coll::detail
