#include "yhccl/copy/reduce_kernels.hpp"

#include "yhccl/analysis/hb.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/dispatch.hpp"
#include "yhccl/copy/kernels.hpp"
#include "prefault.hpp"

namespace yhccl::copy {

// All three entry points funnel into the tier table's single-pass m-ary
// kernel, so every (op, dtype, tier, store-type) combination shares one
// code path and one DAV accounting rule: (m+1)·n bytes for m operands.
// In a forked rank each prefaults its destination (prefault.hpp) before the
// first store.

void reduce_inplace(void* dst, const void* src, std::size_t n, Datatype d,
                    ReduceOp op) noexcept {
  analysis::hb_read(src, n, "reduce_inplace(src)");
  analysis::hb_write(dst, n, "reduce_inplace(dst)");
  detail::prefault_dst(dst, n);
  const void* srcs[2] = {dst, src};
  const KernelTable& k = kernels();
  k.reduce(dst, srcs, 2, n, d, op, /*nt_store=*/false);
  kernel_count_add(k.tier);
  dav_add(2 * n, n);  // two operand loads, one store
}

void reduce_out(void* out, const void* a, const void* b, std::size_t n,
                Datatype d, ReduceOp op, bool nt_store) noexcept {
  analysis::hb_read(a, n, "reduce_out(a)");
  analysis::hb_read(b, n, "reduce_out(b)");
  analysis::hb_write(out, n, "reduce_out(out)");
  detail::prefault_dst(out, n);
  const void* srcs[2] = {a, b};
  const KernelTable& k = kernels();
  k.reduce(out, srcs, 2, n, d, op, nt_store);
  kernel_count_add(k.tier);
  dav_add(2 * n, n);
}

void reduce_out_multi(void* out, const void* const* srcs, int m,
                      std::size_t n, Datatype d, ReduceOp op,
                      bool nt_store) {
  YHCCL_REQUIRE(m >= 1, "reduce_out_multi needs at least one source");
  if (m == 1) {
    // Degenerate "reduction" over one operand: just move the data.  The
    // copy books 2n == (m+1)·n, consistent with the m >= 2 accounting.
    if (nt_store)
      nt_copy(out, srcs[0], n);
    else
      t_copy(out, srcs[0], n);
    return;
  }
  for (int i = 0; i < m; ++i)
    analysis::hb_read(srcs[i], n, "reduce_out_multi(src)");
  analysis::hb_write(out, n, "reduce_out_multi(out)");
  detail::prefault_dst(out, n);
  const KernelTable& k = kernels();
  k.reduce(out, srcs, m, n, d, op, nt_store);
  kernel_count_add(k.tier);
  dav_add(static_cast<std::uint64_t>(m) * n, n);  // m loads, one store
}

}  // namespace yhccl::copy
