#include "yhccl/copy/kernels.hpp"

#include <cstdint>
#include <cstring>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/dispatch.hpp"
#include "prefault.hpp"

namespace yhccl::copy {

bool detail::g_dst_prefault = false;

void enable_dst_prefault() noexcept { detail::g_dst_prefault = true; }

// Every copy entry point reports its source/destination ranges to the
// happens-before checker before touching memory.  With the checker off
// (the default) each hook is a thread-local load and an untaken branch —
// nothing on the hot path.  In a forked rank each then prefaults its
// destination (prefault.hpp) before the first store.

void scalar_copy(void* dst, const void* src, std::size_t n) noexcept {
  if (n == 0) return;  // callers may pass null pointers for empty copies
  analysis::hb_read(src, n, "scalar_copy(src)");
  analysis::hb_write(dst, n, "scalar_copy(dst)");
  detail::prefault_dst(dst, n);
  std::memcpy(dst, src, n);
  dav_add(n, n);
}

void t_copy(void* dst, const void* src, std::size_t n) noexcept {
  if (n == 0) return;
  analysis::hb_read(src, n, "t_copy(src)");
  analysis::hb_write(dst, n, "t_copy(dst)");
  detail::prefault_dst(dst, n);
  const KernelTable& k = kernels();
  k.copy_t(dst, src, n);
  kernel_count_add(k.tier);
  dav_add(n, n);
}

void nt_copy(void* dst, const void* src, std::size_t n) noexcept {
  if (n == 0) return;
  analysis::hb_read(src, n, "nt_copy(src)");
  analysis::hb_write(dst, n, "nt_copy(dst)");
  detail::prefault_dst(dst, n);
  const KernelTable& k = kernels();
  k.copy_nt(dst, src, n);
  kernel_count_add(k.tier);
  dav_add(n, n);
}

void erms_copy(void* dst, const void* src, std::size_t n) noexcept {
  if (n == 0) return;
  analysis::hb_read(src, n, "erms_copy(src)");
  analysis::hb_write(dst, n, "erms_copy(dst)");
  detail::prefault_dst(dst, n);
#if defined(__x86_64__) || defined(__i386__)
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  std::size_t cnt = n;
  asm volatile("rep movsb" : "+D"(d), "+S"(s), "+c"(cnt) : : "memory");
#else
  std::memcpy(dst, src, n);
#endif
  dav_add(n, n);
}

void memmove_model_copy(void* dst, const void* src, std::size_t n,
                        std::size_t nt_threshold) noexcept {
  if (n >= nt_threshold)
    nt_copy(dst, src, n);
  else
    t_copy(dst, src, n);
}

}  // namespace yhccl::copy
