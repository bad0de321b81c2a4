#include "workload.hpp"

#include <algorithm>

namespace perfbench {

using yhccl::coll::CollKind;

namespace {

constexpr std::size_t kF32 = sizeof(float);

// step-process: the calls of one application step, in order.
constexpr std::size_t kStepBcastElems = (64u << 10) / kF32;
constexpr std::size_t kStepGatherElems = (16u << 10) / kF32;
constexpr std::size_t kStepScatterElems = (256u << 10) / kF32;
constexpr std::size_t kStepAllreduceElems = 1;

}  // namespace

bool workload_from_name(const std::string& name, Workload& out) {
  for (Workload w : {Workload::allreduce_small, Workload::allreduce_large,
                     Workload::step_process}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::allreduce_small: return "allreduce-small";
    case Workload::allreduce_large: return "allreduce-large";
    case Workload::step_process: return "step-process";
  }
  return "?";
}

std::size_t message_bytes(const Call& c) noexcept {
  const std::size_t b = c.count * kF32;
  return c.kind == CollKind::reduce_scatter ? b * kRanks : b;
}

std::size_t input_elems(const Call& c) noexcept {
  return c.kind == CollKind::reduce_scatter ? c.count * kRanks : c.count;
}

std::size_t output_elems(const Call& c) noexcept {
  return c.kind == CollKind::allgather ? c.count * kRanks : c.count;
}

Schedule::Schedule(Workload w, std::uint64_t seed) : w_(w) {
  if (w_ == Workload::allreduce_large) return;
  static_assert(std::size(kSmallBytes) == std::size(kSmallWeights));
  std::uint32_t total = 0;
  for (std::uint32_t wt : kSmallWeights) total += wt;
  Rng rng(seed);
  seq_.resize(kSeqLen);
  for (auto& v : seq_) {
    const std::uint64_t x = rng.next();
    if (w_ == Workload::step_process) {
      v = static_cast<std::uint32_t>(x % kRanks);
      continue;
    }
    std::uint64_t pick = x % total;
    std::size_t i = 0;
    while (pick >= kSmallWeights[i]) pick -= kSmallWeights[i++];
    v = static_cast<std::uint32_t>(kSmallBytes[i]);
  }
}

int Schedule::calls_per_op() const noexcept {
  return w_ == Workload::step_process ? 4 : 1;
}

Call Schedule::call(std::uint64_t op, int j) const noexcept {
  switch (w_) {
    case Workload::allreduce_small:
      return {CollKind::allreduce, seq_[op % kSeqLen] / kF32, 0};
    case Workload::allreduce_large:
      return {CollKind::allreduce, kLargeBytes / kF32, 0};
    case Workload::step_process:
      break;
  }
  switch (j) {
    case 0:
      return {CollKind::broadcast, kStepBcastElems,
              static_cast<int>(seq_[op % kSeqLen])};
    case 1: return {CollKind::allgather, kStepGatherElems, 0};
    case 2: return {CollKind::reduce_scatter, kStepScatterElems, 0};
    default: return {CollKind::allreduce, kStepAllreduceElems, 0};
  }
}

std::size_t Schedule::max_elems(std::size_t (*elems)(const Call&)) const {
  std::size_t m = 0;
  const std::uint64_t ops = seq_.empty() ? 1 : kSeqLen;
  for (std::uint64_t op = 0; op < ops; ++op)
    for (int j = 0; j < calls_per_op(); ++j)
      m = std::max(m, elems(call(op, j)));
  return m;
}

}  // namespace perfbench
