// The benchmark's workloads: what each op issues, generated from the seed.
//
// The seed drives exactly two things: the message-size mix of
// allreduce-small and the broadcast roots of step-process.  Input values
// are a fixed function of (rank, index) — small integers, so every sum is
// exact in f32 whatever reduction order the served algorithm uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "yhccl/coll/profiler.hpp"

namespace perfbench {

inline constexpr int kRanks = 4;    ///< p: one rank per core of the target VM
inline constexpr int kSockets = 2;  ///< m: enables the socket-aware arms

enum class Workload { allreduce_small, allreduce_large, step_process };

/// Parses a workload name; false when unknown.
bool workload_from_name(const std::string& name, Workload& out);
const char* workload_name(Workload w) noexcept;

/// splitmix64: the only source of randomness in the benchmark.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t s_;
};

/// Message sizes of allreduce-small, in bytes.  All sit below the 256 KB
/// DPML threshold, so synchronisation and plan lookup dominate.
inline constexpr std::size_t kSmallBytes[] = {8, 256, 4096, 16384, 65536};
/// Relative draw weights of kSmallBytes.  The middle size is drawn twice
/// as often, so the median op falls inside one size class instead of in
/// the sparse tail between two, where it would follow run-to-run noise.
inline constexpr std::uint32_t kSmallWeights[] = {1, 1, 2, 1, 1};
/// Message size of allreduce-large: past the §5.4 NT switch point.
inline constexpr std::size_t kLargeBytes = 32u << 20;

/// One collective call, f32 sum for the reductions.  `count` follows the
/// coll:: API: elements per rank block for reduce_scatter and allgather,
/// the whole vector otherwise.
struct Call {
  yhccl::coll::CollKind kind = yhccl::coll::CollKind::allreduce;
  std::size_t count = 0;
  int root = 0;
};

/// User message bytes of a call, sized as the switching layer sizes it:
/// the whole input vector for reduce_scatter, one rank's buffer otherwise.
std::size_t message_bytes(const Call& c) noexcept;

/// Elements a rank's input and output buffers need for `c`.
std::size_t input_elems(const Call& c) noexcept;
std::size_t output_elems(const Call& c) noexcept;

/// Input values repeat with this period in the element index.
inline constexpr std::size_t kValuePeriod = 11;

/// Input element `j` of rank `r`.
inline float input_value(int r, std::size_t j) noexcept {
  return static_cast<float>(
      (j * 7 + static_cast<std::size_t>(r) * 5) % kValuePeriod + 1);
}

/// Element `j` of the sum over all ranks' inputs, in closed form.
inline float expected_sum(std::size_t j) noexcept {
  float s = 0;
  for (int r = 0; r < kRanks; ++r) s += input_value(r, j);
  return s;
}

/// The op stream of one workload: op i issues calls_per_op() calls.
class Schedule {
 public:
  /// Length of the seeded size/root sequence; op i uses entry i mod this.
  static constexpr std::size_t kSeqLen = 1u << 16;

  Schedule(Workload w, std::uint64_t seed);

  Workload workload() const noexcept { return w_; }
  /// Ranks are fork()ed processes (step-process) rather than threads.
  bool process_ranks() const noexcept { return w_ == Workload::step_process; }
  int calls_per_op() const noexcept;
  Call call(std::uint64_t op, int j) const noexcept;
  /// Largest input / output buffer any call needs, in elements per rank.
  std::size_t max_input_elems() const { return max_elems(input_elems); }
  std::size_t max_output_elems() const { return max_elems(output_elems); }

 private:
  std::size_t max_elems(std::size_t (*elems)(const Call&)) const;

  Workload w_;
  std::vector<std::uint32_t> seq_;  ///< small: byte size; step: bcast root
};

}  // namespace perfbench
