// The collective kinds and algorithm arms, and their one name table.  It
// sits below every library that labels a collective (tracer, metrics,
// bench reports, CLIs), so all of them print and parse one spelling.  What
// each (kind, algorithm) arm needs, models and runs is the arm table of
// yhccl/coll/arm_table.hpp.
#pragma once

#include <iterator>
#include <optional>
#include <string_view>

namespace yhccl::coll {

enum class CollKind : int {
  allreduce,
  reduce,
  reduce_scatter,
  broadcast,
  allgather,
  kCount_,
};

enum class Algorithm : int {
  automatic,        ///< paper §5.1 switching rules (tuner-eligible)
  ma_flat,          ///< movement-avoiding reduction, single level (§3.3)
  ma_socket_aware,  ///< two-level socket-aware MA (§3.3, Fig. 7)
  dpml_two_level,   ///< hierarchical parallel reduction for small messages
  pipelined,        ///< sliced pipeline (broadcast/allgather only, §3.4)
  fold,             ///< one-barrier staged fold (small allreduce only)
  direct,           ///< single-copy allreduce/reduce_scatter (shared
                    ///< address space or shared windows only)
};

inline constexpr const char* kCollKindNames[] = {
    "allreduce", "reduce", "reduce_scatter", "broadcast", "allgather"};
inline constexpr const char* kAlgorithmNames[] = {
    "auto", "ma", "socket-ma", "dpml-2l", "pipelined", "fold", "direct"};
inline constexpr int kCollKindCount = static_cast<int>(CollKind::kCount_);
inline constexpr int kAlgorithmCount = std::size(kAlgorithmNames);
static_assert(std::size(kCollKindNames) == kCollKindCount);
static_assert(kAlgorithmCount == 1 + static_cast<int>(Algorithm::direct));

constexpr const char* coll_kind_name(CollKind k) noexcept {
  const auto i = static_cast<unsigned>(k);
  return i < kCollKindCount ? kCollKindNames[i] : "?";
}

constexpr const char* algorithm_name(Algorithm a) noexcept {
  const auto i = static_cast<unsigned>(a);
  return i < kAlgorithmCount ? kAlgorithmNames[i] : "?";
}

constexpr std::optional<CollKind> coll_kind_from_name(
    std::string_view s) noexcept {
  for (int k = 0; k < kCollKindCount; ++k)
    if (s == kCollKindNames[k]) return static_cast<CollKind>(k);
  return std::nullopt;
}

constexpr std::optional<Algorithm> algorithm_from_name(
    std::string_view s) noexcept {
  for (int a = 0; a < kAlgorithmCount; ++a)
    if (s == kAlgorithmNames[a]) return static_cast<Algorithm>(a);
  return std::nullopt;
}

}  // namespace yhccl::coll
