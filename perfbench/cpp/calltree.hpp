// The `record` workload's instrumented call tree.
//
// calltree.cpp is the only file compiled with -finstrument-functions:
// every function in it reaches the Tempest hooks on entry and exit, and
// its names come from the executable's ELF symbol table. The shape is
// fixed, so the number of calls each function receives follows from
// the repetition count alone (calltree_model.cpp) — the independent
// source the recorded and parsed counts are checked against.
//
//   pb_tree_root(reps)
//     pb_level0 x reps
//       pb_level<k>:  pb_hot_leaf_a x kHotA, pb_leaf_b x 1,
//                     pb_level<k+1> x 2          (k < kDepth - 1)
//                     pb_hot_leaf_c x kHotC      (k == kDepth - 1)
//
// The two hot leaves take most of the calls; the recording session
// suppresses them through a TEMPEST_FILTER file, as tempest-audit
// would suggest for leaves this hot.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::calltree {

inline constexpr int kDepth = 6;
inline constexpr int kHotA = 4;
inline constexpr int kHotC = 8;

/// Per-function calls made by one pb_tree_root(reps) invocation.
std::map<std::string, std::uint64_t> calls_per_root(std::uint64_t reps);
/// Sum of calls_per_root.
std::uint64_t total_calls(std::uint64_t reps);
/// The leaves the recording filter suppresses.
std::vector<std::string> suppressed_functions();

}  // namespace perfbench::calltree

extern "C" std::uint64_t pb_tree_root(std::uint64_t reps, std::uint64_t seed);
