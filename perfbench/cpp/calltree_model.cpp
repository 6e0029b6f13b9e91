// Call counts of the instrumented call tree, derived from its shape
// (calltree.hpp) without running it.
#include "calltree.hpp"

namespace perfbench::calltree {

std::map<std::string, std::uint64_t> calls_per_root(std::uint64_t reps) {
  std::map<std::string, std::uint64_t> calls;
  calls["pb_tree_root"] = 1;
  std::uint64_t level_calls = reps;  // pb_level0 runs once per repetition
  for (int k = 0; k < kDepth; ++k) {
    calls["pb_level" + std::to_string(k)] = level_calls;
    calls["pb_hot_leaf_a"] += level_calls * kHotA;
    calls["pb_leaf_b"] += level_calls;
    if (k == kDepth - 1) calls["pb_hot_leaf_c"] += level_calls * kHotC;
    level_calls *= 2;
  }
  return calls;
}

std::uint64_t total_calls(std::uint64_t reps) {
  std::uint64_t total = 0;
  for (const auto& [name, n] : calls_per_root(reps)) total += n;
  return total;
}

std::vector<std::string> suppressed_functions() {
  return {"pb_hot_leaf_a", "pb_hot_leaf_c"};
}

}  // namespace perfbench::calltree
