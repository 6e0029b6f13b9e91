// Compiled with -finstrument-functions (see CMakeLists.txt). noipa keeps
// GCC from inlining, cloning or specialising the functions, so each
// source function is one ELF symbol and one hooked call per invocation.
#include "calltree.hpp"

#define PB_FN extern "C" __attribute__((noipa))

namespace {

/// A few cycles of dependent arithmetic the optimiser cannot drop. Not
/// instrumented: GCC would otherwise hook every inlined copy.
__attribute__((no_instrument_function)) inline std::uint64_t mix(
    std::uint64_t x, std::uint64_t k) {
  x ^= x >> 29;
  x *= k;
  asm volatile("" : "+r"(x));
  return x;
}

}  // namespace

PB_FN std::uint64_t pb_hot_leaf_a(std::uint64_t x) {
  return mix(x, 0x9E3779B97F4A7C15ULL);
}

PB_FN std::uint64_t pb_hot_leaf_c(std::uint64_t x) {
  return mix(x, 0xC2B2AE3D27D4EB4FULL);
}

PB_FN std::uint64_t pb_leaf_b(std::uint64_t x) {
  return mix(x, 0x165667B19E3779F9ULL);
}

#define PB_LEVEL_BODY(next)                                          \
  for (int i = 0; i < perfbench::calltree::kHotA; ++i) x = pb_hot_leaf_a(x); \
  x = pb_leaf_b(x);                                                  \
  x = next(x);                                                       \
  x = next(x);                                                       \
  return x;

PB_FN std::uint64_t pb_level5(std::uint64_t x) {
  for (int i = 0; i < perfbench::calltree::kHotA; ++i) x = pb_hot_leaf_a(x);
  x = pb_leaf_b(x);
  for (int i = 0; i < perfbench::calltree::kHotC; ++i) x = pb_hot_leaf_c(x);
  return x;
}
PB_FN std::uint64_t pb_level4(std::uint64_t x) { PB_LEVEL_BODY(pb_level5) }
PB_FN std::uint64_t pb_level3(std::uint64_t x) { PB_LEVEL_BODY(pb_level4) }
PB_FN std::uint64_t pb_level2(std::uint64_t x) { PB_LEVEL_BODY(pb_level3) }
PB_FN std::uint64_t pb_level1(std::uint64_t x) { PB_LEVEL_BODY(pb_level2) }
PB_FN std::uint64_t pb_level0(std::uint64_t x) { PB_LEVEL_BODY(pb_level1) }

static_assert(perfbench::calltree::kDepth == 6,
              "pb_level0..pb_level5 spell out the depth");

PB_FN std::uint64_t pb_tree_root(std::uint64_t reps, std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t r = 0; r < reps; ++r) x = pb_level0(x + r);
  return x;
}
