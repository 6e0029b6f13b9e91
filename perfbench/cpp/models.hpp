// Seeded input generators and the expected results that follow from
// them. Every expectation here is computed from the generator's own
// interval model, never from the program under test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

/// Expected per-sensor attribution for one (node, function).
struct SensorExpect {
  std::uint64_t samples = 0;
  double min_f = 0.0;  ///< Fahrenheit, the profile's default unit
  double max_f = 0.0;
};

struct FunctionExpect {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< inclusive time, global clock
  /// By sensor name; empty when sensor attribution is not checked.
  std::map<std::string, SensorExpect> sensors;
};

/// (node id, function name) -> expectation.
using ProfileExpect = std::map<std::pair<int, std::string>, FunctionExpect>;

/// Pool an expectation across nodes: name -> calls.
std::map<std::string, std::uint64_t> calls_by_name(const ProfileExpect& e);

// -- offline: two single-file traces -------------------------------------

/// Added to each call of the stretched function in the current trace.
inline constexpr double kOfflineStretchUs = 15.0;

struct OfflineSpec {
  std::uint64_t seed = 1;
  /// Solver iterations per thread, split unevenly across the phases:
  /// the seed moves durations and the split, never the trace's size.
  std::uint64_t iters_per_thread = 960;
};

struct OfflineTraces {
  tempest::trace::Trace base;
  tempest::trace::Trace current;
  ProfileExpect base_expect;
  ProfileExpect current_expect;
  std::string stretched;          ///< the mid-depth function stretched
  double stretch_delta_s = 0.0;   ///< total added time across all calls
  std::vector<std::string> ancestors;  ///< of `stretched`: durations change too
  double max_drift = 0.0;         ///< largest |rate - 1| across node clocks
  std::uint64_t events = 0;       ///< fn events per trace
};

/// Generate the baseline and current traces. Both carry 4 nodes with
/// skewed, drifting TSCs plus sync records, several threads per node,
/// 2 sensors per node sampled at 4 Hz, and demangled C++ names
/// (templates, lambdas) as synthetic symbols.
OfflineTraces make_offline_traces(const OfflineSpec& spec);

// -- fleet: synthetic collector sessions ----------------------------------

struct FleetFunction {
  std::uint64_t calls = 0;
  double total_s = 0.0;
};

struct FleetSession {
  tempest::trace::TraceHeader header;
  std::vector<tempest::trace::FnEvent> events;
  std::vector<tempest::trace::TempSample> samples;
  std::map<std::string, FleetFunction> expect;  ///< by function name
};

/// `variants` distinct single-node sessions of about `events_per_session`
/// fn events each, with lambda names among their functions.
std::vector<FleetSession> make_fleet_sessions(std::uint64_t seed, int variants,
                                              std::uint64_t events_per_session);

}  // namespace perfbench
