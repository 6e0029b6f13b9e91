// Output checks. Each takes a program output as text and an expectation
// computed independently of the program (models.hpp, calltree.hpp), and
// returns the list of disagreements — empty when the output is correct.
// The self-tests feed each one a tampered output and expect a failure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "models.hpp"

namespace perfbench {

using Errors = std::vector<std::string>;

struct ProfileCheckOptions {
  /// Relative and absolute tolerance on total_time_s; negative relative
  /// tolerance skips the time check.
  double time_rel_tol = -1.0;
  double time_abs_tol = 0.0;
  /// Compare per-sensor sample count, Min and Max (significant
  /// functions), and the significance flag.
  bool check_sensors = false;
  /// Names that must not appear on any node (filter-suppressed).
  std::vector<std::string> absent;
};

/// `tempest_parse --format json` output against per-(node, function)
/// expectations: the function set per node must match exactly.
Errors check_profile_json(std::string_view text, const ProfileExpect& expect,
                          const ProfileCheckOptions& options);

struct RunStatsExpect {
  std::uint64_t calls_observed = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_suppressed = 0;
};

/// The profile JSON's run_stats block (the trace's RUNSTATS trailer).
Errors check_run_stats(std::string_view profile_text, const RunStatsExpect& expect);

/// Perfetto/Chrome trace-event JSON: per name, B and E counts equal the
/// expected calls, and B/E nest per (pid, tid).
Errors check_perfetto(std::string_view text,
                      const std::map<std::string, std::uint64_t>& calls);

/// speedscope evented profiles: per frame name, O and C counts equal the
/// expected calls, and O/C nest per profile.
Errors check_speedscope(std::string_view text,
                        const std::map<std::string, std::uint64_t>& calls);

struct DiffExpect {
  std::string stretched;
  double delta_s = 0.0;
  double rel_tol = 0.0;
  /// Functions whose durations legitimately change (the stretched one
  /// and its ancestors); every other function must not be
  /// time_significant.
  std::vector<std::string> changed;
};

/// `tempest-diff --format json`: the stretched function ranks first
/// among regressions with the generator's delta, and no unchanged
/// function is time_significant.
Errors check_diff_json(std::string_view text, const DiffExpect& expect);

struct FleetEntry {
  std::string name;
  std::uint64_t calls = 0;
  double total_s = 0.0;
};

struct FleetView {
  std::uint64_t sessions_folded = 0;
  std::vector<FleetEntry> functions;
};

/// Read a collector /profile body with the benchmark's own JSON reader.
bool read_fleet_profile(std::string_view body, FleetView* out, std::string* error);

/// /profile against the sum of the folded sessions' expectations:
/// calls exact, total_time_s within 1e-5 relative, sessions_folded equal.
Errors check_fleet_profile(std::string_view body,
                           const std::map<std::string, FleetFunction>& expect,
                           std::uint64_t sessions);

/// A client-side read-back (fetch_fleet_profile) against the benchmark's
/// own reading of the same fleet state.
Errors compare_fleet_views(const FleetView& fetched, const FleetView& own);

}  // namespace perfbench
