// The benchmark's shared state: workload sizing, the per-run
// context, and the three steps every round runs (record, offline,
// fleet). Each workload runs all three steps, sized so that its own
// layer dominates the round; every run therefore reports every metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "models.hpp"
#include "spans.hpp"

namespace perfbench {

struct WorkloadConfig {
  // record: the instrumented program
  unsigned record_threads = 4;
  std::uint64_t record_reps = 1000;
  // offline: generated trace pair
  OfflineSpec offline;
  // fleet: synthetic sessions streamed to the collector
  int fleet_clients = 3;
  int fleet_sessions_per_client = 20;
  int fleet_bursts = 1;         ///< bursts per round, each folded before the next
  std::uint64_t fleet_events_per_session = 50'000;
  int fleet_polls = 2;          ///< fetch_fleet_profile polls per round
};

/// Known workloads; false when `name` is not one.
bool workload_config(const std::string& name, std::uint64_t seed,
                     unsigned hardware_threads, WorkloadConfig* out);

/// Metric samples collected over a run: name -> one value per round
/// (or per session, for per-session latencies). Reported as medians.
using Samples = std::map<std::string, std::vector<double>>;

/// Operation accounting for the result line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;    ///< wrong outputs (first few kept)
  std::string known_fault;            ///< first failure of the kept fault

  void ok() { ++attempted; }
  /// An operation whose output disagreed with the expectation.
  void wrong(const std::string& what, const Errors& errors);
  /// An operation that could not complete (crash, non-zero exit).
  void broken(const std::string& what);
  /// An operation that fails because of the known fault the benchmark
  /// keeps visible: counted as failed, `correct` is untouched.
  void fault(const std::string& what);
};

struct Context {
  WorkloadConfig cfg;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string bin_dir;   ///< build tree holding tools/ and the bench binaries
  std::string work_dir;  ///< scratch directory for this run
  SpanRecorder spans{false};
  Samples samples;
  Outcome outcome;
  int round = 0;

  std::string tool(const std::string& name) const { return bin_dir + "/tools/" + name; }
  std::string work(const std::string& name) const { return work_dir + "/" + name; }
  /// Per-round figures: sample() adds one value directly; add() sums
  /// and peak() maximises within the round, flushed by end_round().
  std::map<std::string, double> round_sum, round_max;

  void sample(const std::string& metric, double v) { samples[metric].push_back(v); }
  void add(const std::string& metric, double v) { round_sum[metric] += v; }
  void peak(const std::string& metric, double v) {
    double& m = round_max[metric];
    if (v > m) m = v;
  }
  void end_round();
};

/// One step of a round. setup() runs once before the measured rounds
/// (its time counts toward setup_s); run_round() once per round;
/// finish() after the last round.
class Step {
 public:
  virtual ~Step() = default;
  virtual bool setup(Context& ctx) = 0;
  virtual void run_round(Context& ctx) = 0;
  virtual void finish(Context& /*ctx*/) {}
};

std::unique_ptr<Step> make_record_step();
std::unique_ptr<Step> make_offline_step();
std::unique_ptr<Step> make_fleet_step();

/// Shared by the record and offline steps: tempest_parse's default
/// path (read, align, fold, JSON emit) called in-process under spans.
/// Writes the JSON profile to `out_path`; false on error.
bool traced_parse(Context& ctx, const std::string& trace_path,
                  const std::string& out_path);

}  // namespace perfbench
