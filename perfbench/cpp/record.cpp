// The record step: run the instrumented program (perfbench_record) once
// per round, then parse the trace it wrote and check the per-function
// call counts and RUNSTATS against the call tree's own counts.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "calltree.hpp"
#include "common/filter_file.hpp"
#include "json.hpp"
#include "trace/reader.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kHookCalls = 500'000;  ///< traced-run hook loop pairs
constexpr double kMiB = 1024.0 * 1024.0;

class RecordStep : public Step {
 public:
  bool setup(Context& ctx) override {
    filter_path_ = ctx.work("record.filter");
    tempest::common::FilterFile ff;
    for (const std::string& name : calltree::suppressed_functions()) {
      ff.rules.push_back({name, "hot leaf"});
    }
    ff.rules.push_back({"perfbench.rejected", "traced-run reject probe"});
    if (!tempest::common::write_filter_file(filter_path_, ff)) return false;
    build_expectation(ctx);
    return true;
  }

  void run_round(Context& ctx) override {
    const std::string trace_path = ctx.work("record.trace");
    const std::string json_path = ctx.work("record.json");
    std::vector<std::string> argv = {
        ctx.bin_dir + "/perfbench_record", "--out", trace_path, "--filter",
        filter_path_, "--threads", std::to_string(ctx.cfg.record_threads),
        "--reps", std::to_string(ctx.cfg.record_reps)};
    if (ctx.traced) {
      argv.insert(argv.end(), {"--traced", "--hook-calls", std::to_string(kHookCalls)});
    }
    ChildRun rec;
    {
      Scope s(&ctx.spans, "op.record");
      rec = run_child(argv, ctx.work("record.out"), ctx.work("record.stderr"));
    }
    std::string err;
    const json::Value out = json::parse_dom(read_file(ctx.work("record.out")), &err);
    if (rec.exit_code != 0 || !err.empty()) {
      ctx.outcome.broken("record: perfbench_record exit " +
                         std::to_string(rec.exit_code) + " " + err);
      return;
    }
    ctx.outcome.ok();
    const std::uint64_t trace_bytes = file_size(trace_path);
    if (ctx.traced) {
      ctx.sample("core.hook_accept_ns", out["hook_accept_ns"].num);
      ctx.sample("core.hook_reject_ns", out["hook_reject_ns"].num);
      ctx.sample("core.stop_drain_s", out["stop_s"].num);
      ctx.sample("trace.write_s", out["write_s"].num);
      ctx.sample("trace.write_mib_per_s",
                 static_cast<double>(trace_bytes) / kMiB / out["write_s"].num);
    } else {
      ctx.sample("record_call_ns", out["call_ns"].num);
      ctx.sample("record_stop_s", out["stop_s"].num);
      ctx.sample("record_peak_rss_mib", rec.peak_rss_mib);
      ctx.sample("trace_bytes_per_event",
                 static_cast<double>(trace_bytes) /
                     static_cast<double>(expect_stats_.events_recorded));
    }

    // Parse the recording the way a user would.
    bool parsed = false;
    if (ctx.traced) {
      parsed = traced_parse(ctx, trace_path, json_path);
      if (parsed) {
        auto loaded = tempest::trace::read_trace_file(trace_path);
        if (loaded.is_ok()) {
          const tempest::trace::RunStats& rs = loaded.value().run_stats;
          ctx.sample("core.probe_cost_ns", rs.probe_cost_ns_mean);
          ctx.sample("core.buffer_flushes", static_cast<double>(rs.buffer_flushes));
          ctx.sample("core.tempd_cpu_s", rs.tempd_cpu_seconds);
        }
      }
    } else {
      const ChildRun parse = run_child(
          {ctx.tool("tempest_parse"), "--format", "json", trace_path}, json_path,
          ctx.work("tools.stderr"));
      parsed = parse.exit_code == 0;
      ctx.add("parse_s", parse.wall_s);
      ctx.peak("parse_peak_rss_mib", parse.peak_rss_mib);
    }
    if (!parsed) {
      ctx.outcome.broken("record: tempest_parse of the recorded trace failed");
    } else {
      const std::string text = read_file(json_path);
      Errors errors = check_profile_json(text, ctx.traced ? expect_traced_ : expect_,
                                         options_);
      const Errors rs_errors =
          check_run_stats(text, ctx.traced ? expect_stats_traced_ : expect_stats_);
      errors.insert(errors.end(), rs_errors.begin(), rs_errors.end());
      if (errors.empty()) {
        ctx.outcome.ok();
      } else {
        ctx.outcome.wrong("record: parsed profile", errors);
      }
    }
    remove_file(trace_path);
    remove_file(trace_path + ".telemetry.jsonl");
    remove_file(json_path);
  }

 private:
  /// Per-node call counts: thread t runs on node t % 4 and makes
  /// calltree::calls_per_root(reps) calls; suppressed leaves vanish.
  void build_expectation(const Context& ctx) {
    const auto per_thread = calltree::calls_per_root(ctx.cfg.record_reps);
    const auto suppressed = calltree::suppressed_functions();
    std::uint64_t total = 0, rejected = 0;
    for (unsigned t = 0; t < ctx.cfg.record_threads; ++t) {
      const int node = static_cast<int>(t % 4);
      for (const auto& [name, n] : per_thread) {
        total += n;
        if (std::find(suppressed.begin(), suppressed.end(), name) != suppressed.end()) {
          rejected += n;
          continue;
        }
        expect_[{node, name}].calls += n;
      }
    }
    // Every call is two hook invocations (enter and exit).
    expect_stats_.calls_observed = 2 * total;
    expect_stats_.events_suppressed = 2 * rejected;
    expect_stats_.events_recorded = 2 * (total - rejected);
    options_.absent = suppressed;
    options_.absent.push_back("perfbench.rejected");

    // The traced run adds kHookCalls accepted and rejected pairs from the
    // main thread, attached to node 0.
    expect_traced_ = expect_;
    expect_traced_[{0, "perfbench.accepted"}].calls = kHookCalls;
    expect_stats_traced_ = expect_stats_;
    expect_stats_traced_.calls_observed += 4 * kHookCalls;
    expect_stats_traced_.events_recorded += 2 * kHookCalls;
    expect_stats_traced_.events_suppressed += 2 * kHookCalls;
  }

  std::string filter_path_;
  ProfileExpect expect_, expect_traced_;
  RunStatsExpect expect_stats_, expect_stats_traced_;
  ProfileCheckOptions options_;
};

}  // namespace

std::unique_ptr<Step> make_record_step() { return std::make_unique<RecordStep>(); }

}  // namespace perfbench
