// The offline step: a seeded generator writes a baseline and a current
// trace once per run (set-up); each round runs tempest_parse,
// tempest-export to Perfetto and to speedscope, and tempest-diff on
// them, and checks every output against the generator's interval model.
//
// The traced run makes the same calls in-process, in the order each
// CLI makes them by default, with a span around each call into a layer.
#include <algorithm>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "common/cli.hpp"
#include "diff/diff.hpp"
#include "export/perfetto.hpp"
#include "export/speedscope.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stages.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

namespace pipeline = tempest::pipeline;
namespace exporter = tempest::exporter;

/// Untraced runs of each export and of the diff per round, together one
/// operation. One run of these CLIs varies by about 20 % from the next on
/// a 4-vCPU host, so a run's median needs more samples than rounds give.
/// The output is deterministic: the first run's output is checked, and
/// each later run must reproduce it byte for byte.
constexpr int kTimedRuns = 3;

/// Times every call of a wrapped stage; the total becomes one span.
class TimedStage : public pipeline::Stage {
 public:
  explicit TimedStage(pipeline::Stage* inner) : inner_(inner) {}
  tempest::Status process(const pipeline::TraceMeta& meta,
                          pipeline::EventBatch* batch) override {
    const double t0 = now_s();
    tempest::Status st = inner_->process(meta, batch);
    total_s += now_s() - t0;
    return st;
  }
  double total_s = 0.0;

 private:
  pipeline::Stage* inner_;
};

/// Times every call of a wrapped sink.
class TimedSink : public pipeline::BatchSink {
 public:
  explicit TimedSink(pipeline::BatchSink* inner) : inner_(inner) {}
  tempest::Status begin(const pipeline::TraceMeta& meta) override {
    return timed([&] { return inner_->begin(meta); });
  }
  tempest::Status on_batch(const pipeline::TraceMeta& meta,
                           const pipeline::EventBatch& batch) override {
    return timed([&] { return inner_->on_batch(meta, batch); });
  }
  tempest::Status on_end(const pipeline::TraceMeta& meta) override {
    return timed([&] { return inner_->on_end(meta); });
  }
  double total_s = 0.0;

 private:
  template <typename F>
  tempest::Status timed(F f) {
    const double t0 = now_s();
    tempest::Status st = f();
    total_s += now_s() - t0;
    return st;
  }
  pipeline::BatchSink* inner_;
};

/// read_trace_file + align_clocks, as every CLI's default (batch) path
/// starts. `syncs` receives the sync records before alignment consumes
/// them (the exporters' correlator needs them).
bool traced_load(Context& ctx, const std::string& path, tempest::trace::Trace* out,
                 std::vector<tempest::trace::ClockSync>* syncs) {
  {
    Scope s(&ctx.spans, "trace.read");
    auto loaded = tempest::trace::read_trace_file(path);
    if (!loaded.is_ok()) return false;
    *out = std::move(loaded).value();
  }
  if (syncs != nullptr) *syncs = out->clock_syncs;
  Scope s(&ctx.spans, "trace.clock_fit");
  return static_cast<bool>(tempest::trace::align_clocks(out));
}

/// tempest-export's default path: batch load, OrderCheckStage, one
/// exporter sink, output to `out_path`.
bool traced_export(Context& ctx, bool perfetto, const std::string& trace_path,
                   const std::string& out_path) {
  Scope op(&ctx.spans, perfetto ? "op.export_perfetto" : "op.export_speedscope");
  tempest::trace::Trace trace;
  std::vector<tempest::trace::ClockSync> syncs;
  if (!traced_load(ctx, trace_path, &trace, &syncs)) return false;
  pipeline::MemoryTraceSource source(trace);
  pipeline::OrderCheckStage order;
  TimedStage timed_order(&order);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  exporter::ClockCorrelator correlator(trace.tsc_ticks_per_second, syncs);
  std::optional<exporter::PerfettoExporter> pf;
  std::optional<exporter::SpeedscopeExporter> ss;
  pipeline::BatchSink* sink = nullptr;
  if (perfetto) {
    pf.emplace(out, std::move(correlator), nullptr);
    sink = &*pf;
  } else {
    ss.emplace(out, std::move(correlator), out_path, nullptr);
    sink = &*ss;
  }
  TimedSink timed_sink(sink);
  const double t0 = now_s();
  tempest::Status ran;
  {
    Scope run(&ctx.spans, "pipeline.run");
    ran = pipeline::run_pipeline(&source, {&timed_order}, {&timed_sink});
    ctx.spans.add_closed("pipeline.order_check", t0, timed_order.total_s);
    ctx.spans.add_closed(perfetto ? "export.perfetto_sink" : "export.speedscope_sink",
                         t0, timed_sink.total_s);
  }
  if (!ran) return false;
  const exporter::ExportStats& stats = perfetto ? pf->stats() : ss->stats();
  ctx.add(perfetto ? "export.perfetto_bytes" : "export.speedscope_bytes",
          static_cast<double>(stats.bytes_written));
  return true;
}

bool traced_diff(Context& ctx, const std::string& base, const std::string& cur,
                 const std::string& out_path) {
  Scope op(&ctx.spans, "op.diff");
  tempest::diff::LoadOptions load;  // tempest-diff defaults: align, 1 thread
  std::optional<tempest::diff::RunSummary> b, c;
  for (const auto& [path, slot] : {std::pair{&base, &b}, std::pair{&cur, &c}}) {
    Scope s(&ctx.spans, "diff.load_run");
    auto loaded = tempest::diff::load_run(*path, load);
    if (!loaded.is_ok()) return false;
    slot->emplace(std::move(loaded).value());
  }
  tempest::diff::DiffResult result;
  {
    Scope s(&ctx.spans, "diff.diff_runs");
    result = tempest::diff::diff_runs(*b, *c, tempest::diff::DiffOptions{});
  }
  Scope s(&ctx.spans, "diff.write_json");
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  tempest::diff::write_diff_json(out, result);
  out << "\n";
  return static_cast<bool>(out);
}

class OfflineStep : public Step {
 public:
  bool setup(Context& ctx) override {
    OfflineTraces traces = make_offline_traces(ctx.cfg.offline);
    base_path_ = ctx.work("offline.base.trace");
    cur_path_ = ctx.work("offline.current.trace");
    if (!tempest::trace::write_trace_file(base_path_, traces.base) ||
        !tempest::trace::write_trace_file(cur_path_, traces.current)) {
      return false;
    }
    expect_ = std::move(traces.current_expect);
    calls_ = calls_by_name(expect_);
    options_.time_rel_tol = traces.max_drift + 1e-6;
    options_.time_abs_tol = 1e-6;
    options_.check_sensors = true;
    diff_.stretched = traces.stretched;
    diff_.delta_s = traces.stretch_delta_s;
    diff_.rel_tol = traces.max_drift + 1e-4;
    diff_.changed = traces.ancestors;
    diff_.changed.push_back(traces.stretched);
    return true;
  }

  void run_round(Context& ctx) override {
    parse(ctx);
    export_format(ctx, true);
    export_format(ctx, false);
    diff(ctx);
  }

 private:
  void parse(Context& ctx) {
    const std::string out = ctx.work("offline.parse.json");
    const auto run = [&] {
      if (ctx.traced) return traced_parse(ctx, cur_path_, out);
      const ChildRun r = run_child({ctx.tool("tempest_parse"), "--format", "json", cur_path_},
                                   out, ctx.work("tools.stderr"));
      ctx.add("parse_s", r.wall_s);
      ctx.peak("parse_peak_rss_mib", r.peak_rss_mib);
      return r.exit_code == 0;
    };
    judge_runs(ctx, "offline: tempest_parse", 1, run, out, [&](const std::string& text) {
      return check_profile_json(text, expect_, options_);
    });
  }

  void export_format(Context& ctx, bool perfetto) {
    const char* format = perfetto ? "perfetto" : "speedscope";
    // tempest-export's default output path, next to the trace.
    const std::string out = cur_path_ + "." + format + ".json";
    const auto run = [&] {
      if (ctx.traced) return traced_export(ctx, perfetto, cur_path_, out);
      const ChildRun r = run_child({ctx.tool("tempest-export"), "--format", format, cur_path_},
                                   "-", ctx.work("tools.stderr"));
      ctx.sample(perfetto ? "export_perfetto_s" : "export_speedscope_s", r.wall_s);
      ctx.peak("export_peak_rss_mib", r.peak_rss_mib);
      return r.exit_code == 0;
    };
    judge_runs(ctx, std::string("offline: tempest-export ") + format, timed_runs(ctx), run,
               out,
               [&](const std::string& text) {
                 return perfetto ? check_perfetto(text, calls_)
                                 : check_speedscope(text, calls_);
               });
    remove_file(out + ".telemetry.jsonl");
  }

  void diff(Context& ctx) {
    const std::string out = ctx.work("offline.diff.json");
    const auto run = [&] {
      if (ctx.traced) return traced_diff(ctx, base_path_, cur_path_, out);
      const ChildRun r = run_child(
          {ctx.tool("tempest-diff"), "--format", "json", base_path_, cur_path_}, out,
          ctx.work("tools.stderr"));
      ctx.sample("diff_s", r.wall_s);
      return r.exit_code == 0;
    };
    judge_runs(ctx, "offline: tempest-diff", timed_runs(ctx), run, out,
               [&](const std::string& text) { return check_diff_json(text, diff_); });
  }

  /// The traced run keeps one call per round, so each layer's per-round
  /// self time describes one CLI run.
  static int timed_runs(const Context& ctx) { return ctx.traced ? 1 : kTimedRuns; }

  /// One operation: `runs` calls of `run`, each writing `out`. The first
  /// output is checked; each later one must equal it.
  template <typename RunFn, typename CheckFn>
  static void judge_runs(Context& ctx, const std::string& what, int runs, RunFn run,
                         const std::string& out, CheckFn check) {
    std::string first;
    Errors errors;
    for (int i = 0; i < runs && errors.empty(); ++i) {
      if (!run()) {
        ctx.outcome.broken(what + " failed to run");
        remove_file(out);
        return;
      }
      std::string text = read_file(out);
      remove_file(out);
      if (i == 0) {
        errors = check(text);
        first = std::move(text);
      } else if (text != first) {
        errors.push_back("run " + std::to_string(i + 1) +
                         " output differs from the checked first run");
      }
    }
    if (errors.empty()) {
      ctx.outcome.ok();
    } else {
      ctx.outcome.wrong(what, errors);
    }
  }

  std::string base_path_, cur_path_;
  ProfileExpect expect_;
  std::map<std::string, std::uint64_t> calls_;
  ProfileCheckOptions options_;
  DiffExpect diff_;
};

}  // namespace

bool traced_parse(Context& ctx, const std::string& trace_path,
                  const std::string& out_path) {
  Scope op(&ctx.spans, "op.parse");
  tempest::trace::Trace trace;
  if (!traced_load(ctx, trace_path, &trace, nullptr)) return false;
  pipeline::AnalysisOptions options;
  options.threads = tempest::cli::default_analysis_threads();
  options.timeline_hint = std::min(trace.fn_events.size() / 8 + 16, std::size_t{1} << 16);
  pipeline::AnalysisPipeline fold(options);
  fold.set_metadata(trace);
  fold.set_bounds(trace.start_tsc(), trace.end_tsc());
  {
    Scope s(&ctx.spans, "parser.fold_events");
    fold.add_fn_events(trace.fn_events.data(), trace.fn_events.size());
  }
  {
    Scope s(&ctx.spans, "parser.fold_samples");
    fold.add_temp_samples(trace.temp_samples.data(), trace.temp_samples.size());
  }
  pipeline::AnalysisResult result;
  {
    Scope s(&ctx.spans, "parser.finish");
    result = fold.finish();
  }
  Scope s(&ctx.spans, "report.json_emit");
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  pipeline::JsonEmitter emitter(out);
  if (!emitter.emit(result)) return false;
  out.close();
  ctx.add("report.json_bytes", static_cast<double>(file_size(out_path)));
  return static_cast<bool>(out);
}

std::unique_ptr<Step> make_offline_step() { return std::make_unique<OfflineStep>(); }

}  // namespace perfbench
