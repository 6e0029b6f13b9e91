// perfbench: the Tempest end-to-end benchmark.
//
//   perfbench --workload record|offline|fleet --seed N --seconds S
//             --trace 0|1 --bin BUILD_DIR --work SCRATCH_DIR
//             [--git-sha SHA] [--spans-out PATH]
//
// Every round runs the record, offline and fleet steps (bench.hpp); the
// workload sizes them. With --trace 0 the last stdout line carries the
// end-to-end metrics (medians over the run's rounds); with --trace 1 the
// same rounds call the layers in-process under spans and the line
// carries the per-layer metrics. Rounds are whole: the run stops at the
// first round boundary after S seconds.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util.hpp"

namespace perfbench {

void Outcome::wrong(const std::string& what, const Errors& errs) {
  ++attempted;
  ++failed;
  correct = false;
  if (errors.size() < 20) {
    errors.push_back(what + ": " + errs.front() +
                     (errs.size() > 1 ? " (+" + std::to_string(errs.size() - 1) +
                                            " more)"
                                      : ""));
  }
}

void Outcome::broken(const std::string& what) {
  ++attempted;
  ++failed;
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

void Outcome::fault(const std::string& what) {
  ++attempted;
  ++failed;
  if (known_fault.empty()) known_fault = what;
}

void Context::end_round() {
  for (const auto& [name, v] : round_sum) samples[name].push_back(v);
  for (const auto& [name, v] : round_max) samples[name].push_back(v);
  round_sum.clear();
  round_max.clear();
}

bool workload_config(const std::string& name, std::uint64_t seed,
                     unsigned hardware_threads, WorkloadConfig* out) {
  WorkloadConfig c;
  c.record_threads = std::clamp(hardware_threads, 1u, 4u);
  c.fleet_clients = static_cast<int>(std::clamp(hardware_threads, 2u, 4u)) - 1;
  c.offline.seed = seed;
  if (name == "record") {
    c.record_reps = 3000;
  } else if (name == "offline") {
    c.offline.iters_per_thread = 1800;
  } else if (name == "fleet") {
    c.fleet_bursts = 3;
    c.fleet_polls = 6;
  } else {
    return false;
  }
  *out = c;
  return true;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"record_call_ns", "ns"},
    {"record_stop_s", "s"},
    {"record_peak_rss_mib", "MiB"},
    {"trace_bytes_per_event", "bytes"},
    {"parse_s", "s"},
    {"parse_peak_rss_mib", "MiB"},
    {"export_perfetto_s", "s"},
    {"export_speedscope_s", "s"},
    {"export_peak_rss_mib", "MiB"},
    {"diff_s", "s"},
    {"ingest_events_per_s", "1/s"},
    {"queryable_ms", "ms"},
    {"collectd_peak_rss_mib", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"core.hook_accept_ns", "ns"},
    {"core.hook_reject_ns", "ns"},
    {"core.probe_cost_ns", "ns"},
    {"core.buffer_flushes", "count"},
    {"core.tempd_cpu_s", "s"},
    {"core.stop_drain_s", "s"},
    {"trace.write_s", "s"},
    {"trace.write_mib_per_s", "MiB/s"},
    {"trace.read_s", "s"},
    {"trace.clock_fit_s", "s"},
    {"pipeline.order_check_s", "s"},
    {"pipeline.run_self_s", "s"},
    {"parser.fold_events_s", "s"},
    {"parser.fold_samples_s", "s"},
    {"parser.finish_s", "s"},
    {"report.json_emit_s", "s"},
    {"report.json_bytes", "bytes"},
    {"export.perfetto_sink_s", "s"},
    {"export.perfetto_bytes", "bytes"},
    {"export.speedscope_sink_s", "s"},
    {"export.speedscope_bytes", "bytes"},
    {"diff.load_run_s", "s"},
    {"diff.diff_runs_s", "s"},
    {"diff.write_json_s", "s"},
    {"collectd.client_send_s", "s"},
    {"collectd.fold_us_mean", "us"},
    {"collectd.queue_frames_max", "count"},
    {"collectd.bytes_per_event", "bytes"},
    {"collectd.profile_http_ms", "ms"},
    {"collectd.profile_read_ms", "ms"},
};

/// Span names whose per-round self time is a per-layer metric.
const char* const kSpanLayers[] = {
    "trace.read",         "trace.clock_fit",        "pipeline.order_check",
    "parser.fold_events", "parser.fold_samples",    "parser.finish",
    "report.json_emit",   "export.perfetto_sink",   "export.speedscope_sink",
    "diff.load_run",      "diff.diff_runs",         "diff.write_json",
};

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload record|offline|fleet "
               "--seed N --seconds S --trace 0|1 --bin DIR --work DIR "
               "[--git-sha SHA] [--spans-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  if (!start_spawner()) {
    std::fprintf(stderr, "perfbench: cannot start the spawner process\n");
    return 1;
  }
  std::string workload, bin_dir, work_dir, git_sha = "unknown", spans_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (a == "--bin") {
      bin_dir = v;
    } else if (a == "--work") {
      work_dir = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --flag value pairs");
  if (bin_dir.empty() || work_dir.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("missing or bad arguments");
  }

  Provenance prov = host_provenance();
  prov.git_sha = git_sha;
#ifndef NDEBUG
  const bool optimised = false;
#else
  const bool optimised = prov.build_type == "Release";
#endif
  if (!optimised) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 prov.build_type.c_str());
    return 2;
  }

  Context ctx;
  const unsigned cpus = usable_cpus();
  if (!workload_config(workload, seed, cpus, &ctx.cfg)) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  ctx.seed = seed;
  ctx.traced = trace == 1;
  ctx.bin_dir = bin_dir;
  ctx.work_dir = work_dir;
  ctx.spans = SpanRecorder(ctx.traced);

  std::printf(
      "{\"provenance\":{\"hardware_threads\":%u,\"usable_cpus\":%u,\"cpu_model\":%s,"
      "\"build_type\":%s,\"git_sha\":%s,\"workload\":%s,\"seed\":%llu,\"trace\":%d}}\n",
      prov.hardware_threads, cpus, json_quote(prov.cpu_model).c_str(),
      json_quote(prov.build_type).c_str(), json_quote(prov.git_sha).c_str(),
      json_quote(workload).c_str(), static_cast<unsigned long long>(seed), trace);
  std::fflush(stdout);

  std::vector<std::unique_ptr<Step>> steps;
  steps.push_back(make_record_step());
  steps.push_back(make_offline_step());
  steps.push_back(make_fleet_step());
  for (auto& step : steps) {
    if (!step->setup(ctx)) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      for (auto& s : steps) s->finish(ctx);
      return 1;
    }
  }
  const double setup_s = now_s() - t_start;

  const double t_measure = now_s();
  while (ctx.round == 0 || now_s() - t_measure < seconds) {
    ctx.spans.set_round(ctx.round);
    for (auto& step : steps) step->run_round(ctx);
    ctx.end_round();
    ++ctx.round;
    if (!ctx.outcome.correct) break;  // stop at the first wrong output
  }
  for (auto& step : steps) step->finish(ctx);

  // Span self times per round become the per-layer time metrics.
  for (const auto& [round, by_name] : ctx.spans.self_time_by_round()) {
    for (const char* layer : kSpanLayers) {
      const auto it = by_name.find(layer);
      ctx.samples[std::string(layer) + "_s"].push_back(it == by_name.end() ? 0.0
                                                                           : it->second);
    }
    const auto run = by_name.find("pipeline.run");
    ctx.samples["pipeline.run_self_s"].push_back(run == by_name.end() ? 0.0 : run->second);
  }
  if (ctx.traced) {
    // Each operation's traced wall time, summed per round like the
    // untraced parse_s, for the tracing-overhead comparison.
    std::map<std::string, std::map<int, double>> op_wall;
    for (const Span& s : ctx.spans.spans()) {
      if (s.parent < 0 && s.name.rfind("op.", 0) == 0) {
        op_wall[s.name][s.round] += s.end_s - s.start_s;
      }
    }
    std::string line = "{\"traced_ops_s\":{";
    bool first = true;
    for (const auto& [name, by_round] : op_wall) {
      std::vector<double> v;
      for (const auto& [round, wall] : by_round) v.push_back(wall);
      if (!first) line += ",";
      line += json_quote(name);
      line += ":";
      line += json_number(median(v));
      first = false;
    }
    std::printf("%s}}\n", line.c_str());
    if (!spans_out.empty()) write_file(spans_out, ctx.spans.to_jsonl());
  }
  ctx.samples["setup_s"] = {setup_s};

  for (const std::string& e : ctx.outcome.errors) {
    std::fprintf(stderr, "perfbench: WRONG %s\n", e.c_str());
  }
  if (!ctx.outcome.known_fault.empty()) {
    std::printf("{\"known_fault\":%s}\n", json_quote(ctx.outcome.known_fault).c_str());
  }

  std::string metrics;
  bool complete = true;
  const auto emit = [&](const MetricDef* defs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = ctx.samples.find(defs[i].name);
      if (it == ctx.samples.end() || it->second.empty()) {
        std::fprintf(stderr, "perfbench: no samples for %s\n", defs[i].name);
        complete = false;
        continue;
      }
      if (!metrics.empty()) metrics += ",";
      metrics += json_quote(defs[i].name) + ":{\"value\":" +
                 json_number(median(it->second)) + ",\"unit\":" +
                 json_quote(defs[i].unit) + "}";
    }
  };
  if (ctx.traced) {
    emit(kPerLayer, sizeof kPerLayer / sizeof kPerLayer[0]);
  } else {
    emit(kEndToEnd, sizeof kEndToEnd / sizeof kEndToEnd[0]);
  }
  if (!complete) return 1;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              ctx.outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.outcome.attempted),
              static_cast<unsigned long long>(ctx.outcome.failed), metrics.c_str());
  return 0;
}
