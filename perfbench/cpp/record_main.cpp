// perfbench_record: the instrumented program of the `record` workload.
//
//   perfbench_record --out TRACE --filter FILE --threads N --reps R
//                    [--traced --hook-calls N]
//
// Runs N threads, each attached to one of 4 simulated nodes, through the
// instrumented call tree R times while a Tempest session records at
// 4 Hz with the heartbeat on and FILE suppressing the hot leaves. Prints
// one JSON line: per-call wall cost on the workload threads and the
// Session::stop() wall time.
//
// --traced is the per-layer variant: it also times accepted and
// rejected hook calls made directly from here, stops with no output
// path (drain only; the heartbeat needs an output path, so it is off),
// and times write_trace_file of the taken trace separately.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "calltree.hpp"
#include "core/session.hpp"
#include "simnode/cluster.hpp"
#include "telemetry/log.hpp"
#include "trace/writer.hpp"
#include "util.hpp"

namespace {

using tempest::core::Session;

/// ns per hook call (one enter or one exit), `pairs` enter/exit pairs
/// on `addr` from the calling thread.
double hook_ns(Session& session, std::uint64_t addr, std::uint64_t pairs) {
  const double t0 = perfbench::now_s();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    session.record_enter(addr);
    session.record_exit(addr);
  }
  return (perfbench::now_s() - t0) * 1e9 / static_cast<double>(2 * pairs);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, filter_path;
  unsigned threads = 4;
  std::uint64_t reps = 1000, hook_calls = 0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--out") {
      out_path = v, ++i;
    } else if (a == "--filter") {
      filter_path = v, ++i;
    } else if (a == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10)), ++i;
    } else if (a == "--reps") {
      reps = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--hook-calls") {
      hook_calls = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "perfbench_record: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (out_path.empty() || threads == 0 || threads > 64 || reps == 0) {
    std::fprintf(stderr, "perfbench_record: need --out, 1..64 threads, reps > 0\n");
    return 2;
  }
  tempest::telemetry::Logger::instance().set_threshold(
      tempest::telemetry::LogLevel::kError);

  // Four simulated nodes with skewed, drifting clocks: tempd records the
  // clock syncs the parser aligns with.
  tempest::simnode::ClusterConfig cc;
  cc.nodes = 4;
  cc.kind = tempest::simnode::NodeKind::kX86Basic;
  cc.max_tsc_offset_s = 0.002;
  cc.max_tsc_drift_ppm = 20.0;
  tempest::simnode::Cluster cluster(cc);
  Session& session = Session::instance();
  session.clear_nodes();
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    session.register_sim_node(&cluster.node(n));
  }

  tempest::core::SessionConfig config;
  config.sample_hz = 4.0;
  config.bind_affinity = false;
  config.auto_report = false;
  config.heartbeat_period_s = 0.25;
  config.filter_path = filter_path;
  if (!traced) config.output_path = out_path;
  if (!session.start(config)) {
    std::fprintf(stderr, "perfbench_record: session start failed\n");
    return 1;
  }

  std::vector<double> thread_s(threads, 0.0);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      (void)session.attach_current_thread(static_cast<std::uint16_t>(t % 4), 0);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const double t0 = perfbench::now_s();
      const std::uint64_t x = pb_tree_root(reps, t + 1);
      thread_s[t] = perfbench::now_s() - t0;
      asm volatile("" : : "r"(x));
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  double accept_ns = 0.0, reject_ns = 0.0;
  if (traced && hook_calls > 0) {
    (void)session.attach_current_thread(0, 0);
    accept_ns = hook_ns(session, session.synthetic_addr("perfbench.accepted"),
                        hook_calls);
    reject_ns = hook_ns(session, session.synthetic_addr("perfbench.rejected"),
                        hook_calls);
  }

  const double stop_t0 = perfbench::now_s();
  const bool stopped = static_cast<bool>(session.stop());
  const double stop_s = perfbench::now_s() - stop_t0;
  if (!stopped) {
    std::fprintf(stderr, "perfbench_record: session stop failed\n");
    return 1;
  }
  double write_s = 0.0;
  if (traced) {
    const tempest::trace::Trace trace = session.take_trace();
    const double w0 = perfbench::now_s();
    if (!tempest::trace::write_trace_file(out_path, trace)) {
      std::fprintf(stderr, "perfbench_record: cannot write %s\n", out_path.c_str());
      return 1;
    }
    write_s = perfbench::now_s() - w0;
  }

  // Median over the workload threads: one descheduled thread moves it
  // less than it moves a mean.
  const double calls = static_cast<double>(perfbench::calltree::total_calls(reps));
  std::printf(
      "{\"call_ns\":%s,\"stop_s\":%s,\"write_s\":%s,"
      "\"hook_accept_ns\":%s,\"hook_reject_ns\":%s}\n",
      perfbench::json_number(perfbench::median(thread_s) * 1e9 / calls).c_str(),
      perfbench::json_number(stop_s).c_str(),
      perfbench::json_number(write_s).c_str(),
      perfbench::json_number(accept_ns).c_str(),
      perfbench::json_number(reject_ns).c_str());
  return 0;
}
