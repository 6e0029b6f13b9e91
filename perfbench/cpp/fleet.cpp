// The fleet step: a real tempest-collectd runs for the whole run
// (started in set-up). Each round runs one or more bursts: up to nproc-1
// client threads stream complete synthetic sessions back to back over
// CollectClient connections, while the main thread, the one query
// connection, reads /sessions at a fixed cadence to time each fold. A
// burst ends when its sessions are folded, so every burst starts on
// empty shard queues. After the last burst the fleet is quiescent, and
// the query connection polls /profile
// through collectd::fetch_fleet_profile, the reader behind
// `tempest-diff --poll`; a poll fails when its read-back disagrees with
// the benchmark's own reading of /profile.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench.hpp"
#include "collectd/client.hpp"
#include "collectd/net.hpp"
#include "collectd/profile_client.hpp"
#include "json.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

using tempest::collectd::http_get;

constexpr const char* kProfileTarget = "/profile?top=1000";
constexpr std::size_t kProfileTop = 1000;
constexpr int kSessionVariants = 6;  ///< distinct sessions, reused round-robin
constexpr int kFinalQueries = 5;     ///< timed /profile reads per round
constexpr double kHttpTimeoutS = 5.0;
/// How often the query connection reads /sessions while a round streams.
/// The collector serves HTTP on its ingest thread, so a faster cadence
/// would slow the ingest it measures.
constexpr auto kWatchPeriod = std::chrono::milliseconds(5);

/// Stamp `seen` on every session named `prefix`... that /sessions lists
/// as folded. A plain scan, not a parse, to keep the watcher cheap: each
/// session object carries "name" before "state", and the benchmark's
/// names need no escaping.
void scan_folded(const std::string& body, const std::string& prefix, double seen,
                 std::map<std::string, double>* folded_at) {
  const std::string key = "\"name\":\"" + prefix;
  const std::string state = "\"state\":\"";
  for (std::size_t at = body.find(key); at != std::string::npos;
       at = body.find(key, at + key.size())) {
    const std::size_t begin = at + key.size() - prefix.size();
    const std::size_t end = body.find('"', begin);
    const std::size_t st = body.find(state, end);
    if (end == std::string::npos || st == std::string::npos) break;
    if (body.compare(st + state.size(), 7, "folded\"") == 0) {
      folded_at->emplace(body.substr(begin, end - begin), seen);
    }
  }
}

class FleetStep : public Step {
 public:
  bool setup(Context& ctx) override {
    sessions_ = make_fleet_sessions(ctx.seed, kSessionVariants,
                                    ctx.cfg.fleet_events_per_session);
    uds_ = ctx.work("ingest.sock");
    const std::string port_file = ctx.work("http.port");
    if (!daemon_.start({ctx.tool("tempest-collectd"), "--uds", uds_, "--http",
                        "127.0.0.1:0", "--port-file", port_file},
                       ctx.work("collectd.stderr"))) {
      return false;
    }
    const double deadline = now_s() + 20.0;
    while (now_s() < deadline) {
      const std::string text = read_file(port_file);
      if (!text.empty() && text.back() == '\n') {
        http_ = "tcp:127.0.0.1:" + std::to_string(std::stoul(text));
        if (http_get(http_, "/healthz", kHttpTimeoutS).is_ok()) return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

  void run_round(Context& ctx) override {
    for (int b = 0; b < ctx.cfg.fleet_bursts; ++b) {
      if (!stream_burst(ctx, b)) return;
    }
    for (int p = 0; p < ctx.cfg.fleet_polls; ++p) poll(ctx);
    final_queries(ctx);
  }

  void finish(Context& ctx) override {
    const ChildRun r = daemon_.stop();
    if (r.exit_code != 0) {
      ctx.outcome.broken("fleet: tempest-collectd exit " + std::to_string(r.exit_code));
    }
    if (!ctx.traced) ctx.sample("collectd_peak_rss_mib", r.peak_rss_mib);
  }

 private:
  /// One burst: every client streams its sessions back to back, and the
  /// burst ends when all of them read as folded. False if it never does.
  bool stream_burst(Context& ctx, int burst) {
    const int clients = ctx.cfg.fleet_clients;
    const int per_client = ctx.cfg.fleet_sessions_per_client;
    const std::size_t total = static_cast<std::size_t>(clients * per_client);

    struct Sent {
      std::string name;
      int variant = 0;
      double first_frame_s = 0.0;
      double send_s = 0.0;
      bool ok = false;
    };
    std::vector<Sent> sent(total);
    for (int c = 0; c < clients; ++c) {
      for (int k = 0; k < per_client; ++k) {
        const std::size_t i = static_cast<std::size_t>(c * per_client + k);
        sent[i].name = "pb-r" + std::to_string(ctx.round) + "-b" + std::to_string(burst) +
                       "-c" + std::to_string(c) + "-s" + std::to_string(k);
        sent[i].variant = static_cast<int>((i + static_cast<std::size_t>(ctx.round)) %
                                           kSessionVariants);
      }
    }

    // Each client streams its sessions back to back.
    std::atomic<std::size_t> send_failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int k = 0; k < per_client; ++k) {
          Sent& s = sent[static_cast<std::size_t>(c * per_client + k)];
          s.ok = stream_session(sessions_[static_cast<std::size_t>(s.variant)], s.name,
                                &s.first_frame_s, &s.send_s);
          if (!s.ok) ++send_failures;
        }
      });
    }

    // The query connection reads /sessions every kWatchPeriod and stamps
    // each of the round's sessions when it first reads as folded.
    const std::string prefix =
        "pb-r" + std::to_string(ctx.round) + "-b" + std::to_string(burst) + "-";
    std::map<std::string, double> folded_at;
    double queue_max = 0.0;
    bool stuck = false;
    const double deadline = now_s() + 60.0;
    auto next = std::chrono::steady_clock::now();
    while (folded_at.size() + send_failures.load() < total) {
      next = std::max(next + kWatchPeriod, std::chrono::steady_clock::now());
      std::this_thread::sleep_until(next);
      const auto got = http_get(http_, "/sessions", kHttpTimeoutS);
      const double seen = now_s();
      if (got.is_ok()) scan_folded(got.value(), prefix, seen, &folded_at);
      if (ctx.traced) {
        const auto m = http_get(http_, "/metrics", kHttpTimeoutS);
        std::string err;
        if (m.is_ok()) {
          queue_max = std::max(
              queue_max, json::parse_dom(m.value(), &err)["collect_queue_frames"].number_or(0));
        }
      }
      if (now_s() > deadline) {
        stuck = true;
        break;
      }
    }
    for (std::thread& t : threads) t.join();

    std::uint64_t burst_events = 0;
    double first = 1e300, last = 0.0;
    for (const Sent& s : sent) {
      if (!s.ok) {
        ctx.outcome.broken("fleet: streaming session " + s.name + " failed");
        continue;
      }
      const auto it = folded_at.find(s.name);
      if (it == folded_at.end()) {
        ctx.outcome.broken("fleet: session " + s.name + " never reported folded");
        continue;
      }
      ctx.outcome.ok();
      const FleetSession& fs = sessions_[static_cast<std::size_t>(s.variant)];
      burst_events += fs.events.size();
      cum_events_ += fs.events.size();
      ++cum_sessions_;
      for (const auto& [name, f] : fs.expect) {
        cum_expect_[name].calls += f.calls;
        cum_expect_[name].total_s += f.total_s;
      }
      first = std::min(first, s.first_frame_s);
      last = std::max(last, it->second);
      if (ctx.traced) {
        ctx.sample("collectd.client_send_s", s.send_s);
      } else {
        ctx.sample("queryable_ms", (it->second - s.first_frame_s) * 1e3);
      }
    }
    if (stuck) return false;
    if (!ctx.traced && last > first) {
      ctx.sample("ingest_events_per_s", static_cast<double>(burst_events) / (last - first));
    }
    if (ctx.traced) ctx.sample("collectd.queue_frames_max", queue_max);
    return true;
  }

  /// One complete session: HELLO, HEARTBEAT, META, EVENTS, SAMPLES, BYE.
  bool stream_session(const FleetSession& s, const std::string& name,
                      double* first_frame_s, double* send_s) {
    tempest::collectd::CollectClient client;
    const double t0 = now_s();
    if (!client.connect("uds:" + uds_, 5.0)) return false;
    *first_frame_s = now_s();
    client.send_hello(static_cast<std::uint64_t>(getpid()), name);
    client.send_heartbeat("{\"schema_version\":1,\"seq\":0,\"t\":0.25,\"events_recorded\":" +
                          std::to_string(s.events.size()) + "}");
    client.send_meta(s.header);
    client.send_fn_events(s.events.data(), s.events.size());
    client.send_temp_samples(s.samples.data(), s.samples.size());
    client.send_bye(s.events.size(), s.samples.size());
    const bool ok = client.alive();
    client.close();
    *send_s = now_s() - t0;
    return ok;
  }

  /// fetch_fleet_profile against the benchmark's own reading of the same
  /// quiescent fleet. Only a disagreement between two successful reads
  /// is the kept fault; a failed read is a broken operation.
  void poll(Context& ctx) {
    const auto fetched = tempest::collectd::fetch_fleet_profile(http_, kProfileTop,
                                                                kHttpTimeoutS);
    if (!fetched.is_ok()) {
      ctx.outcome.broken("fleet: fetch_fleet_profile failed: " + fetched.message());
      return;
    }
    const auto body = http_get(http_, kProfileTarget, kHttpTimeoutS);
    if (!body.is_ok()) {
      ctx.outcome.broken("fleet: GET /profile failed: " + body.message());
      return;
    }
    FleetView own;
    std::string err;
    if (!read_fleet_profile(body.value(), &own, &err)) {
      ctx.outcome.broken("fleet: /profile unreadable: " + err);
      return;
    }
    FleetView view;
    view.sessions_folded = fetched.value().sessions_folded;
    for (const auto& f : fetched.value().functions) {
      view.functions.push_back({f.name, f.calls, f.total_time_s});
    }
    const Errors errors = compare_fleet_views(view, own);
    if (errors.empty()) {
      ctx.outcome.ok();
    } else {
      ctx.outcome.fault("fleet: fetch_fleet_profile read-back disagrees with /profile: " +
                        errors.front());
    }
  }

  /// With the whole fleet loaded: timed /profile reads checked against
  /// the sessions sent so far, plus the collector's own accounting.
  void final_queries(Context& ctx) {
    for (int q = 0; q < kFinalQueries; ++q) {
      const double t0 = now_s();
      const auto got = http_get(http_, kProfileTarget, kHttpTimeoutS);
      const double ms = (now_s() - t0) * 1e3;
      if (!got.is_ok()) {
        ctx.outcome.broken("fleet: GET /profile failed: " + got.message());
        continue;
      }
      ctx.sample("collectd.profile_http_ms", ms);
      const Errors errors = check_fleet_profile(got.value(), cum_expect_, cum_sessions_);
      if (errors.empty()) {
        ctx.outcome.ok();
      } else {
        ctx.outcome.wrong("fleet: /profile", errors);
      }
    }
    if (ctx.traced) {
      const double t0 = now_s();
      const auto fetched =
          tempest::collectd::fetch_fleet_profile(http_, kProfileTop, kHttpTimeoutS);
      if (fetched.is_ok()) ctx.sample("collectd.profile_read_ms", (now_s() - t0) * 1e3);
    }

    // The collector's own accounting: everything sent was folded, none
    // aborted, and it folded exactly the events the clients sent.
    const auto runstats = http_get(http_, "/runstats", kHttpTimeoutS);
    const auto metrics = http_get(http_, "/metrics", kHttpTimeoutS);
    if (!runstats.is_ok() || !metrics.is_ok()) {
      ctx.outcome.broken("fleet: GET /runstats or /metrics failed");
      return;
    }
    std::string err;
    const json::Value rs = json::parse_dom(runstats.value(), &err);
    const json::Value m = json::parse_dom(metrics.value(), &err);
    Errors errors;
    if (rs["sessions_folded"].number_or(-1) != static_cast<double>(cum_sessions_)) {
      errors.push_back("/runstats sessions_folded " +
                       std::to_string(rs["sessions_folded"].number_or(-1)) + ", expected " +
                       std::to_string(cum_sessions_));
    }
    if (rs["sessions_aborted"].number_or(-1) != 0) {
      errors.push_back("/runstats sessions_aborted " +
                       std::to_string(rs["sessions_aborted"].number_or(-1)));
    }
    const double events = m["collect_events"].number_or(-1);
    if (events != static_cast<double>(cum_events_)) {
      errors.push_back("/metrics collect_events " + std::to_string(events) +
                       ", expected " + std::to_string(cum_events_));
    }
    if (errors.empty()) {
      ctx.outcome.ok();
    } else {
      ctx.outcome.wrong("fleet: collector accounting", errors);
    }
    if (ctx.traced) {
      ctx.sample("collectd.fold_us_mean", m["collect_fold_us_mean"].number_or(0));
      ctx.sample("collectd.bytes_per_event", m["collect_bytes"].number_or(0) / events);
    }
  }

  std::vector<FleetSession> sessions_;
  Daemon daemon_;
  std::string uds_;
  std::string http_;  ///< the query plane's endpoint, "tcp:127.0.0.1:PORT"
  std::map<std::string, FleetFunction> cum_expect_;
  std::uint64_t cum_sessions_ = 0;
  std::uint64_t cum_events_ = 0;
};

}  // namespace

std::unique_ptr<Step> make_fleet_step() { return std::make_unique<FleetStep>(); }

}  // namespace perfbench
