#include "models.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util.hpp"

namespace perfbench {
namespace {

using tempest::trace::ClockSync;
using tempest::trace::FnEvent;
using tempest::trace::FnEventKind;
using tempest::trace::TempSample;

constexpr double kTicksPerSecond = 1e9;   // 1 tick = 1 ns
constexpr std::uint64_t kUs = 1000;       // ticks per microsecond
constexpr std::uint64_t kGlobalBase = 1'000'000'000'000ULL;  // 1000 s
constexpr int kNodes = 4;
constexpr int kThreadsPerNode = 3;
constexpr int kPhases = 6;  // per thread

/// The offline call tree's functions (demangled C++ names).
enum OfflineFn {
  kPhase, kSweep, kApply, kLambdaInt, kHalo, kResize, kNew, kReduce,
  kLambdaMain, kOfflineFnCount
};
const char* const kOfflineNames[kOfflineFnCount] = {
    "app::Engine<double, 3>::run_phase(unsigned long)",
    "app::Solver<app::Stencil<7> >::sweep(double*, unsigned long)",
    "app::Stencil<7>::apply(double const*, double*) const",
    "main::{lambda(int)#2}::operator()(int) const",
    "app::Mesh<double>::exchange_halo(int) const",
    "std::vector<double, std::allocator<double> >::resize(unsigned long)",
    "operator new(unsigned long)",
    "app::reduce<double>(std::span<double const, 18446744073709551615ul>)",
    "main::{lambda()#1}::operator()() const",
};

/// One node's clock: node_tsc = round(global * rate) + offset.
struct NodeClock {
  double rate = 1.0;
  std::int64_t offset = 0;
  std::uint64_t to_node(std::uint64_t global) const {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(global) * rate) + offset);
  }
};

/// Inclusive intervals per (node, function) in global ticks, the model
/// the expectations are computed from.
struct IntervalModel {
  std::map<std::pair<int, int>, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      intervals;
};

/// Records one thread's events into a trace (node clock) and the model
/// (global clock). Times advance in whole microseconds so that sample
/// times, placed half a microsecond off the grid, can never sit on an
/// interval boundary after the clock round trip.
class ThreadWriter {
 public:
  ThreadWriter(tempest::trace::Trace* trace, IntervalModel* model,
               const NodeClock& clock, int node, std::uint32_t tid,
               std::uint64_t start_global)
      : trace_(trace), model_(model), clock_(clock), node_(node), tid_(tid),
        now_(start_global) {}

  void advance_us(std::uint64_t us) { now_ += us * kUs; }
  void enter(int fn) {
    stack_.emplace_back(fn, now_);
    push(fn, FnEventKind::kEnter);
  }
  void exit() {
    const auto [fn, begin] = stack_.back();
    stack_.pop_back();
    push(fn, FnEventKind::kExit);
    model_->intervals[{node_, fn}].emplace_back(begin, now_);
  }
  std::uint64_t now() const { return now_; }

 private:
  void push(int fn, FnEventKind kind) {
    FnEvent e;
    e.tsc = clock_.to_node(now_);
    e.addr = tempest::trace::kSyntheticAddrBase + static_cast<std::uint64_t>(fn);
    e.thread_id = tid_;
    e.node_id = static_cast<std::uint16_t>(node_);
    e.kind = kind;
    trace_->fn_events.push_back(e);
  }

  tempest::trace::Trace* trace_;
  IntervalModel* model_;
  NodeClock clock_;
  int node_;
  std::uint32_t tid_;
  std::uint64_t now_;
  std::vector<std::pair<int, std::uint64_t>> stack_;
};

/// One thread's draws, recorded once and replayed into both traces so
/// the baseline and the current trace differ only by the stretch.
struct Draws {
  explicit Draws(Rng* rng) : rng_(rng) {}
  std::uint64_t operator()(std::uint64_t lo, std::uint64_t hi) {
    if (pos_ == values_.size()) values_.push_back(rng_->range(lo, hi));
    return values_[pos_++];
  }
  void rewind() { pos_ = 0; }

 private:
  Rng* rng_;
  std::vector<std::uint64_t> values_;
  std::size_t pos_ = 0;
};

void run_thread(ThreadWriter& w, Draws& draw, const OfflineSpec& spec,
                std::uint64_t stretch_us) {
  std::vector<std::uint64_t> weights;
  std::uint64_t weight_sum = 0;
  for (int p = 0; p < kPhases; ++p) {
    weights.push_back(draw(1, 100));
    weight_sum += weights.back();
  }
  std::uint64_t iters_left = spec.iters_per_thread;
  for (int p = 0; p < kPhases; ++p) {
    w.enter(kPhase);
    w.advance_us(5);
    const std::uint64_t iters =
        p + 1 == kPhases
            ? iters_left
            : spec.iters_per_thread * weights[static_cast<std::size_t>(p)] / weight_sum;
    iters_left -= iters;
    for (std::uint64_t it = 0; it < iters; ++it) {
      w.enter(kSweep);
      w.advance_us(draw(40, 50));
      for (int k = 0; k < 3; ++k) {
        w.enter(kApply);
        w.advance_us(draw(20, 40));
        w.exit();
        w.advance_us(2);
      }
      w.enter(kLambdaInt);
      w.advance_us(draw(15, 25));
      w.exit();
      w.advance_us(draw(100, 110) + stretch_us);
      w.exit();  // sweep
      w.advance_us(3);
      w.enter(kHalo);
      w.advance_us(draw(10, 90));
      w.exit();
      w.advance_us(2);
      const std::uint64_t resizes = draw(0, 3);
      for (std::uint64_t j = 0; j < resizes; ++j) {
        w.enter(kResize);
        w.advance_us(3);
        w.enter(kNew);
        w.advance_us(draw(1, 2));
        w.exit();
        w.advance_us(2);
        w.exit();
        w.advance_us(1);
      }
    }
    // The reduction's wide spread makes the phase's own duration vary
    // far more than the stretch moves it.
    w.enter(kReduce);
    w.advance_us(draw(0, 2'000'000));
    w.exit();
    w.advance_us(5);
    w.enter(kLambdaMain);
    w.advance_us(draw(1500, 2500));
    w.exit();
    w.advance_us(5);
    w.exit();  // phase
    w.advance_us(20);
  }
}

double to_f(double c) { return c * 9.0 / 5.0 + 32.0; }

/// Fold the interval model and the node's samples into expectations,
/// attributing a sample at t to a function when t lies in the union of
/// the function's intervals on that node (begin <= t < end).
ProfileExpect expect_from_model(
    const IntervalModel& model,
    const std::map<int, std::vector<std::pair<std::uint64_t, std::pair<int, double>>>>&
        node_samples,
    const char* const* names, const char* const* sensor_names) {
  ProfileExpect out;
  for (const auto& [key, ivs] : model.intervals) {
    const auto [node, fn] = key;
    FunctionExpect& fe = out[{node, names[fn]}];
    std::uint64_t ticks = 0;
    for (const auto& [b, e] : ivs) ticks += e - b;
    fe.calls = ivs.size();
    fe.total_s = static_cast<double>(ticks) / kTicksPerSecond;

    std::vector<std::pair<std::uint64_t, std::uint64_t>> merged = ivs;
    std::sort(merged.begin(), merged.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> u;
    for (const auto& iv : merged) {
      if (!u.empty() && iv.first <= u.back().second) {
        u.back().second = std::max(u.back().second, iv.second);
      } else {
        u.push_back(iv);
      }
    }
    const auto sit = node_samples.find(node);
    if (sit == node_samples.end()) continue;
    for (const auto& [t, sensor_temp] : sit->second) {
      const auto pos = std::upper_bound(
          u.begin(), u.end(), t,
          [](std::uint64_t v, const std::pair<std::uint64_t, std::uint64_t>& iv) {
            return v < iv.first;
          });
      if (pos == u.begin()) continue;
      const auto& iv = *(pos - 1);
      if (t < iv.first || t >= iv.second) continue;
      SensorExpect& se = fe.sensors[sensor_names[sensor_temp.first]];
      const double f = to_f(sensor_temp.second);
      if (se.samples == 0) {
        se.min_f = se.max_f = f;
      } else {
        se.min_f = std::min(se.min_f, f);
        se.max_f = std::max(se.max_f, f);
      }
      ++se.samples;
    }
  }
  return out;
}

}  // namespace

std::map<std::string, std::uint64_t> calls_by_name(const ProfileExpect& e) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, fe] : e) out[key.second] += fe.calls;
  return out;
}

OfflineTraces make_offline_traces(const OfflineSpec& spec) {
  static const char* const kSensorNames[2] = {"core_temp", "board_temp"};
  OfflineTraces out;
  out.stretched = kOfflineNames[kSweep];
  out.ancestors = {kOfflineNames[kPhase]};

  Rng rng(spec.seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<NodeClock> clocks(static_cast<std::size_t>(kNodes));
  for (NodeClock& c : clocks) {
    const double ppm = 10.0 + 40.0 * rng.unit();
    c.rate = 1.0 + (rng.next() % 2 == 0 ? ppm : -ppm) * 1e-6;
    c.offset = static_cast<std::int64_t>(rng.range(0, 10'000'000)) - 5'000'000;
    out.max_drift = std::max(out.max_drift, std::fabs(c.rate - 1.0));
  }

  IntervalModel base_model, cur_model;
  for (tempest::trace::Trace* t : {&out.base, &out.current}) {
    t->tsc_ticks_per_second = kTicksPerSecond;
    for (int n = 0; n < kNodes; ++n) {
      t->nodes.push_back({static_cast<std::uint16_t>(n), "node" + std::to_string(n)});
      for (std::uint16_t s = 0; s < 2; ++s) {
        t->sensors.push_back({static_cast<std::uint16_t>(n), s, kSensorNames[s], 0.125});
      }
    }
    for (int f = 0; f < kOfflineFnCount; ++f) {
      t->synthetic_symbols.push_back(
          {tempest::trace::kSyntheticAddrBase + static_cast<std::uint64_t>(f),
           kOfflineNames[f]});
    }
  }

  std::uint64_t run_end = kGlobalBase;
  std::vector<std::uint64_t> node_end(static_cast<std::size_t>(kNodes), kGlobalBase);
  std::uint64_t stretched_calls = 0;
  for (int n = 0; n < kNodes; ++n) {
    for (int th = 0; th < kThreadsPerNode; ++th) {
      const auto tid = static_cast<std::uint32_t>(n * kThreadsPerNode + th);
      for (tempest::trace::Trace* t : {&out.base, &out.current}) {
        t->threads.push_back({tid, static_cast<std::uint16_t>(n),
                              static_cast<std::uint16_t>(th)});
      }
      Rng thread_rng(rng.next());
      Draws draws(&thread_rng);
      const std::uint64_t start = kGlobalBase + thread_rng.range(0, 10'000) * kUs;
      ThreadWriter bw(&out.base, &base_model, clocks[static_cast<std::size_t>(n)],
                      n, tid, start);
      run_thread(bw, draws, spec, 0);
      draws.rewind();
      ThreadWriter cw(&out.current, &cur_model,
                      clocks[static_cast<std::size_t>(n)], n, tid, start);
      run_thread(cw, draws, spec, static_cast<std::uint64_t>(kOfflineStretchUs));
      node_end[static_cast<std::size_t>(n)] =
          std::max(node_end[static_cast<std::size_t>(n)], cw.now());
      run_end = std::max(run_end, cw.now());
    }
  }
  for (const auto& [key, ivs] : cur_model.intervals) {
    if (key.second == kSweep) stretched_calls += ivs.size();
  }
  out.stretch_delta_s = static_cast<double>(stretched_calls) * kOfflineStretchUs * 1e-6;

  // 4 Hz samples per sensor, half a microsecond off the event grid, over
  // the current trace's (longer) span so both traces share them.
  std::map<int, std::vector<std::pair<std::uint64_t, std::pair<int, double>>>> samples;
  for (int n = 0; n < kNodes; ++n) {
    for (std::uint64_t g = kGlobalBase + 500 + static_cast<std::uint64_t>(n) * 7 * kUs;
         g <= node_end[static_cast<std::size_t>(n)] + 250'000 * kUs;
         g += 250'000 * kUs) {
      for (int s = 0; s < 2; ++s) {
        const double c = 35.0 + 5.0 * s + 0.125 * static_cast<double>(rng.range(0, 200));
        const std::uint64_t t = g + static_cast<std::uint64_t>(s) * kUs;
        samples[n].push_back({t, {s, c}});
      }
    }
  }
  for (tempest::trace::Trace* t : {&out.base, &out.current}) {
    for (const auto& [n, list] : samples) {
      for (const auto& [g, st] : list) {
        TempSample ts;
        ts.tsc = clocks[static_cast<std::size_t>(n)].to_node(g);
        ts.temp_c = st.second;
        ts.node_id = static_cast<std::uint16_t>(n);
        ts.sensor_id = static_cast<std::uint16_t>(st.first);
        t->temp_samples.push_back(ts);
      }
    }
    // Barrier-style sync records every 500 ms of global time.
    for (int n = 0; n < kNodes; ++n) {
      for (std::uint64_t g = kGlobalBase; g <= run_end + 500'000 * kUs;
           g += 500'000 * kUs) {
        t->clock_syncs.push_back(
            {clocks[static_cast<std::size_t>(n)].to_node(g), g,
             static_cast<std::uint16_t>(n)});
      }
    }
    t->sort_by_time();
  }
  out.events = out.current.fn_events.size();
  out.base_expect = expect_from_model(base_model, samples, kOfflineNames, kSensorNames);
  out.current_expect = expect_from_model(cur_model, samples, kOfflineNames, kSensorNames);
  return out;
}

// -- fleet ------------------------------------------------------------------

namespace {

enum FleetFn { kDispatch, kDecode, kWorkerLambda, kPush, kMainLambda, kInvoke, kFleetFnCount };
constexpr int kFleetFamilies = 64;

/// The fleet's functions: kFleetFnCount roles in kFleetFamilies template
/// families, lambdas (with braces in their names) among them. Fixed:
/// the seed never changes the names.
std::vector<std::string> fleet_names() {
  std::vector<std::string> names;
  for (int f = 0; f < kFleetFamilies; ++f) {
    const std::string n = std::to_string(f);
    names.push_back("svc::Handler<svc::Request<" + n + "> >::dispatch(svc::Request<" + n +
                    "> const&)");
    names.push_back("svc::Codec<" + n +
                    ">::decode(std::basic_string_view<char, std::char_traits<char> >)");
    names.push_back("worker<" + n + ">::{lambda(int)#3}::operator()(int) const");
    names.push_back("svc::Queue<int, " + n + ">::push(int&&)");
    names.push_back("main::{lambda()#" + std::to_string(f + 1) + "}::operator()() const");
    names.push_back("std::_Function_handler<void (), main::{lambda()#" +
                    std::to_string(f + 1 + kFleetFamilies) + "}>::_M_invoke(std::_Any_data const&)");
  }
  return names;
}

}  // namespace

std::vector<FleetSession> make_fleet_sessions(std::uint64_t seed, int variants,
                                              std::uint64_t events_per_session) {
  std::vector<FleetSession> out;
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 11);
  const std::vector<std::string> names = fleet_names();
  for (int v = 0; v < variants; ++v) {
    FleetSession s;
    tempest::trace::TraceHeader& h = s.header;
    h.tsc_ticks_per_second = kTicksPerSecond;
    h.nodes.push_back({0, "fleet-host-" + std::to_string(v)});
    h.sensors.push_back({0, 0, "core_temp", 0.125});
    h.threads = {{0, 0, 0}, {1, 0, 1}};
    for (std::size_t f = 0; f < names.size(); ++f) {
      h.synthetic_symbols.push_back({tempest::trace::kSyntheticAddrBase + f, names[f]});
    }
    std::map<int, std::uint64_t> ticks, calls;
    std::vector<FnEvent> per_thread[2];
    std::uint64_t end = 0;
    for (std::uint32_t tid = 0; tid < 2; ++tid) {
      std::uint64_t t = 1'000'000'000ULL + rng.range(0, 5000);
      std::vector<std::pair<int, std::uint64_t>> stack;
      int family = 0;
      auto enter = [&](int role) {
        const int fn = family * kFleetFnCount + role;
        per_thread[tid].push_back({t, tempest::trace::kSyntheticAddrBase +
                                          static_cast<std::uint64_t>(fn),
                                   tid, 0, FnEventKind::kEnter});
        stack.emplace_back(fn, t);
      };
      auto exit = [&] {
        const auto [fn, begin] = stack.back();
        stack.pop_back();
        per_thread[tid].push_back({t, tempest::trace::kSyntheticAddrBase +
                                          static_cast<std::uint64_t>(fn),
                                   tid, 0, FnEventKind::kExit});
        ticks[fn] += t - begin;
        ++calls[fn];
      };
      // 12 events per iteration; durations in odd nanoseconds so the
      // totals carry more than six significant digits.
      const std::uint64_t iters = events_per_session / 24 + 1;
      for (std::uint64_t i = 0; i < iters; ++i) {
        family = static_cast<int>(i % kFleetFamilies);
        enter(kDispatch);
        t += rng.range(50, 400);
        enter(kDecode);
        t += rng.range(300, 2500);
        exit();
        t += rng.range(20, 90);
        enter(kWorkerLambda);
        t += rng.range(30, 200);
        enter(kPush);
        t += rng.range(40, 700);
        exit();
        t += rng.range(10, 60);
        exit();
        t += rng.range(10, 50);
        exit();  // dispatch
        t += rng.range(5, 40);
        enter(kMainLambda);
        t += rng.range(100, 900);
        enter(kInvoke);
        t += rng.range(200, 1800);
        exit();
        t += rng.range(10, 80);
        exit();
        t += rng.range(50, 300);
      }
      end = std::max(end, t);
    }
    s.events.reserve(per_thread[0].size() + per_thread[1].size());
    std::merge(per_thread[0].begin(), per_thread[0].end(), per_thread[1].begin(),
               per_thread[1].end(), std::back_inserter(s.events),
               [](const FnEvent& a, const FnEvent& b) { return a.tsc < b.tsc; });
    for (std::uint64_t t = 1'000'000'000ULL; t < end; t += (end - 1'000'000'000ULL) / 16 + 1) {
      s.samples.push_back({t + 1, 40.0 + 0.125 * static_cast<double>(rng.range(0, 80)), 0, 0});
    }
    for (const auto& [fn, n] : calls) {
      FleetFunction& ff = s.expect[names[static_cast<std::size_t>(fn)]];
      ff.calls = n;
      ff.total_s = static_cast<double>(ticks[fn]) / kTicksPerSecond;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace perfbench
