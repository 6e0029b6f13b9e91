// Self-tests of the benchmark's output checks: each check accepts a
// correct output and rejects a tampered one, so a passing benchmark run
// means the outputs were really compared.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "calltree.hpp"
#include "checks.hpp"
#include "json.hpp"
#include "models.hpp"

namespace perfbench {
namespace {

/// Replace the first occurrence of `from` (which must exist).
std::string tamper(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "tamper target missing: " << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// -- profile ----------------------------------------------------------------

ProfileExpect profile_expect() {
  ProfileExpect e;
  FunctionExpect& f = e[{0, "main::{lambda()#1}::operator()() const"}];
  f.calls = 10;
  f.total_s = 1.5;
  f.sensors["core_temp"] = {3, 100.4, 104.0};
  FunctionExpect& g = e[{1, "pb_leaf_b"}];
  g.calls = 7;
  g.total_s = 0.25;
  return e;
}

const char* const kProfile = R"json({"unit":"F","duration_s":2.0,"nodes":[
{"node_id":0,"hostname":"node0","duration_s":2.0,"functions":[
 {"name":"main::{lambda()#1}::operator()() const","total_time_s":1.500000,"calls":10,
  "significant":true,"sensors":[{"name":"core_temp","samples":3,"min":100.400000,
  "avg":102.0,"max":104.000000}]}]},
{"node_id":1,"hostname":"node1","duration_s":2.0,"functions":[
 {"name":"pb_leaf_b","total_time_s":0.250000,"calls":7,"significant":false,"sensors":[]}]}],
"run_stats":{"events_recorded":34,"events_dropped":0,"events_suppressed":6,
 "calls_observed":40}})json";

ProfileCheckOptions profile_options() {
  ProfileCheckOptions o;
  o.time_rel_tol = 1e-5;
  o.time_abs_tol = 1e-6;
  o.check_sensors = true;
  o.absent = {"pb_hot_leaf_a"};
  return o;
}

TEST(ProfileCheck, AcceptsMatchingProfile) {
  EXPECT_TRUE(check_profile_json(kProfile, profile_expect(), profile_options()).empty());
}

TEST(ProfileCheck, RejectsWrongCalls) {
  const std::string bad = tamper(kProfile, "\"calls\":10", "\"calls\":11");
  EXPECT_FALSE(check_profile_json(bad, profile_expect(), profile_options()).empty());
}

TEST(ProfileCheck, RejectsWrongTotalTime) {
  const std::string bad = tamper(kProfile, "1.500000", "1.500100");
  EXPECT_FALSE(check_profile_json(bad, profile_expect(), profile_options()).empty());
}

TEST(ProfileCheck, RejectsWrongSensorAttribution) {
  const std::string bad = tamper(kProfile, "\"samples\":3", "\"samples\":4");
  EXPECT_FALSE(check_profile_json(bad, profile_expect(), profile_options()).empty());
  const std::string bad_max = tamper(kProfile, "104.000000", "104.225000");
  EXPECT_FALSE(check_profile_json(bad_max, profile_expect(), profile_options()).empty());
}

TEST(ProfileCheck, RejectsMissingAndUnexpectedFunctions) {
  const std::string renamed = tamper(kProfile, "\"pb_leaf_b\"", "\"pb_leaf_c\"");
  EXPECT_GE(check_profile_json(renamed, profile_expect(), profile_options()).size(), 2u);
}

TEST(ProfileCheck, RejectsSuppressedFunction) {
  const std::string bad = tamper(kProfile, "\"pb_leaf_b\"", "\"pb_hot_leaf_a\"");
  EXPECT_FALSE(check_profile_json(bad, profile_expect(), profile_options()).empty());
}

TEST(ProfileCheck, RejectsWrongSignificance) {
  const std::string bad = tamper(kProfile, "\"significant\":false", "\"significant\":true");
  EXPECT_FALSE(check_profile_json(bad, profile_expect(), profile_options()).empty());
}

TEST(ProfileCheck, RejectsMalformedJson) {
  const std::string bad = std::string(kProfile).substr(0, 100);
  EXPECT_FALSE(check_profile_json(bad, profile_expect(), profile_options()).empty());
}

TEST(RunStatsCheck, AcceptsAndRejects) {
  const RunStatsExpect e{40, 34, 6};
  EXPECT_TRUE(check_run_stats(kProfile, e).empty());
  EXPECT_FALSE(check_run_stats(tamper(kProfile, "\"calls_observed\":40",
                                      "\"calls_observed\":41"),
                               e)
                   .empty());
  EXPECT_FALSE(check_run_stats(tamper(kProfile, "\"events_suppressed\":6",
                                      "\"events_suppressed\":5"),
                               e)
                   .empty());
  EXPECT_FALSE(check_run_stats(tamper(kProfile, "\"events_dropped\":0",
                                      "\"events_dropped\":2"),
                               e)
                   .empty());
}

// -- timeline exports ---------------------------------------------------------

const std::map<std::string, std::uint64_t> kCalls = {{"outer", 1}, {"inner", 2}};

const char* const kPerfetto = R"json({"traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"node0"}},
{"ph":"B","pid":0,"tid":1,"ts":1,"cat":"fn","name":"outer"},
{"ph":"B","pid":0,"tid":1,"ts":2,"cat":"fn","name":"inner"},
{"ph":"E","pid":0,"tid":1,"ts":3,"cat":"fn","name":"inner"},
{"ph":"C","pid":0,"ts":3,"name":"core_temp","args":{"value":40.5}},
{"ph":"B","pid":0,"tid":1,"ts":4,"cat":"fn","name":"inner"},
{"ph":"E","pid":0,"tid":1,"ts":5,"cat":"fn","name":"inner"},
{"ph":"E","pid":0,"tid":1,"ts":6,"cat":"fn","name":"outer"}],
"metadata":{"clock":"x"}})json";

TEST(PerfettoCheck, AcceptsBalancedSpans) {
  EXPECT_TRUE(check_perfetto(kPerfetto, kCalls).empty());
}

TEST(PerfettoCheck, RejectsWrongCount) {
  std::map<std::string, std::uint64_t> calls = kCalls;
  calls["inner"] = 3;
  EXPECT_FALSE(check_perfetto(kPerfetto, calls).empty());
}

TEST(PerfettoCheck, RejectsUnbalancedNesting) {
  // The last E dropped: "outer" stays open.
  const std::string bad = tamper(
      kPerfetto, ",\n{\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":6,\"cat\":\"fn\",\"name\":\"outer\"}",
      "");
  EXPECT_FALSE(check_perfetto(bad, kCalls).empty());
  // An E closing a span that is not the innermost one.
  const std::string crossed = tamper(kPerfetto, "\"ts\":3,\"cat\":\"fn\",\"name\":\"inner\"",
                                     "\"ts\":3,\"cat\":\"fn\",\"name\":\"outer\"");
  EXPECT_FALSE(check_perfetto(crossed, kCalls).empty());
}

const char* const kSpeedscope = R"json({"$schema":"https://www.speedscope.app/file-format-schema.json",
"shared":{"frames":[{"name":"outer"},{"name":"inner"}]},
"profiles":[
{"type":"evented","name":"t0","unit":"microseconds","startValue":0,"endValue":6,"events":[
{"type":"O","frame":0,"at":1},{"type":"O","frame":1,"at":2},{"type":"C","frame":1,"at":3},
{"type":"O","frame":1,"at":4},{"type":"C","frame":1,"at":5},{"type":"C","frame":0,"at":6}]}]})json";

TEST(SpeedscopeCheck, AcceptsBalancedEvents) {
  EXPECT_TRUE(check_speedscope(kSpeedscope, kCalls).empty());
}

TEST(SpeedscopeCheck, RejectsWrongCountAndNesting) {
  std::map<std::string, std::uint64_t> calls = kCalls;
  calls["outer"] = 2;
  EXPECT_FALSE(check_speedscope(kSpeedscope, calls).empty());
  const std::string crossed = tamper(kSpeedscope, "{\"type\":\"C\",\"frame\":1,\"at\":3}",
                                     "{\"type\":\"C\",\"frame\":0,\"at\":3}");
  EXPECT_FALSE(check_speedscope(crossed, kCalls).empty());
  const std::string open = tamper(kSpeedscope, ",{\"type\":\"C\",\"frame\":0,\"at\":6}", "");
  EXPECT_FALSE(check_speedscope(open, kCalls).empty());
}

// -- diff -------------------------------------------------------------------

const char* const kDiff = R"json({"schema":"tempest-diff","schema_version":1,
"regressions":[
 {"function":"sweep","status":"matched","delta_time_s":0.021600000,"time_significant":true},
 {"function":"run_phase","status":"matched","delta_time_s":0.021600000,"time_significant":false}],
"improvements":[],
"insignificant":[
 {"function":"apply","status":"matched","delta_time_s":0.000000001,"time_significant":false}]})json";

DiffExpect diff_expect() {
  DiffExpect e;
  e.stretched = "sweep";
  e.delta_s = 0.0216;
  e.rel_tol = 1e-4;
  e.changed = {"sweep", "run_phase"};
  return e;
}

TEST(DiffCheck, AcceptsExpectedRanking) {
  EXPECT_TRUE(check_diff_json(kDiff, diff_expect()).empty());
}

TEST(DiffCheck, RejectsWrongLeader) {
  DiffExpect e = diff_expect();
  e.stretched = "run_phase";
  EXPECT_FALSE(check_diff_json(kDiff, e).empty());
}

TEST(DiffCheck, RejectsWrongDelta) {
  const std::string bad = tamper(kDiff, "0.021600000", "0.025000000");
  EXPECT_FALSE(check_diff_json(bad, diff_expect()).empty());
}

TEST(DiffCheck, RejectsUnchangedFunctionMarkedSignificant) {
  const std::string bad = tamper(
      kDiff, "\"delta_time_s\":0.000000001,\"time_significant\":false",
      "\"delta_time_s\":0.000000001,\"time_significant\":true");
  EXPECT_FALSE(check_diff_json(bad, diff_expect()).empty());
}

// -- fleet ------------------------------------------------------------------

const char* const kFleet = R"json({"sessions_folded":2,"functions":[
{"name":"main::{lambda()#1}::operator()() const","calls":20,"total_time_s":1234.57,
 "sessions":2,"activations":20,"time_mean_s":61.7,"time_var_s2":0.5},
{"name":"svc::Queue<int, 0>::push(int&&)","calls":8,"total_time_s":0.5,"sessions":2}]})json";

std::map<std::string, FleetFunction> fleet_expect() {
  return {{"main::{lambda()#1}::operator()() const", {20, 1234.56789012}},
          {"svc::Queue<int, 0>::push(int&&)", {8, 0.5}}};
}

TEST(FleetCheck, AcceptsProfileWithinTolerance) {
  EXPECT_TRUE(check_fleet_profile(kFleet, fleet_expect(), 2).empty());
}

TEST(FleetCheck, RejectsWrongCallsTotalsOrSessions) {
  EXPECT_FALSE(check_fleet_profile(tamper(kFleet, "\"calls\":20", "\"calls\":0"),
                                   fleet_expect(), 2)
                   .empty());
  EXPECT_FALSE(check_fleet_profile(tamper(kFleet, "1234.57", "1234.6"), fleet_expect(), 2)
                   .empty());
  EXPECT_FALSE(check_fleet_profile(kFleet, fleet_expect(), 3).empty());
  EXPECT_FALSE(check_fleet_profile(
                   tamper(kFleet, "\"svc::Queue<int, 0>::push(int&&)\"", "\"other\""),
                   fleet_expect(), 2)
                   .empty());
}

TEST(FleetCheck, ReadBackComparison) {
  FleetView own;
  std::string err;
  ASSERT_TRUE(read_fleet_profile(kFleet, &own, &err)) << err;
  ASSERT_EQ(own.functions.size(), 2u);
  EXPECT_TRUE(compare_fleet_views(own, own).empty());
  // What a reader that stops at the first '}' makes of a lambda entry.
  FleetView lossy = own;
  lossy.functions[0].calls = 0;
  lossy.functions[0].total_s = 0.0;
  EXPECT_FALSE(compare_fleet_views(lossy, own).empty());
  FleetView short_view = own;
  short_view.functions.pop_back();
  EXPECT_FALSE(compare_fleet_views(short_view, own).empty());
}

// -- reader and models --------------------------------------------------------

TEST(Json, ParsesEscapesNumbersAndRejectsGarbage) {
  std::string err;
  const json::Value v =
      json::parse_dom(R"json({"a":"x\"yé\n","b":[1,-2.5e3,true,null],"c":{}})json", &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v["a"].str, "x\"y\xC3\xA9\n");
  ASSERT_EQ(v["b"].items.size(), 4u);
  EXPECT_EQ(v["b"].items[1].num, -2500.0);
  EXPECT_TRUE(v["b"].items[2].b);
  EXPECT_TRUE(v["c"].is_object());
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "\"open", "{} x", "[01x]"}) {
    json::parse_dom(bad, &err);
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(CallTreeModel, CountsFollowTheShape) {
  const auto calls = calltree::calls_per_root(1);
  EXPECT_EQ(calls.at("pb_level0"), 1u);
  EXPECT_EQ(calls.at("pb_level5"), 32u);
  EXPECT_EQ(calls.at("pb_leaf_b"), 63u);
  EXPECT_EQ(calls.at("pb_hot_leaf_a"), 63u * calltree::kHotA);
  EXPECT_EQ(calls.at("pb_hot_leaf_c"), 32u * calltree::kHotC);
  EXPECT_EQ(calltree::total_calls(10),
            1 + 10 * (63 + 63 + 63 * calltree::kHotA + 32 * calltree::kHotC));
}

TEST(OfflineModel, SeedMovesContentNotSize) {
  OfflineSpec spec;
  spec.iters_per_thread = 40;
  spec.seed = 3;
  const OfflineTraces a = make_offline_traces(spec);
  const OfflineTraces b = make_offline_traces(spec);
  spec.seed = 4;
  const OfflineTraces c = make_offline_traces(spec);
  EXPECT_EQ(a.current.fn_events.size(), b.current.fn_events.size());
  EXPECT_EQ(a.current.fn_events.back().tsc, b.current.fn_events.back().tsc);
  EXPECT_NE(a.current.fn_events.back().tsc, c.current.fn_events.back().tsc);
  // Same calls in both traces; only the stretched function's time moves.
  EXPECT_EQ(a.base.fn_events.size(), a.current.fn_events.size());
  for (const auto& [key, fe] : a.current_expect) {
    const FunctionExpect& base = a.base_expect.at(key);
    EXPECT_EQ(fe.calls, base.calls) << key.second;
    const bool changed = key.second == a.stretched ||
                         std::find(a.ancestors.begin(), a.ancestors.end(), key.second) !=
                             a.ancestors.end();
    if (!changed) {
      EXPECT_DOUBLE_EQ(fe.total_s, base.total_s) << key.second;
    }
  }
  std::uint64_t stretched_calls = 0;
  for (const auto& [key, fe] : a.current_expect) {
    if (key.second == a.stretched) stretched_calls += fe.calls;
  }
  EXPECT_NEAR(a.stretch_delta_s, static_cast<double>(stretched_calls) * kOfflineStretchUs * 1e-6,
              1e-12);
}

TEST(FleetModel, ExpectationsMatchEvents) {
  const auto sessions = make_fleet_sessions(5, 2, 2400);
  ASSERT_EQ(sessions.size(), 2u);
  for (const FleetSession& s : sessions) {
    std::uint64_t calls = 0;
    for (const auto& [name, f] : s.expect) calls += f.calls;
    EXPECT_EQ(2 * calls, s.events.size());
    for (std::size_t i = 1; i < s.events.size(); ++i) {
      ASSERT_LE(s.events[i - 1].tsc, s.events[i].tsc);
    }
  }
}

}  // namespace
}  // namespace perfbench
