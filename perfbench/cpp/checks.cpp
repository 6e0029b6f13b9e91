#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "json.hpp"

namespace perfbench {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

bool near(double got, double want, double rel, double abs) {
  return std::fabs(got - want) <= abs + rel * std::fabs(want);
}

/// Parse `text` into a DOM, recording a parse failure in `errors`.
json::Value parse_or_report(std::string_view text, const char* what, Errors* errors) {
  std::string err;
  json::Value doc = json::parse_dom(text, &err);
  if (!err.empty()) errors->push_back(std::string(what) + ": " + err);
  return doc;
}

}  // namespace

Errors check_profile_json(std::string_view text, const ProfileExpect& expect,
                          const ProfileCheckOptions& options) {
  Errors errors;
  const json::Value doc = parse_or_report(text, "profile", &errors);
  if (!errors.empty()) return errors;
  if (!doc["nodes"].is_array()) return {"profile: no nodes array"};

  std::set<std::pair<int, std::string>> seen;
  for (const json::Value& node : doc["nodes"].items) {
    const int node_id = static_cast<int>(node["node_id"].number_or(-1));
    for (const json::Value& fn : node["functions"].items) {
      const std::string& name = fn["name"].str;
      const std::string where =
          "profile node " + std::to_string(node_id) + " '" + name + "'";
      if (std::find(options.absent.begin(), options.absent.end(), name) !=
          options.absent.end()) {
        errors.push_back(where + ": suppressed function present");
        continue;
      }
      const auto it = expect.find({node_id, name});
      if (it == expect.end()) {
        errors.push_back(where + ": not in the expected call tree");
        continue;
      }
      seen.insert({node_id, name});
      const FunctionExpect& fe = it->second;
      const double calls = fn["calls"].number_or(-1);
      if (calls != static_cast<double>(fe.calls)) {
        errors.push_back(where + ": calls " + fmt(calls) + ", expected " +
                         std::to_string(fe.calls));
      }
      if (options.time_rel_tol >= 0.0) {
        const double total = fn["total_time_s"].number_or(-1);
        const double abs_tol = options.time_abs_tol + 2e-9 * static_cast<double>(fe.calls);
        if (!near(total, fe.total_s, options.time_rel_tol, abs_tol)) {
          errors.push_back(where + ": total_time_s " + fmt(total) + ", expected " +
                           fmt(fe.total_s));
        }
      }
      if (!options.check_sensors) continue;
      std::uint64_t max_samples = 0;
      for (const auto& [sname, se] : fe.sensors) max_samples = std::max(max_samples, se.samples);
      const bool significant = max_samples >= 2;
      if (fn["significant"].b != significant) {
        errors.push_back(where + ": significant=" + (fn["significant"].b ? "true" : "false") +
                         ", expected " + (significant ? "true" : "false"));
        continue;
      }
      if (!significant) continue;  // nearest-sample snapshot, not attribution
      std::map<std::string, const json::Value*> got;
      for (const json::Value& s : fn["sensors"].items) got[s["name"].str] = &s;
      for (const auto& [sname, se] : fe.sensors) {
        const auto g = got.find(sname);
        if (g == got.end()) {
          errors.push_back(where + " sensor " + sname + ": missing");
          continue;
        }
        const json::Value& s = *g->second;
        if (s["samples"].number_or(-1) != static_cast<double>(se.samples) ||
            !near(s["min"].number_or(-1e9), se.min_f, 0.0, 1e-6) ||
            !near(s["max"].number_or(-1e9), se.max_f, 0.0, 1e-6)) {
          errors.push_back(where + " sensor " + sname + ": samples/min/max " +
                           fmt(s["samples"].number_or(-1)) + "/" +
                           fmt(s["min"].number_or(-1)) + "/" +
                           fmt(s["max"].number_or(-1)) + ", expected " +
                           std::to_string(se.samples) + "/" + fmt(se.min_f) + "/" +
                           fmt(se.max_f));
        }
        got.erase(g);
      }
      for (const auto& [sname, s] : got) {
        errors.push_back(where + " sensor " + sname + ": " +
                         fmt((*s)["samples"].number_or(-1)) +
                         " samples attributed, expected none");
      }
    }
  }
  for (const auto& [key, fe] : expect) {
    if (!seen.count(key)) {
      errors.push_back("profile node " + std::to_string(key.first) + " '" +
                       key.second + "': missing");
    }
  }
  return errors;
}

Errors check_run_stats(std::string_view profile_text, const RunStatsExpect& expect) {
  Errors errors;
  const json::Value doc = parse_or_report(profile_text, "run_stats", &errors);
  if (!errors.empty()) return errors;
  const json::Value& rs = doc["run_stats"];
  if (!rs.is_object()) return {"run_stats: block missing"};
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"calls_observed", expect.calls_observed},
      {"events_recorded", expect.events_recorded},
      {"events_suppressed", expect.events_suppressed},
      {"events_dropped", 0},
  };
  for (const auto& [name, want] : fields) {
    const double got = rs[name].number_or(-1);
    if (got != static_cast<double>(want)) {
      errors.push_back(std::string("run_stats ") + name + ": " + fmt(got) +
                       ", expected " + std::to_string(want));
    }
  }
  return errors;
}

namespace {

/// Counts B/E per name and checks their nesting per (pid, tid).
class PerfettoScan : public json::Handler {
 public:
  std::map<std::string, std::uint64_t> begins, ends;
  std::map<std::pair<double, double>, std::vector<std::string>> stacks;
  Errors errors;

  void begin_object() override {
    ++depth_;
    if (in_events_ && depth_ == events_depth_ + 1) {
      ph_.clear();
      name_.clear();
      has_name_ = false;
      pid_ = tid_ = -1;
    }
  }
  void end_object() override {
    if (in_events_ && depth_ == events_depth_ + 1) finish_event();
    --depth_;
  }
  void begin_array() override {
    ++depth_;
    if (depth_ == 2 && key_ == "traceEvents") {
      in_events_ = true;
      events_depth_ = depth_;
    }
  }
  void end_array() override {
    if (in_events_ && depth_ == events_depth_) in_events_ = false;
    --depth_;
  }
  void key(std::string_view k) override {
    if (depth_ == 1 || (in_events_ && depth_ == events_depth_ + 1)) key_.assign(k);
  }
  void string(std::string_view s) override {
    if (!in_events_ || depth_ != events_depth_ + 1) return;
    if (key_ == "ph") ph_.assign(s);
    if (key_ == "name") {
      name_.assign(s);
      has_name_ = true;
    }
  }
  void number(double v) override {
    if (!in_events_ || depth_ != events_depth_ + 1) return;
    if (key_ == "pid") pid_ = v;
    if (key_ == "tid") tid_ = v;
  }

 private:
  void finish_event() {
    if (ph_ == "B") {
      ++begins[name_];
      stacks[{pid_, tid_}].push_back(name_);
    } else if (ph_ == "E") {
      auto& stack = stacks[{pid_, tid_}];
      if (stack.empty()) {
        errors.push_back("perfetto: E with no open B on pid " + fmt(pid_) +
                         " tid " + fmt(tid_));
        return;
      }
      if (has_name_ && name_ != stack.back()) {
        errors.push_back("perfetto: E '" + name_ + "' closes '" + stack.back() + "'");
      }
      ++ends[stack.back()];
      stack.pop_back();
    }
  }

  int depth_ = 0;
  bool in_events_ = false;
  int events_depth_ = -1;
  std::string key_, ph_, name_;
  bool has_name_ = false;
  double pid_ = -1, tid_ = -1;
};

/// Counts O/C per frame index and checks their nesting per profile.
class SpeedscopeScan : public json::Handler {
 public:
  std::vector<std::string> frames;
  std::map<std::size_t, std::uint64_t> opens, closes;
  Errors errors;
  int profiles = 0;

  void begin_object() override {
    ++depth_;
    if (section_ == kEvents && depth_ == 5) {
      type_.clear();
      frame_ = -1;
    }
  }
  void end_object() override {
    if (section_ == kEvents && depth_ == 5) finish_event();
    if (section_ == kProfiles && depth_ == 3) {
      ++profiles;
      if (!stack_.empty()) {
        errors.push_back("speedscope: profile ends with " +
                         std::to_string(stack_.size()) + " open frames");
      }
      stack_.clear();
    }
    --depth_;
  }
  void begin_array() override {
    ++depth_;
    if (depth_ == 3 && path_[1] == "shared" && key_ == "frames") section_ = kFrames;
    if (depth_ == 2 && key_ == "profiles") section_ = kProfiles;
    if (depth_ == 4 && section_ == kProfiles && key_ == "events") section_ = kEvents;
  }
  void end_array() override {
    if (section_ == kFrames && depth_ == 3) section_ = kNone;
    if (section_ == kProfiles && depth_ == 2) section_ = kNone;
    if (section_ == kEvents && depth_ == 4) section_ = kProfiles;
    --depth_;
  }
  void key(std::string_view k) override {
    key_.assign(k);
    if (depth_ < static_cast<int>(sizeof path_ / sizeof path_[0])) path_[depth_].assign(k);
  }
  void string(std::string_view s) override {
    if (section_ == kFrames && depth_ == 4 && key_ == "name") frames.emplace_back(s);
    if (section_ == kEvents && depth_ == 5 && key_ == "type") type_.assign(s);
  }
  void number(double v) override {
    if (section_ == kEvents && depth_ == 5 && key_ == "frame") frame_ = v;
  }

 private:
  enum Section { kNone, kFrames, kProfiles, kEvents };

  void finish_event() {
    if (frame_ < 0) {
      errors.push_back("speedscope: event without a frame");
      return;
    }
    const auto f = static_cast<std::size_t>(frame_);
    if (type_ == "O") {
      ++opens[f];
      stack_.push_back(f);
    } else if (type_ == "C") {
      if (stack_.empty() || stack_.back() != f) {
        errors.push_back("speedscope: C of frame " + std::to_string(f) +
                         " does not close the innermost open frame");
        return;
      }
      ++closes[f];
      stack_.pop_back();
    }
  }

  int depth_ = 0;
  Section section_ = kNone;
  std::string key_;
  std::string path_[8];
  std::string type_;
  double frame_ = -1;
  std::vector<std::size_t> stack_;
};

/// Compare per-name open/close counts with the expected calls.
void compare_counts(const char* what, const std::map<std::string, std::uint64_t>& opens,
                    const std::map<std::string, std::uint64_t>& closes,
                    const std::map<std::string, std::uint64_t>& calls, Errors* errors) {
  for (const auto& [name, want] : calls) {
    const auto o = opens.find(name);
    const auto c = closes.find(name);
    const std::uint64_t got_o = o == opens.end() ? 0 : o->second;
    const std::uint64_t got_c = c == closes.end() ? 0 : c->second;
    if (got_o != want || got_c != want) {
      errors->push_back(std::string(what) + " '" + name + "': " +
                        std::to_string(got_o) + " opens / " + std::to_string(got_c) +
                        " closes, expected " + std::to_string(want));
    }
  }
  for (const auto& [name, n] : opens) {
    if (!calls.count(name)) {
      errors->push_back(std::string(what) + " '" + name + "': " + std::to_string(n) +
                        " spans of an unexpected function");
    }
  }
}

}  // namespace

Errors check_perfetto(std::string_view text,
                      const std::map<std::string, std::uint64_t>& calls) {
  PerfettoScan scan;
  const std::string err = json::parse(text, &scan);
  if (!err.empty()) return {"perfetto: " + err};
  Errors errors = std::move(scan.errors);
  for (const auto& [key, stack] : scan.stacks) {
    if (!stack.empty()) {
      errors.push_back("perfetto: pid " + fmt(key.first) + " tid " + fmt(key.second) +
                       " ends with " + std::to_string(stack.size()) + " open spans");
    }
  }
  compare_counts("perfetto", scan.begins, scan.ends, calls, &errors);
  return errors;
}

Errors check_speedscope(std::string_view text,
                        const std::map<std::string, std::uint64_t>& calls) {
  SpeedscopeScan scan;
  const std::string err = json::parse(text, &scan);
  if (!err.empty()) return {"speedscope: " + err};
  Errors errors = std::move(scan.errors);
  if (scan.profiles == 0) errors.push_back("speedscope: no profiles");
  std::map<std::string, std::uint64_t> opens, closes;
  for (const auto& [f, n] : scan.opens) {
    if (f >= scan.frames.size()) {
      errors.push_back("speedscope: frame index " + std::to_string(f) + " out of range");
      continue;
    }
    opens[scan.frames[f]] += n;
  }
  for (const auto& [f, n] : scan.closes) {
    if (f < scan.frames.size()) closes[scan.frames[f]] += n;
  }
  compare_counts("speedscope", opens, closes, calls, &errors);
  return errors;
}

Errors check_diff_json(std::string_view text, const DiffExpect& expect) {
  Errors errors;
  const json::Value doc = parse_or_report(text, "diff", &errors);
  if (!errors.empty()) return errors;
  const json::Value& regressions = doc["regressions"];
  if (!regressions.is_array() || regressions.items.empty()) {
    return {"diff: no regression ranked"};
  }
  const json::Value& first = regressions.items.front();
  if (first["function"].str != expect.stretched) {
    errors.push_back("diff: '" + first["function"].str + "' ranks first, expected '" +
                     expect.stretched + "'");
  } else if (!near(first["delta_time_s"].number_or(-1), expect.delta_s, expect.rel_tol,
                   1e-6)) {
    errors.push_back("diff: delta_time_s " + fmt(first["delta_time_s"].number_or(-1)) +
                     ", expected " + fmt(expect.delta_s));
  }
  for (const char* list : {"regressions", "improvements", "insignificant"}) {
    for (const json::Value& d : doc[list].items) {
      const std::string& name = d["function"].str;
      const bool changed = std::find(expect.changed.begin(), expect.changed.end(),
                                     name) != expect.changed.end();
      if (!changed && d["time_significant"].b) {
        errors.push_back("diff: unchanged '" + name + "' marked time_significant");
      }
    }
  }
  return errors;
}

bool read_fleet_profile(std::string_view body, FleetView* out, std::string* error) {
  const json::Value doc = json::parse_dom(body, error);
  if (!error->empty()) return false;
  if (!doc["functions"].is_array()) {
    *error = "/profile: no functions array";
    return false;
  }
  out->sessions_folded =
      static_cast<std::uint64_t>(doc["sessions_folded"].number_or(0));
  out->functions.clear();
  for (const json::Value& f : doc["functions"].items) {
    out->functions.push_back({f["name"].str,
                              static_cast<std::uint64_t>(f["calls"].number_or(0)),
                              f["total_time_s"].number_or(0)});
  }
  return true;
}

Errors check_fleet_profile(std::string_view body,
                           const std::map<std::string, FleetFunction>& expect,
                           std::uint64_t sessions) {
  FleetView view;
  std::string err;
  if (!read_fleet_profile(body, &view, &err)) return {err};
  Errors errors;
  if (view.sessions_folded != sessions) {
    errors.push_back("/profile sessions_folded " + std::to_string(view.sessions_folded) +
                     ", expected " + std::to_string(sessions));
  }
  std::set<std::string> seen;
  for (const FleetEntry& e : view.functions) {
    const auto it = expect.find(e.name);
    if (it == expect.end()) {
      errors.push_back("/profile '" + e.name + "': unexpected function");
      continue;
    }
    seen.insert(e.name);
    if (e.calls != it->second.calls) {
      errors.push_back("/profile '" + e.name + "': calls " + std::to_string(e.calls) +
                       ", expected " + std::to_string(it->second.calls));
    }
    if (!near(e.total_s, it->second.total_s, 1e-5, 0.0)) {
      errors.push_back("/profile '" + e.name + "': total_time_s " + fmt(e.total_s) +
                       ", expected " + fmt(it->second.total_s));
    }
  }
  for (const auto& [name, f] : expect) {
    if (!seen.count(name)) errors.push_back("/profile '" + name + "': missing");
  }
  return errors;
}

Errors compare_fleet_views(const FleetView& fetched, const FleetView& own) {
  Errors errors;
  if (fetched.sessions_folded != own.sessions_folded) {
    errors.push_back("read-back sessions_folded " +
                     std::to_string(fetched.sessions_folded) + ", /profile says " +
                     std::to_string(own.sessions_folded));
  }
  if (fetched.functions.size() != own.functions.size()) {
    errors.push_back("read-back has " + std::to_string(fetched.functions.size()) +
                     " functions, /profile has " + std::to_string(own.functions.size()));
    return errors;
  }
  for (std::size_t i = 0; i < own.functions.size(); ++i) {
    const FleetEntry& a = fetched.functions[i];
    const FleetEntry& b = own.functions[i];
    if (a.name != b.name || a.calls != b.calls || a.total_s != b.total_s) {
      errors.push_back("read-back of '" + b.name + "': calls " + std::to_string(a.calls) +
                       " total_time_s " + fmt(a.total_s) + " (name '" + a.name +
                       "'), /profile says calls " + std::to_string(b.calls) +
                       " total_time_s " + fmt(b.total_s));
    }
  }
  return errors;
}

}  // namespace perfbench
