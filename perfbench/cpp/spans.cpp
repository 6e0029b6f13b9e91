#include "spans.hpp"

#include <algorithm>

#include "util.hpp"

namespace perfbench {

int SpanRecorder::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = now_s();
  s.parent = open_.empty() ? -1 : open_.back();
  s.round = round_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void SpanRecorder::add_closed(const std::string& name, double start_s,
                              double duration_s) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = start_s + duration_s;
  s.parent = open_.empty() ? -1 : open_.back();
  s.round = round_;
  spans_.push_back(std::move(s));
}

std::map<int, std::map<std::string, double>> SpanRecorder::self_time_by_round()
    const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<int, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = std::max(0.0, (s.end_s - s.start_s) - child_time[i]);
    out[s.round][s.name] += self;
  }
  return out;
}

std::string SpanRecorder::to_jsonl() const {
  std::string out;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"parent\":" +
           std::to_string(s.parent) + ",\"round\":" + std::to_string(s.round) +
           ",\"name\":" + json_quote(s.name) +
           ",\"start_s\":" + json_number(s.start_s - t0) +
           ",\"end_s\":" + json_number(s.end_s - t0) + "}\n";
  }
  return out;
}

}  // namespace perfbench
