// Span recorder for the traced run.
//
// The traced run brackets each call the benchmark makes into a Tempest
// layer (trace.read, parser.fold_events, export.perfetto_sink, ...)
// with a span: name, start, end and the span that was open when it
// started. Spans stay in memory and are written once, at the end.
// Nothing here reaches into the program: spans only wrap calls made
// from the benchmark's own code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
  int round = 0;
};

class SpanRecorder {
 public:
  /// Disabled recorders ignore every call (the untraced run).
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_round(int round) { round_ = round; }

  /// Open a span as a child of the innermost open one; returns its id.
  int open(const std::string& name);
  void close(int id);

  /// Add an already-measured span (time accumulated across many small
  /// calls, e.g. one stage over every batch) under the open span.
  void add_closed(const std::string& name, double start_s, double duration_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (duration minus the part covered by its
  /// children), summed per (round, name).
  std::map<int, std::map<std::string, double>> self_time_by_round() const;

  /// JSON Lines, one span per line.
  std::string to_jsonl() const;

 private:
  bool enabled_;
  int round_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec->enabled() ? rec->open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) rec_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
