// Pipeline sources: incremental file reader and in-memory adapter.
#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "pipeline/stage.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::pipeline {

/// Streams a trace-v2 file section by section through the 256 KiB
/// staged reader, never materialising more than one batch — the
/// bounded-memory replacement for read_trace_file + parse. Batches come
/// out in file order (events, then samples, then syncs); records are in
/// the raw recorded clock domains. Compose with ClockAlignStage (fed by
/// clock_fits()) and the order check its consumer needs:
/// FoldOrderCheckStage for profiles, OrderCheckStage for exporters.
class ChunkedTraceSource : public Source {
 public:
  static Result<ChunkedTraceSource> open(const std::string& path,
                                         BatchOptions options = {});

  const TraceMeta& meta() const override { return reader_->header(); }

  Status next(EventBatch* out, bool* done) override;

  /// Whole-trace clock fits from a pre-pass over the sync section
  /// (seeks over the event/sample payloads and back). Must run before
  /// the first next(). Returns an empty map when the trace has no
  /// syncs — a single clock domain.
  Result<std::map<std::uint16_t, trace::ClockFit>> clock_fits();

  /// The raw sync records behind clock_fits(), same pre-pass contract.
  /// The exporters' ClockCorrelator consumes these to report per-rank
  /// skew/drift/residual metadata alongside the fits.
  Result<std::vector<trace::ClockSync>> clock_syncs_ahead();

  /// Decode staged record chunks on `pool`'s workers (see
  /// TraceStreamReader::set_decode_pool). Batches stay byte-identical
  /// to serial decode; nullptr restores serial.
  void set_decode_pool(WorkerPool* pool) { reader_->set_decode_pool(pool); }

 private:
  ChunkedTraceSource() = default;

  std::string path_;
  BatchOptions options_;
  /// Heap-allocated so TraceStreamReader's stream pointer survives
  /// moves of the source.
  std::unique_ptr<std::ifstream> in_;
  std::optional<trace::TraceStreamReader> reader_;
};

/// Adapts an in-memory Trace to the Source interface, yielding slices
/// of its (already prepared — aligned/sorted by the caller) vectors.
/// Used by tests to drive the streaming consumers from golden traces.
class MemoryTraceSource : public Source {
 public:
  explicit MemoryTraceSource(const trace::Trace& trace, BatchOptions options = {})
      : trace_(&trace), options_(options) {}

  const TraceMeta& meta() const override { return *trace_; }

  Status next(EventBatch* out, bool* done) override;

 private:
  const trace::Trace* trace_;
  BatchOptions options_;
  std::size_t event_pos_ = 0;
  std::size_t sample_pos_ = 0;
  std::size_t sync_pos_ = 0;
};

}  // namespace tempest::pipeline
