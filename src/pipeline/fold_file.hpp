// One trace file to one profile: the analysis path tempest_parse and
// tempest-diff share.
#pragma once

#include <string>

#include "common/status.hpp"
#include "pipeline/analysis.hpp"

namespace tempest::pipeline {

struct FoldFileOptions {
  /// Fold settings; `analysis.threads` > 1 also decodes on a worker
  /// pool and reads ahead on a producer thread.
  AnalysisOptions analysis;
  /// Map every node's clock onto the global one (off: --no-align).
  bool align = true;
};

struct FoldFileResult {
  AnalysisResult analysis;
  /// The trace's FLTR trailer (functions the recorder suppressed).
  trace::FilterDecl filter;
  /// False when the file took the in-memory fallback.
  bool streamed = true;
};

/// Fold `path` into a profile. Streams the file through
/// ChunkedTraceSource -> ClockAlignStage -> FoldOrderCheckStage ->
/// AnalysisPipeline, so peak memory is the fold's own state and no
/// global re-sort runs. Falls back to read_trace_file + align_clocks
/// (or sort_by_time) + the same fold when streaming cannot hold:
///   - the input is not a regular file (a pipe cannot serve the clock
///     sync pre-pass, and is read once, so it is never streamed);
///   - a thread's events or a node's samples are out of time order,
///     which only hand-built traces do; nothing is emitted before the
///     fold finishes, so the fallback starts clean.
/// Either way the result is byte-identical to the in-memory path.
/// Error messages name `path`.
Result<FoldFileResult> fold_trace_file(const std::string& path,
                                       const FoldFileOptions& options);

}  // namespace tempest::pipeline
