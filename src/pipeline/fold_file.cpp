#include "pipeline/fold_file.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/worker_pool.hpp"
#include "pipeline/prefetch.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stages.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::pipeline {
namespace {

using Out = Result<FoldFileResult>;

bool is_regular_file(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// The streaming path. Sets *out_of_order when FoldOrderCheckStage
/// stopped the run, so the caller can fall back instead of failing.
Out stream_fold(const std::string& path, const FoldFileOptions& options,
                bool* out_of_order) {
  const unsigned threads = std::max(1u, options.analysis.threads);
  // Declaration order is teardown order in reverse: the read-ahead
  // thread joins before the source it drives, which goes before the
  // decode pool it uses.
  std::optional<WorkerPool> pool;
  auto opened = ChunkedTraceSource::open(path);
  if (!opened.is_ok()) return Out::error(opened.message());
  ChunkedTraceSource chunked = std::move(opened).value();
  if (threads > 1) {
    pool.emplace(threads);
    chunked.set_decode_pool(&*pool);
  }

  std::vector<Stage*> stages;
  std::optional<ClockAlignStage> align_stage;
  if (options.align) {
    auto fits = chunked.clock_fits();
    if (!fits.is_ok()) return Out::error(fits.message());
    align_stage.emplace(std::move(fits).value());
    stages.push_back(&*align_stage);
  }
  FoldOrderCheckStage order;
  stages.push_back(&order);

  Source* source = &chunked;
  std::optional<PrefetchSource> prefetch;
  if (threads > 1) {
    prefetch.emplace(source);
    source = &*prefetch;
  }
  AnalysisSink sink(options.analysis);
  const Status ran = run_pipeline(source, stages, {&sink});
  if (!ran) {
    *out_of_order = order.violated();
    return Out::error(ran.message());
  }
  FoldFileResult result;
  result.analysis = sink.result();
  result.filter = source->meta().filter;
  return result;
}

/// The in-memory path: load, align (loudly — a failed fit is an error,
/// not a silently skewed report) or sort, fold.
Out batch_fold(const std::string& path, const FoldFileOptions& options) {
  auto loaded = trace::read_trace_file(path);
  if (!loaded.is_ok()) return Out::error("cannot read trace: " + loaded.message());
  trace::Trace trace = std::move(loaded).value();
  if (options.align) {
    const Status aligned = trace::align_clocks(&trace);
    if (!aligned) return Out::error(path + ": " + aligned.message());
  } else {
    trace.sort_by_time();
  }
  AnalysisOptions analysis = options.analysis;
  analysis.timeline_hint =
      std::min(trace.fn_events.size() / 8 + 16, std::size_t{1} << 16);
  AnalysisPipeline fold(std::move(analysis));
  fold.set_metadata(trace);
  fold.add_fn_events(trace.fn_events.data(), trace.fn_events.size());
  fold.add_temp_samples(trace.temp_samples.data(), trace.temp_samples.size());
  FoldFileResult result;
  result.analysis = fold.finish();
  result.filter = trace.filter;
  result.streamed = false;
  return result;
}

}  // namespace

Result<FoldFileResult> fold_trace_file(const std::string& path,
                                       const FoldFileOptions& options) {
  if (is_regular_file(path)) {
    bool out_of_order = false;
    auto streamed = stream_fold(path, options, &out_of_order);
    if (streamed.is_ok() || !out_of_order) return streamed;
  }
  return batch_fold(path, options);
}

}  // namespace tempest::pipeline
