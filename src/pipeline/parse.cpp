// Batch entry points, rebuilt as thin wrappers over the streaming
// pipeline. parse_trace prepares the in-memory trace exactly as before
// (align or sort) and then folds it through AnalysisPipeline — the same
// consumer core the streaming sources feed — so both paths produce
// bit-identical profiles by construction.
#include "parser/parse.hpp"

#include <algorithm>

#include "pipeline/analysis.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::parser {

Result<RunProfile> parse_trace(trace::Trace trace, const ParseOptions& options,
                               const symtab::Resolver* resolver) {
  if (options.align_clocks) {
    const Status aligned = trace::align_clocks(&trace);
    if (!aligned) return Result<RunProfile>::error(aligned.message());
  } else {
    trace.sort_by_time();
  }

  pipeline::AnalysisOptions fold_options;
  fold_options.profile = options.profile;
  fold_options.timeline_hint =
      std::min(trace.fn_events.size() / 8 + 16, std::size_t{1} << 16);
  pipeline::AnalysisPipeline fold(std::move(fold_options));
  fold.set_metadata(trace);
  fold.add_fn_events(trace.fn_events.data(), trace.fn_events.size());
  fold.add_temp_samples(trace.temp_samples.data(), trace.temp_samples.size());
  return std::move(fold.finish(resolver).profile);
}

Result<RunProfile> parse_trace_file(const std::string& path,
                                    const ParseOptions& options) {
  auto loaded = trace::read_trace_file(path);
  if (!loaded.is_ok()) return Result<RunProfile>::error(loaded.message());
  return parse_trace(std::move(loaded).value(), options);
}

}  // namespace tempest::parser
