#include "pipeline/analysis.hpp"

#include <algorithm>
#include <utility>

#include "common/fastwrite.hpp"

namespace tempest::pipeline {

AnalysisPipeline::AnalysisPipeline(AnalysisOptions options)
    : options_(std::move(options)), assembler_(options_.profile) {}

void AnalysisPipeline::set_metadata(const TraceMeta& meta) {
  meta_ = meta;
  if (!options_.exe_override.empty()) meta_.executable = options_.exe_override;
  timeline_.emplace(meta_.threads, options_.timeline_hint,
                    std::max(1u, options_.threads));
  assembler_.set_metadata(meta_);
}

void AnalysisPipeline::set_run_stats(const trace::RunStats& stats) {
  meta_.run_stats = stats;
}

void AnalysisPipeline::set_bounds(std::uint64_t start_tsc, std::uint64_t end_tsc) {
  start_tsc_ = start_tsc;
  end_tsc_ = end_tsc;
  bounds_forced_ = true;
}

template <typename Record>
void AnalysisPipeline::widen_bounds(const Record* records, std::size_t n) {
  std::uint64_t lo = records[0].tsc;
  std::uint64_t hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, records[i].tsc);
    hi = std::max(hi, records[i].tsc);
  }
  if (!any_records_ || lo < start_tsc_) start_tsc_ = lo;
  if (!any_records_ || hi > end_tsc_) end_tsc_ = hi;
}

void AnalysisPipeline::add_fn_events(const trace::FnEvent* events, std::size_t n) {
  if (n == 0) return;
  // Batches are ordered per thread, not globally, so scan for the ends.
  if (!bounds_forced_) widen_bounds(events, n);
  any_records_ = true;
  timeline_->add_events(events, n);
}

void AnalysisPipeline::add_temp_samples(const trace::TempSample* samples,
                                        std::size_t n) {
  if (n == 0) return;
  if (!bounds_forced_) widen_bounds(samples, n);
  any_records_ = true;
  assembler_.add_samples(samples, n);
}

AnalysisResult AnalysisPipeline::finish(const symtab::Resolver* resolver) {
  if (!timeline_) set_metadata(meta_);  // no metadata seen: empty run

  parser::TimelineDiagnostics diag;
  const parser::TimelineMap timeline = timeline_->finish(end_tsc_, &diag);

  // Symbolise every distinct address exactly as parse_trace does:
  // synthetic names win, then the ELF resolver, then hex.
  std::optional<symtab::Resolver> own_resolver;
  if (resolver == nullptr && !meta_.executable.empty()) {
    auto built =
        symtab::Resolver::for_executable(meta_.executable, meta_.load_bias);
    if (built.is_ok()) {
      own_resolver.emplace(std::move(built).value());
      resolver = &*own_resolver;
    }
  }

  std::vector<std::pair<std::uint64_t, std::string>> names;
  names.reserve(timeline.size() + meta_.synthetic_symbols.size());
  for (const auto& s : meta_.synthetic_symbols) names.emplace_back(s.addr, s.name);
  for (const auto& [key, fi] : timeline) {
    if (fi.addr >= trace::kSyntheticAddrBase) continue;
    if (resolver != nullptr) {
      names.emplace_back(fi.addr, resolver->resolve(fi.addr));
    } else {
      std::string hex = "0x";
      fastwrite::append_hex(hex, fi.addr);
      names.emplace_back(fi.addr, std::move(hex));
    }
  }

  AnalysisResult result;
  result.run_stats = meta_.run_stats;
  result.profile = assembler_.assemble(start_tsc_, end_tsc_, timeline, names, diag);
  if (options_.want_series) {
    result.series =
        report::build_series(meta_, assembler_.samples(), start_tsc_, end_tsc_,
                             options_.profile.unit, options_.span_functions,
                             &timeline);
    result.has_series = true;
  }
  return result;
}

}  // namespace tempest::pipeline
