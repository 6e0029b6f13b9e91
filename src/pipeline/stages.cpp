#include "pipeline/stages.hpp"

#include <string>

namespace tempest::pipeline {

Status ClockAlignStage::process(const TraceMeta& /*meta*/, EventBatch* batch) {
  if (fits_.empty()) return Status::ok();  // single clock domain
  for (auto& e : batch->fn_events) {
    const auto it = fits_.find(e.node_id);
    if (it != fits_.end()) e.tsc = it->second.to_global(e.tsc);
  }
  for (auto& s : batch->temp_samples) {
    const auto it = fits_.find(s.node_id);
    if (it != fits_.end()) s.tsc = it->second.to_global(s.tsc);
  }
  batch->clock_syncs.clear();
  return Status::ok();
}

Status OrderCheckStage::process(const TraceMeta& /*meta*/, EventBatch* batch) {
  for (const auto& e : batch->fn_events) {
    if (e.tsc < last_event_tsc_) {
      return Status::error(
          "fn events are not in global time order after clock alignment; "
          "streaming analysis needs a time-sorted trace (use the batch path, "
          "which sorts in memory)");
    }
    last_event_tsc_ = e.tsc;
  }
  for (const auto& s : batch->temp_samples) {
    if (s.tsc < last_sample_tsc_) {
      return Status::error(
          "temperature samples are not in global time order after clock "
          "alignment; streaming analysis needs a time-sorted trace (use the "
          "batch path, which sorts in memory)");
    }
    last_sample_tsc_ = s.tsc;
  }
  return Status::ok();
}

std::uint64_t& FoldOrderCheckStage::last_event_tsc(std::uint32_t thread_id) {
  constexpr std::size_t kDenseCap = std::size_t{1} << 20;
  if (thread_id < event_tsc_.size()) return event_tsc_[thread_id];
  if (thread_id < kDenseCap) {
    event_tsc_.resize(std::size_t{thread_id} + 1, 0);
    return event_tsc_[thread_id];
  }
  return sparse_event_tsc_[thread_id];
}

Status FoldOrderCheckStage::process(const TraceMeta& /*meta*/, EventBatch* batch) {
  for (const auto& e : batch->fn_events) {
    std::uint64_t& last = last_event_tsc(e.thread_id);
    if (e.tsc < last) {
      violated_ = true;
      return Status::error("fn events of thread " + std::to_string(e.thread_id) +
                           " are not in time order after clock alignment");
    }
    last = e.tsc;
  }
  for (const auto& s : batch->temp_samples) {
    if (s.node_id >= sample_tsc_.size()) {
      sample_tsc_.resize(std::size_t{s.node_id} + 1, 0);
    }
    std::uint64_t& last = sample_tsc_[s.node_id];
    if (s.tsc < last) {
      violated_ = true;
      return Status::error("temperature samples of node " +
                           std::to_string(s.node_id) +
                           " are not in time order after clock alignment");
    }
    last = s.tsc;
  }
  return Status::ok();
}

}  // namespace tempest::pipeline
