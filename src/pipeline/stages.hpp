// In-flight batch transforms: clock alignment and order verification.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pipeline/stage.hpp"
#include "trace/align.hpp"

namespace tempest::pipeline {

/// Rewrites event/sample timestamps into the global clock domain using
/// fits from a sync pre-pass (ChunkedTraceSource::clock_fits), then
/// drops the consumed sync records — the streaming counterpart of
/// align_clocks. With an empty fit map (no syncs: a single clock
/// domain) batches pass through untouched, matching the batch path's
/// early return.
class ClockAlignStage : public Stage {
 public:
  explicit ClockAlignStage(std::map<std::uint16_t, trace::ClockFit> fits)
      : fits_(std::move(fits)) {}

  Status process(const TraceMeta& meta, EventBatch* batch) override;

 private:
  std::map<std::uint16_t, trace::ClockFit> fits_;
};

/// Verifies the global ordering contract across batches: fn_events and
/// temp_samples each non-decreasing in tsc over the whole stream. The
/// timeline exporters need it (their output follows global order); the
/// batch path sorts after alignment, streaming cannot, so a trace whose
/// aligned records come out of file order must take the batch path —
/// the error says so.
class OrderCheckStage : public Stage {
 public:
  Status process(const TraceMeta& meta, EventBatch* batch) override;

 private:
  std::uint64_t last_event_tsc_ = 0;
  std::uint64_t last_sample_tsc_ = 0;
};

/// Verifies the profile fold's ordering contract, which is weaker than
/// OrderCheckStage's: fn_events non-decreasing in tsc per thread_id,
/// temp_samples non-decreasing per node_id (DESIGN.md §8). The timeline
/// keys its state on (addr, thread) with integer moments and the
/// profile assembler groups samples per node, so any cross-thread or
/// cross-node interleaving that keeps these orders folds to identical
/// bytes. A per-node affine clock fit with a >= 0 is monotone, so a
/// file recorded in raw-tsc order passes after alignment even when its
/// aligned global order differs from file order.
class FoldOrderCheckStage : public Stage {
 public:
  Status process(const TraceMeta& meta, EventBatch* batch) override;

  /// True once a batch broke the contract (process() then returned an
  /// error): callers fall back to the in-memory sort instead of failing.
  bool violated() const { return violated_; }

 private:
  std::uint64_t& last_event_tsc(std::uint32_t thread_id);

  /// Last tsc per thread: dense by id (thread ids are dense per
  /// process), hashed beyond the dense window (corrupt traces only).
  std::vector<std::uint64_t> event_tsc_;
  std::unordered_map<std::uint32_t, std::uint64_t> sparse_event_tsc_;
  std::vector<std::uint64_t> sample_tsc_;  ///< by node id
  bool violated_ = false;
};

}  // namespace tempest::pipeline
