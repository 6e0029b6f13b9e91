// The profile fold's ordering contract: events in time order per
// thread, samples per node — not globally. Any file order that keeps
// those folds to the same bytes as the in-memory sort, so single-file
// traces stream through clock alignment with no global re-sort; traces
// that break the contract (or inputs that cannot be streamed) fall back
// to the in-memory path and still produce today's bytes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parser/parse.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/fold_file.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stages.hpp"
#include "report/json.hpp"
#include "report/stdout_format.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
namespace pipeline = tempest::pipeline;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/fold_order." + std::to_string(::getpid()) +
         "." + name;
}

/// Text, JSON and CSV of one result, concatenated: every byte a
/// profile emitter can produce.
std::string render(const pipeline::AnalysisResult& result) {
  std::ostringstream os;
  EXPECT_TRUE(pipeline::TextEmitter(os).emit(result));
  EXPECT_TRUE(pipeline::JsonEmitter(os).emit(result));
  EXPECT_TRUE(pipeline::CsvSeriesEmitter(os).emit(result));
  return os.str();
}

std::string render_profile(const parser::RunProfile& profile) {
  std::ostringstream os;
  report::print_profile(os, profile, {});
  report::write_profile_json(os, profile, nullptr);
  return os.str();
}

pipeline::AnalysisOptions fold_options(unsigned threads) {
  pipeline::AnalysisOptions options;
  options.want_series = true;
  options.span_functions = {"main"};
  options.threads = threads;
  return options;
}

/// The in-memory reference, spelled out as the tools ran it before
/// streaming: load, align_clocks (whose global sort is the point) or
/// sort_by_time, then one fold over the whole trace with its scanned
/// bounds.
pipeline::AnalysisResult in_memory_fold(const std::string& path, bool align,
                                        unsigned threads) {
  auto loaded = read_trace_file(path);
  EXPECT_TRUE(loaded.is_ok()) << loaded.message();
  Trace t = std::move(loaded).value();
  if (align) {
    EXPECT_TRUE(align_clocks(&t));
  } else {
    t.sort_by_time();
  }
  pipeline::AnalysisPipeline fold(fold_options(threads));
  fold.set_metadata(t);
  fold.set_bounds(t.start_tsc(), t.end_tsc());
  fold.add_fn_events(t.fn_events.data(), t.fn_events.size());
  fold.add_temp_samples(t.temp_samples.data(), t.temp_samples.size());
  return fold.finish();
}

pipeline::FoldFileResult fold_file(const std::string& path, bool align,
                                   unsigned threads) {
  pipeline::FoldFileOptions options;
  options.analysis = fold_options(threads);
  options.align = align;
  auto folded = pipeline::fold_trace_file(path, options);
  EXPECT_TRUE(folded.is_ok()) << folded.message();
  return folded.is_ok() ? std::move(folded).value() : pipeline::FoldFileResult{};
}

/// A node's clock: ahead of the global clock by `offset` ticks and
/// drifting by `ppm` against it.
struct NodeClock {
  std::uint64_t offset = 0;
  double ppm = 0.0;
  std::uint64_t local(std::uint64_t global) const {
    const double g = static_cast<double>(global);
    return global + offset + static_cast<std::uint64_t>(std::max(0.0, g * ppm * 1e-6));
  }
};

/// A multi-node run in global time: `threads_per_node` threads per
/// node, each replaying random nested (and sometimes recursive) calls,
/// with the odd stray exit and call left open at the end; 4 Hz-style
/// samples per node. Records carry node-local timestamps from `clocks`
/// (empty: one clock domain) plus syncs pinning each clock's fit. Each
/// thread's events and each node's samples are in time order; the
/// vectors are grouped per thread/node, not globally sorted.
Trace random_run(std::mt19937_64& rng, const std::vector<NodeClock>& clocks,
                 std::size_t nodes, std::size_t threads_per_node,
                 std::size_t calls_per_thread) {
  Trace t;
  t.tsc_ticks_per_second = 1e6;
  t.executable = "fold_order_app";  // nonexistent: synthetic names resolve
  const std::uint64_t kMain = kSyntheticAddrBase + 1;
  t.synthetic_symbols = {{kMain, "main"}};
  for (std::uint64_t f = 0; f < 5; ++f) {
    t.synthetic_symbols.push_back(
        {kSyntheticAddrBase + 10 + f, "fn" + std::to_string(f)});
  }
  const auto local = [&](std::uint16_t node, std::uint64_t global) {
    return clocks.empty() ? global : clocks[node].local(global);
  };

  for (std::uint16_t node = 0; node < nodes; ++node) {
    t.nodes.push_back({node, "node" + std::to_string(node)});
    t.sensors.push_back({node, 0, "cpu", 0.5});
    t.sensors.push_back({node, 1, "board", 0.5});
    for (std::size_t k = 0; k < threads_per_node; ++k) {
      const auto tid = static_cast<std::uint32_t>(node * threads_per_node + k);
      t.threads.push_back({tid, node, static_cast<std::uint16_t>(k)});
      std::uint64_t now = 1000 + rng() % 500;
      const auto push = [&](std::uint64_t addr, FnEventKind kind) {
        t.fn_events.push_back({local(node, now), addr, tid, node, kind});
      };
      push(kMain, FnEventKind::kEnter);
      std::vector<std::uint64_t> stack;
      for (std::size_t c = 0; c < calls_per_thread; ++c) {
        now += rng() % 40;  // 0 keeps equal-timestamp ties in play
        if (!stack.empty() && rng() % 3 == 0) {
          push(stack.back(), FnEventKind::kExit);
          stack.pop_back();
        } else if (rng() % 50 == 0) {
          push(kSyntheticAddrBase + 10 + rng() % 5, FnEventKind::kExit);
        } else {
          // Recursion: re-enter the innermost function now and then.
          const std::uint64_t addr = !stack.empty() && rng() % 6 == 0
                                         ? stack.back()
                                         : kSyntheticAddrBase + 10 + rng() % 5;
          push(addr, FnEventKind::kEnter);
          stack.push_back(addr);
        }
      }
      while (stack.size() > 1) {  // the innermost call stays open
        now += rng() % 40;
        push(stack.back(), FnEventKind::kExit);
        stack.pop_back();
      }
      if (k == 0) {
        now += 10;
        push(kMain, FnEventKind::kExit);
      }
    }
    for (std::uint64_t g = 1000; g < 3000 + calls_per_thread * 20; g += 150) {
      for (std::uint16_t sensor = 0; sensor < 2; ++sensor) {
        t.temp_samples.push_back(
            {local(node, g), 40.0 + node + 0.5 * static_cast<double>(rng() % 9),
             node, sensor});
      }
    }
    if (!clocks.empty()) {
      for (std::uint64_t g = 0; g <= 8000 + calls_per_thread * 40; g += 2000) {
        t.clock_syncs.push_back({local(node, g), g, node});
      }
    }
  }
  return t;
}

/// `t` with its events and samples reshuffled into a random
/// interleaving that keeps each thread's event order and each node's
/// sample order.
Trace interleaved(const Trace& t, std::mt19937_64& rng) {
  Trace out = t;
  out.fn_event_runs.clear();
  const auto shuffle_keeping = [&rng](auto records, auto key) {
    using Record = typename decltype(records)::value_type;
    std::vector<std::vector<Record>> lanes;
    std::vector<std::uint32_t> lane_keys;
    for (const Record& r : records) {
      const auto k = key(r);
      auto it = std::find(lane_keys.begin(), lane_keys.end(), k);
      if (it == lane_keys.end()) {
        lane_keys.push_back(k);
        lanes.emplace_back();
        it = lane_keys.end() - 1;
      }
      lanes[static_cast<std::size_t>(it - lane_keys.begin())].push_back(r);
    }
    std::vector<std::size_t> pos(lanes.size(), 0);
    records.clear();
    for (;;) {
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        if (pos[i] < lanes[i].size()) live.push_back(i);
      }
      if (live.empty()) break;
      const std::size_t lane = live[rng() % live.size()];
      // Runs of up to 8 from one lane, so batches mix few lanes.
      const std::size_t n = std::min<std::size_t>(1 + rng() % 8,
                                                   lanes[lane].size() - pos[lane]);
      for (std::size_t i = 0; i < n; ++i) records.push_back(lanes[lane][pos[lane]++]);
    }
    return records;
  };
  out.fn_events = shuffle_keeping(
      t.fn_events, [](const FnEvent& e) { return e.thread_id; });
  out.temp_samples = shuffle_keeping(
      t.temp_samples, [](const TempSample& s) { return std::uint32_t{s.node_id}; });
  return out;
}

TEST(FoldOrder, AnyPerThreadOrderedInterleavingFoldsToTheSameBytes) {
  std::mt19937_64 rng(20070611);
  const std::vector<NodeClock> clocks = {
      {0, 0.0}, {700, 120.0}, {50000, 80.0}};
  for (int round = 0; round < 4; ++round) {
    const bool skewed = round % 2 == 1;
    const Trace base =
        random_run(rng, skewed ? clocks : std::vector<NodeClock>{}, 3, 2, 300);

    // Reference: the time-sorted file through the in-memory path.
    Trace sorted = base;
    sorted.sort_by_time();
    const std::string sorted_path = temp_path("sorted.trace");
    ASSERT_TRUE(write_trace_file(sorted_path, sorted));

    for (int shuffle = 0; shuffle < 3; ++shuffle) {
      const std::string path = temp_path("interleaved.trace");
      ASSERT_TRUE(write_trace_file(path, interleaved(base, rng)));
      for (const bool align : {true, false}) {
        const std::string expected =
            render(in_memory_fold(sorted_path, align, 1));
        for (const unsigned threads : {1u, 4u}) {
          const pipeline::FoldFileResult folded = fold_file(path, align, threads);
          EXPECT_TRUE(folded.streamed);
          EXPECT_EQ(render(folded.analysis), expected)
              << "round " << round << " shuffle " << shuffle << " align "
              << align << " threads " << threads;
        }
      }
    }
  }
}

TEST(FoldOrder, SkewedDriftingNodesStreamWhereGlobalOrderIsRejected) {
  // Four nodes whose clocks sit far apart and drift: written in raw-tsc
  // order, as a recorder's merge would, the aligned global order
  // differs from file order.
  std::mt19937_64 rng(4);
  const std::vector<NodeClock> clocks = {
      {0, 0.0}, {800000, 35.0}, {4000, 60.0}, {123457, 10.0}};
  Trace t = random_run(rng, clocks, 4, 2, 200);
  t.sort_by_time();  // raw-tsc order
  const std::string path = temp_path("skewed.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  pipeline::BatchOptions tiny;
  tiny.batch_records = 2;
  const auto stream = [&](pipeline::Stage* check,
                          pipeline::AnalysisSink* sink) -> Status {
    auto opened = pipeline::ChunkedTraceSource::open(path, tiny);
    EXPECT_TRUE(opened.is_ok()) << opened.message();
    auto source = std::move(opened).value();
    auto fits = source.clock_fits();
    EXPECT_TRUE(fits.is_ok()) << fits.message();
    pipeline::ClockAlignStage align(std::move(fits).value());
    return pipeline::run_pipeline(&source, {&align, check}, {sink});
  };

  // The global check rejects it: this is not a time-sorted stream.
  pipeline::OrderCheckStage global_order;
  pipeline::AnalysisSink rejected(fold_options(1));
  EXPECT_FALSE(stream(&global_order, &rejected));

  // The fold's own contract holds, and the streamed profile is
  // parse_trace's, byte for byte.
  pipeline::FoldOrderCheckStage fold_order;
  pipeline::AnalysisSink sink(fold_options(1));
  const Status ran = stream(&fold_order, &sink);
  ASSERT_TRUE(ran) << ran.message();
  EXPECT_FALSE(fold_order.violated());

  auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  auto parsed = parser::parse_trace(std::move(loaded).value());
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  EXPECT_EQ(render_profile(sink.result().profile), render_profile(parsed.value()));

  // The shared file fold streams it too, at any thread count.
  const std::string expected = render(in_memory_fold(path, true, 1));
  EXPECT_EQ(render(sink.result()), expected);
  for (const unsigned threads : {1u, 4u}) {
    const pipeline::FoldFileResult folded = fold_file(path, true, threads);
    EXPECT_TRUE(folded.streamed);
    EXPECT_EQ(render(folded.analysis), expected) << "threads " << threads;
  }
}

TEST(FoldOrder, OutOfOrderThreadFallsBackToTheInMemorySort) {
  std::mt19937_64 rng(7);
  Trace t = random_run(rng, {{0, 0.0}, {900, 40.0}}, 2, 2, 100);
  // Swap two of thread 1's events with distinct timestamps: its stream
  // now runs backwards once, which only a hand-built trace does.
  std::vector<std::size_t> mine;
  for (std::size_t i = 0; i < t.fn_events.size(); ++i) {
    if (t.fn_events[i].thread_id == 1) mine.push_back(i);
  }
  ASSERT_GT(mine.size(), 20u);
  std::size_t a = mine[10], b = mine[11];
  for (std::size_t k = 11; t.fn_events[a].tsc == t.fn_events[b].tsc; ++k) {
    b = mine[k + 1];
  }
  std::swap(t.fn_events[a], t.fn_events[b]);
  const std::string path = temp_path("unordered.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  for (const bool align : {true, false}) {
    const std::string expected = render(in_memory_fold(path, align, 1));
    for (const unsigned threads : {1u, 4u}) {
      const pipeline::FoldFileResult folded = fold_file(path, align, threads);
      EXPECT_FALSE(folded.streamed);
      EXPECT_EQ(render(folded.analysis), expected)
          << "align " << align << " threads " << threads;
    }
  }
}

TEST(FoldOrder, PipeInputFallsBackToTheInMemoryRead) {
  std::mt19937_64 rng(11);
  Trace t = random_run(rng, {{0, 0.0}, {5000, 20.0}}, 2, 2, 100);
  t.sort_by_time();
  const std::string path = temp_path("piped.trace");
  ASSERT_TRUE(write_trace_file(path, t));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string expected = render(in_memory_fold(path, true, 1));

  const std::string fifo = temp_path("trace.fifo");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The writer blocks in open() until the fold opens the read end.
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  const pipeline::FoldFileResult folded = fold_file(fifo, true, 1);
  writer.join();
  ::unlink(fifo.c_str());
  EXPECT_FALSE(folded.streamed);
  EXPECT_EQ(render(folded.analysis), expected);
}

TEST(FoldOrderCheckStage, TracksThreadsAndNodesIndependently) {
  pipeline::FoldOrderCheckStage check;
  pipeline::EventBatch batch;
  // Thread 1 runs behind thread 0 and node 1's samples behind node 0's:
  // fine, the contract is per thread and per node.
  batch.fn_events = {{100, 0x1, 0, 0, FnEventKind::kEnter},
                     {50, 0x1, 1, 0, FnEventKind::kEnter},
                     {100, 0x1, 0, 0, FnEventKind::kExit},
                     {60, 0x1, 1, 0, FnEventKind::kExit}};
  batch.temp_samples = {{200, 40.0, 0, 0}, {150, 41.0, 1, 0}};
  EXPECT_TRUE(check.process({}, &batch));
  // A thread far beyond the dense window still gets its own lane.
  batch.fn_events = {{10, 0x1, 5000000, 0, FnEventKind::kEnter}};
  batch.temp_samples.clear();
  EXPECT_TRUE(check.process({}, &batch));
  EXPECT_FALSE(check.violated());

  batch.fn_events = {{99, 0x1, 0, 0, FnEventKind::kEnter}};
  EXPECT_FALSE(check.process({}, &batch));
  EXPECT_TRUE(check.violated());

  pipeline::FoldOrderCheckStage samples;
  batch.fn_events.clear();
  batch.temp_samples = {{200, 40.0, 3, 0}, {199, 40.0, 3, 1}};
  EXPECT_FALSE(samples.process({}, &batch));
  EXPECT_TRUE(samples.violated());
}

}  // namespace
