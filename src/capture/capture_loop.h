// The inline consumer of the capture data plane: frames in, verdicts
// out.
//
// One CaptureLoop drives one CaptureSource into one engine. Per ring it
// pulls a batch of FrameViews, decodes each through net::parse_frame
// (link type from the source), packs the parsed 5-tuples into
// HeaderBits, and classifies the whole batch through the zero-alloc
// classify_batch path (want_multi=false; headers/results/views keep
// their capacity across batches, so the steady state allocates
// nothing). The winning rule index is mapped to a forward/drop verdict
// through a verdict table — one forward-bit per rule — and per-ring
// counters (frames, batches, parse failures, forwards, drops, source
// overruns) surface through runtime::CaptureCounters, which the daemon
// folds into StatsSnapshot for the STATS wire op.
//
// Verdict semantics:
//   * a frame that parses and matches rule r: forward iff the verdict
//     table's bit r is set (rule action kForward);
//   * a frame that parses and matches nothing, or whose winning index
//     is transiently out of the table's range (an update raced the
//     batch): dropped — an inline firewall defaults to deny;
//   * a frame that fails to parse: counted parse_failure AND dropped —
//     an inline classifier cannot forward what it cannot classify.
//
// Update coherence: publish_verdicts() swaps in a new table built from
// a RuleSet. rfipcd calls it from the ShardedClassifier's durability
// hook, which runs on the single update-applier thread AFTER the new
// engine snapshot is published and BEFORE the update's completion
// future resolves — so once an update is acked on the wire, no frame
// is decided under the old actions. Each batch loads the table once
// (shared_ptr under a mutex), so a swap never tears mid-frame.
//
// Threading: run() drains a finite source sequentially ring-by-ring
// (deterministic — tests and golden replays). start()/stop() run one
// consumer thread per ring for live capture. The two modes are
// exclusive per loop instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "capture/capture_source.h"
#include "engines/common/engine.h"
#include "net/packet_parser.h"
#include "runtime/stats.h"
#include "ruleset/ruleset.h"

namespace rfipc::capture {

struct CaptureLoopConfig {
  /// Frames classified per engine batch (and per next_batch pull).
  std::size_t batch_size = 256;
};

class CaptureLoop {
 public:
  /// The engine and source must outlive the loop. The initial verdict
  /// table is built from `rules` (index == priority, matching the
  /// engine's rule indices).
  CaptureLoop(CaptureSource& source, const engines::ClassifierEngine& engine,
              const ruleset::RuleSet& rules, CaptureLoopConfig config = {});
  ~CaptureLoop();

  CaptureLoop(const CaptureLoop&) = delete;
  CaptureLoop& operator=(const CaptureLoop&) = delete;

  /// Swaps in a fresh forward-bit table built from `rules`. Safe from
  /// any thread; batches in flight finish under the table they loaded.
  void publish_verdicts(const ruleset::RuleSet& rules);

  /// Drains every ring to exhaustion on the calling thread, ring 0
  /// first — deterministic for finite replay sources. Returns total
  /// frames consumed.
  std::uint64_t run();

  /// Spawns one consumer thread per ring. Idempotent.
  void start();
  /// Stops the source, joins the consumer threads. Idempotent; also
  /// called by the destructor.
  void stop();

  /// Point-in-time per-ring counters (enabled=true, one entry per
  /// source ring, overruns pulled from the source).
  runtime::CaptureCounters counters() const;

 private:
  struct RingCounters {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> parse_failures{0};
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  /// Per-ring scratch reused across batches (zero steady-state
  /// allocation once warm): views from the source, packed headers and
  /// results for the engine, and the view-index of each header (parse
  /// failures are compacted out before classify).
  struct RingScratch {
    std::vector<FrameView> views;
    std::vector<net::HeaderBits> headers;
    std::vector<engines::MatchResult> results;
  };

  static std::vector<unsigned char> build_table(const ruleset::RuleSet& rules);
  std::shared_ptr<const std::vector<unsigned char>> verdicts() const;

  /// Pulls and classifies one batch on `ring`. Returns frames consumed
  /// (0 = nothing available; caller checks exhausted()).
  std::size_t step(std::size_t ring, RingScratch& scratch);
  void drain_ring(std::size_t ring);

  CaptureSource& source_;
  const engines::ClassifierEngine& engine_;
  CaptureLoopConfig config_;
  mutable std::mutex verdict_mu_;
  std::shared_ptr<const std::vector<unsigned char>> verdict_table_;
  std::vector<std::unique_ptr<RingCounters>> counters_;
  std::vector<std::thread> threads_;
  std::atomic<bool> started_{false};
};

}  // namespace rfipc::capture
