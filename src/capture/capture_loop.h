// The inline consumer of the capture data plane: frames in, verdicts
// out.
//
// One CaptureLoop drives one CaptureSource into one ShardedClassifier.
// Per ring it pulls a batch of kBatchFrames FrameViews, decodes each
// through net::parse_frame (link type from the source), packs the
// parsed 5-tuples into HeaderBits, and classifies the whole batch
// through the zero-alloc classify_batch path (want_multi=false;
// headers/results/views keep their capacity across batches, so the
// steady state allocates nothing). The verdict is the winning rule's
// action as classify_batch reports it, and per-ring counters (frames,
// batches, parse failures, forwards, drops, source overruns) surface
// through runtime::CaptureCounters, which the daemon folds into
// StatsSnapshot for the STATS wire op.
//
// Frames arrive cold: a live ring hands out TPACKET blocks the kernel
// wrote, and a replay pool can be larger than L2. So after priming a
// batch's first kPrefetchFrames frames, the loop prefetches frame
// i + kPrefetchFrames's header lines while it parses frame i: the
// first line, and the line holding byte 45 (where a double-tagged
// frame's L4 ports end) when the frame is that long.
//
// Verdict semantics:
//   * a frame that parses and whose winning rule forwards: forwarded;
//   * a frame that parses and matches a drop rule or nothing: dropped —
//     an inline firewall defaults to deny;
//   * a frame that fails to parse: counted parse_failure AND dropped —
//     an inline classifier cannot forward what it cannot classify.
//
// Update coherence: the action comes from the same RCU snapshot pin
// that answered the winning index (see runtime/sharded_classifier.h),
// so a frame can never pair a new rule index with an old action, and
// once an update's completion future resolves (the wire OK), every
// later batch is decided under its actions.
//
// Threading: run() drains a finite source sequentially ring-by-ring
// (deterministic — tests and golden replays). start()/stop() run one
// consumer thread per ring for live capture. The two modes are
// exclusive per loop instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "capture/capture_source.h"
#include "net/packet_parser.h"
#include "runtime/sharded_classifier.h"
#include "runtime/stats.h"
#include "ruleset/ruleset.h"

namespace rfipc::capture {

/// Frames classified per batch (and per next_batch pull).
inline constexpr std::size_t kBatchFrames = 256;
/// How many frames ahead of the one being parsed the loop prefetches
/// header lines (EXPERIMENTS.md, "frame prefetch", has the sweep).
inline constexpr std::size_t kPrefetchFrames = 8;

class CaptureLoop {
 public:
  /// The classifier and source must outlive the loop.
  CaptureLoop(CaptureSource& source, const runtime::ShardedClassifier& classifier);
  /// Inert shim: ignores `rules`, since actions come from the
  /// classifier. Kept only for perfbench/layers.cpp until it stops
  /// calling it.
  CaptureLoop(CaptureSource& source, const runtime::ShardedClassifier& classifier,
              const ruleset::RuleSet& /*rules*/)
      : CaptureLoop(source, classifier) {}
  ~CaptureLoop();

  CaptureLoop(const CaptureLoop&) = delete;
  CaptureLoop& operator=(const CaptureLoop&) = delete;

  /// Inert shim: does nothing, since actions ride the classifier's
  /// snapshot. Kept only for perfbench/layers.cpp until it stops
  /// calling it.
  void publish_verdicts(const ruleset::RuleSet& /*rules*/) {}

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
  /// allocation once warm): views from the source, and the packed
  /// headers and results of the frames that parsed (parse failures are
  /// compacted out before classify).
  struct RingScratch {
    std::vector<FrameView> views;
    std::vector<net::HeaderBits> headers;
    std::vector<engines::MatchResult> results;
  };

  /// Pulls and classifies one batch on `ring`. Returns frames consumed
  /// (0 = nothing available; caller checks exhausted()).
  std::size_t step(std::size_t ring, RingScratch& scratch);
  void drain_ring(std::size_t ring);

  CaptureSource& source_;
  const runtime::ShardedClassifier& classifier_;
  std::vector<std::unique_ptr<RingCounters>> counters_;
  std::vector<std::thread> threads_;
  std::atomic<bool> started_{false};
};

}  // namespace rfipc::capture
