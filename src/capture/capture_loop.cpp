#include "capture/capture_loop.h"

#include <algorithm>

namespace rfipc::capture {

namespace {

/// Byte 45 is the last of the L4 ports in a double-tagged Ethernet frame
/// (14 + 8 + 20 + 4 = 46 bytes); frames with IP options read further.
constexpr std::uint32_t kLastHeaderByte = 45;

/// Prefetches the frame's first line and, if the frame reaches it, the
/// line holding kLastHeaderByte (no pointer past the frame is formed).
void prefetch_headers(const FrameView& frame) {
  __builtin_prefetch(frame.data);
  if (frame.len > kLastHeaderByte) __builtin_prefetch(frame.data + kLastHeaderByte);
}

}  // namespace

CaptureLoop::CaptureLoop(CaptureSource& source,
                         const runtime::ShardedClassifier& classifier)
    : source_(source), classifier_(classifier) {
  counters_.reserve(source_.ring_count());
  for (std::size_t i = 0; i < source_.ring_count(); ++i) {
    counters_.push_back(std::make_unique<RingCounters>());
  }
}

CaptureLoop::~CaptureLoop() { stop(); }

std::size_t CaptureLoop::step(std::size_t ring, RingScratch& scratch) {
  scratch.views.resize(kBatchFrames);
  const std::size_t n = source_.next_batch(ring, scratch.views);
  if (n == 0) return 0;

  RingCounters& c = *counters_[ring];
  c.frames.fetch_add(n, std::memory_order_relaxed);
  c.batches.fetch_add(1, std::memory_order_relaxed);

  // Parse, compacting failures out of the engine batch (an inline
  // classifier drops what it cannot decode). The frames are cold, so
  // frame i + kPrefetchFrames's header lines are fetched while frame i
  // is parsed.
  const std::uint32_t link_type = source_.link_type();
  scratch.headers.clear();
  std::uint64_t parse_failures = 0;
  for (std::size_t i = 0; i < std::min(n, kPrefetchFrames); ++i) {
    prefetch_headers(scratch.views[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchFrames < n) {
      prefetch_headers(scratch.views[i + kPrefetchFrames]);
    }
    const net::ParsedPacket p =
        net::parse_frame(scratch.views[i].bytes(), link_type);
    if (p.ok()) {
      scratch.headers.emplace_back(p.tuple);
    } else {
      ++parse_failures;
    }
  }
  if (parse_failures > 0) {
    c.parse_failures.fetch_add(parse_failures, std::memory_order_relaxed);
    c.dropped.fetch_add(parse_failures, std::memory_order_relaxed);
  }
  if (scratch.headers.empty()) return n;

  // Classify the parsed sub-batch (best-only; results keep capacity).
  if (scratch.results.size() < scratch.headers.size()) {
    scratch.results.resize(scratch.headers.size());
  }
  const std::span<engines::MatchResult> results{scratch.results.data(),
                                                scratch.headers.size()};
  classifier_.classify_batch(scratch.headers, results,
                             engines::BatchOptions{.want_multi = false});

  // The action arrives with the winner, unmatched frames carry drop.
  std::uint64_t forwarded = 0;
  for (const engines::MatchResult& r : results) {
    if (r.action.kind == ruleset::Action::Kind::kForward) ++forwarded;
  }
  c.forwarded.fetch_add(forwarded, std::memory_order_relaxed);
  c.dropped.fetch_add(results.size() - forwarded, std::memory_order_relaxed);
  return n;
}

void CaptureLoop::drain_ring(std::size_t ring) {
  RingScratch scratch;
  scratch.views.reserve(kBatchFrames);
  scratch.headers.reserve(kBatchFrames);
  scratch.results.reserve(kBatchFrames);
  while (true) {
    if (step(ring, scratch) == 0 && source_.exhausted(ring)) break;
  }
}

std::uint64_t CaptureLoop::run() {
  for (std::size_t ring = 0; ring < source_.ring_count(); ++ring) {
    drain_ring(ring);
  }
  std::uint64_t total = 0;
  for (const auto& c : counters_) {
    total += c->frames.load(std::memory_order_relaxed);
  }
  return total;
}

void CaptureLoop::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  threads_.reserve(source_.ring_count());
  for (std::size_t ring = 0; ring < source_.ring_count(); ++ring) {
    threads_.emplace_back([this, ring] { drain_ring(ring); });
  }
}

void CaptureLoop::stop() {
  source_.stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

runtime::CaptureCounters CaptureLoop::counters() const {
  runtime::CaptureCounters out;
  out.enabled = true;
  out.rings.reserve(counters_.size());
  for (std::size_t ring = 0; ring < counters_.size(); ++ring) {
    const RingCounters& c = *counters_[ring];
    runtime::CaptureRing r;
    r.frames = c.frames.load(std::memory_order_relaxed);
    r.batches = c.batches.load(std::memory_order_relaxed);
    r.parse_failures = c.parse_failures.load(std::memory_order_relaxed);
    r.forwarded = c.forwarded.load(std::memory_order_relaxed);
    r.dropped = c.dropped.load(std::memory_order_relaxed);
    r.overruns = source_.overruns(ring);
    out.rings.push_back(r);
  }
  return out;
}

}  // namespace rfipc::capture
