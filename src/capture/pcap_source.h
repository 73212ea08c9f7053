// Deterministic pcap-replay CaptureSource.
//
// Replays a capture (file, bytes, or an already-parsed PcapFile)
// through the same ring-batched consumer path AfPacketSource feeds, so
// CI, tests, and benches exercise the inline data plane with zero
// privileges and bit-for-bit reproducibility. Frames are partitioned
// across rings by a flow hash over the parsed 5-tuple (frames of one
// flow land on one ring — the software analogue of PACKET_FANOUT_HASH;
// unparseable frames hash over their raw bytes), the partition is
// computed once at construction, and each ring replays its slice in
// capture order, as fast as the consumer drains. Replay can loop (a
// fixed pass count, or endlessly until stop() for throughput benches).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "capture/capture_source.h"
#include "net/pcap.h"

namespace rfipc::capture {

struct PcapReplayConfig {
  /// Rings to fan the capture out across (>= 1).
  std::size_t rings = 1;
  /// Full passes over the capture; 0 = loop until stop().
  std::uint64_t loops = 1;
};

class PcapReplaySource final : public CaptureSource {
 public:
  /// From a parsed capture (takes ownership of the frames). `origin`
  /// is the label describe() reports.
  PcapReplaySource(net::PcapFile file, PcapReplayConfig config = {},
                   std::string origin = "memory");
  /// From a pcap file on disk. Throws on load/parse failure.
  static PcapReplaySource from_file(const std::string& path,
                                    PcapReplayConfig config = {});

  std::string describe() const override;
  std::size_t ring_count() const override { return rings_.size(); }
  std::uint32_t link_type() const override { return file_.link_type; }
  std::size_t next_batch(std::size_t ring, std::span<FrameView> out) override;
  bool exhausted(std::size_t ring) const override;
  std::uint64_t overruns(std::size_t) const override { return 0; }
  void stop() override { stopped_.store(true, std::memory_order_release); }

  /// Frames assigned to `ring` per pass (the fanout partition).
  std::size_t ring_frames(std::size_t ring) const {
    return rings_[ring].order.size();
  }
  /// Total frames in the capture.
  std::size_t frame_count() const { return file_.records.size(); }

 private:
  struct Ring {
    /// Record indices this ring replays, in capture order.
    std::vector<std::size_t> order;
    /// Next position in `order` (ring thread only).
    std::size_t pos = 0;
    /// Completed full passes (ring thread only).
    std::uint64_t passes = 0;
  };

  net::PcapFile file_;
  PcapReplayConfig config_;
  std::string origin_;  // file path or "memory"
  std::vector<Ring> rings_;
  std::atomic<bool> stopped_{false};
};

}  // namespace rfipc::capture
