// AF_PACKET TPACKET_V3 ring CaptureSource — real traffic off a live
// Linux interface.
//
// One AF_PACKET socket per ring, each with a kernel-shared mmap RX
// ring of retirement-timed blocks (TPACKET_V3: the kernel fills a
// block with back-to-back frames and hands the WHOLE block to
// userspace, so one synchronization point covers hundreds of frames —
// the batching that makes the zero-alloc classify path worth feeding).
// All sockets of a source join one PACKET_FANOUT group in
// FANOUT_HASH mode, so the kernel spreads flows across rings the same
// way PcapReplaySource's software hash does, and per-ring consumers
// never contend on a frame.
//
// next_batch() walks the current user-owned block and emits zero-copy
// FrameViews into the mmap; the block is released back to the kernel
// (TP_STATUS_KERNEL) only on the NEXT call, after the consumer is done
// with the views. Kernel-side drops (consumer lagged, ring full)
// surface through overruns() via PACKET_STATISTICS.
//
// Requires CAP_NET_RAW; the constructor throws std::system_error
// (EPERM/EACCES) without it, which smoke scripts map to [SKIP]. On
// non-Linux builds the constructor always throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capture/capture_source.h"

namespace rfipc::capture {

// Ring geometry and timing every AF_PACKET capture shares.

/// Bytes per ring block (a multiple of every Linux page size).
inline constexpr std::size_t kBlockSize = 1u << 20;
/// Blocks per ring.
inline constexpr std::size_t kBlockCount = 16;
/// Kernel block-retirement timeout: an unfilled block is handed to
/// userspace after this long, bounding idle-traffic latency.
inline constexpr std::uint32_t kBlockTimeoutMs = 60;
/// poll() slice while waiting for a block; also the stop() latency
/// bound.
inline constexpr int kPollMs = 50;

struct AfPacketConfig {
  std::string iface;
  /// RX rings (sockets in the fanout group). The group id derives from
  /// the pid, so unrelated captures on one interface do not collide.
  std::size_t rings = 1;
};

class AfPacketSource final : public CaptureSource {
 public:
  /// Opens, maps, binds, and joins the fanout group for every ring.
  /// Throws std::system_error on any setup failure (sockets already
  /// opened are torn down).
  explicit AfPacketSource(AfPacketConfig config);
  ~AfPacketSource() override;

  AfPacketSource(const AfPacketSource&) = delete;
  AfPacketSource& operator=(const AfPacketSource&) = delete;

  std::string describe() const override;
  std::size_t ring_count() const override { return rings_.size(); }
  std::uint32_t link_type() const override;  // LINKTYPE_ETHERNET
  std::size_t next_batch(std::size_t ring, std::span<FrameView> out) override;
  bool exhausted(std::size_t ring) const override;
  std::uint64_t overruns(std::size_t ring) const override;
  void stop() override { stopped_.store(true, std::memory_order_release); }

 private:
  struct Ring {
    int fd = -1;
    std::uint8_t* map = nullptr;
    std::size_t map_len = 0;
    std::size_t block = 0;        // current block index
    /// Mid-block walk state: next frame offset within the current
    /// block and frames left, so a small caller batch resumes where it
    /// stopped instead of dropping the block's tail.
    std::size_t walk_offset = 0;
    std::uint32_t walk_remaining = 0;
    bool block_open = false;      // current block is user-owned
    bool walk_done = false;       // walked fully; release on next call
    mutable std::atomic<std::uint64_t> drops{0};
  };

  void open_ring(Ring& ring, int ifindex, std::uint16_t fanout);
  void teardown();
  /// Accumulates PACKET_STATISTICS (kernel resets on read) into drops.
  void harvest_drops(const Ring& ring) const;

  AfPacketConfig config_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<bool> stopped_{false};
};

}  // namespace rfipc::capture
