#include "capture/pcap_source.h"

#include "net/packet_parser.h"
#include "util/prng.h"

namespace rfipc::capture {
namespace {

/// Flow hash matching the spirit of PACKET_FANOUT_HASH: frames of one
/// flow always land on one ring. Parsed frames hash their 5-tuple;
/// frames the parser rejects hash their raw bytes so they still spread
/// rather than piling onto ring 0.
std::uint64_t flow_hash(const net::PcapRecord& rec, std::uint32_t link_type) {
  const auto p = net::parse_frame(rec.frame, link_type);
  std::uint64_t h;
  if (p.ok()) {
    h = (static_cast<std::uint64_t>(p.tuple.src_ip.value) << 32) |
        p.tuple.dst_ip.value;
    h ^= (static_cast<std::uint64_t>(p.tuple.src_port) << 24) ^
         (static_cast<std::uint64_t>(p.tuple.dst_port) << 8) ^ p.tuple.protocol;
  } else {
    h = 0xcbf29ce484222325ULL;  // FNV-1a over the raw bytes
    for (const std::uint8_t b : rec.frame) h = (h ^ b) * 0x100000001b3ULL;
  }
  return util::splitmix64(h);
}

}  // namespace

PcapReplaySource::PcapReplaySource(net::PcapFile file, PcapReplayConfig config,
                                   std::string origin)
    : file_(std::move(file)), config_(config), origin_(std::move(origin)) {
  if (config_.rings == 0) config_.rings = 1;
  rings_.resize(config_.rings);
  for (std::size_t i = 0; i < file_.records.size(); ++i) {
    const std::size_t r =
        config_.rings == 1
            ? 0
            : static_cast<std::size_t>(flow_hash(file_.records[i], file_.link_type) %
                                       config_.rings);
    rings_[r].order.push_back(i);
  }
}

PcapReplaySource PcapReplaySource::from_file(const std::string& path,
                                             PcapReplayConfig config) {
  return PcapReplaySource(net::load_pcap(path), config, path);
}

std::string PcapReplaySource::describe() const {
  return "pcap replay " + origin_ + " (" + std::to_string(file_.records.size()) +
         " frames, linktype " + std::to_string(file_.link_type) + ", " +
         std::to_string(rings_.size()) + (rings_.size() == 1 ? " ring)" : " rings)");
}

bool PcapReplaySource::exhausted(std::size_t ring) const {
  if (stopped_.load(std::memory_order_acquire)) return true;
  const Ring& r = rings_[ring];
  if (r.order.empty()) return true;
  return config_.loops != 0 && r.passes >= config_.loops;
}

std::size_t PcapReplaySource::next_batch(std::size_t ring,
                                         std::span<FrameView> out) {
  Ring& r = rings_[ring];
  if (r.order.empty()) return 0;  // nothing hashed here; exhausted() is true
  // Re-entry after the final pass wrapped: stay exhausted instead of
  // starting an extra pass from the reset position.
  if (config_.loops != 0 && r.passes >= config_.loops) return 0;
  // Stop is checked once per batch, not per frame: a batch is bounded,
  // so stop() latency stays under one batch, and stop() also makes
  // exhausted() true, which ends the consumer's drain loop.
  if (stopped_.load(std::memory_order_acquire)) return 0;
  std::size_t filled = 0;
  while (filled < out.size()) {
    if (r.pos >= r.order.size()) {
      r.pos = 0;
      ++r.passes;
      if (config_.loops != 0 && r.passes >= config_.loops) break;
    }
    const net::PcapRecord& rec = file_.records[r.order[r.pos]];
    out[filled].data = rec.frame.data();
    out[filled].len = static_cast<std::uint32_t>(rec.frame.size());
    ++filled;
    ++r.pos;
  }
  return filled;
}

}  // namespace rfipc::capture
