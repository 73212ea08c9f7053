#include "capture/afpacket_source.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "net/pcap.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <linux/if_ether.h>
#include <linux/if_packet.h>
#include <net/if.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace rfipc::capture {

std::uint32_t AfPacketSource::link_type() const { return net::kLinktypeEthernet; }

#ifdef __linux__

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(),
                          std::string("af_packet: ") + what);
}

}  // namespace

AfPacketSource::AfPacketSource(AfPacketConfig config) : config_(std::move(config)) {
  if (config_.rings == 0) config_.rings = 1;
  const unsigned ifindex = ::if_nametoindex(config_.iface.c_str());
  if (ifindex == 0) throw_errno("if_nametoindex");
  auto fanout = static_cast<std::uint16_t>(::getpid() & 0xffff);
  if (fanout == 0) fanout = 1;
  try {
    for (std::size_t i = 0; i < config_.rings; ++i) {
      rings_.push_back(std::make_unique<Ring>());
      open_ring(*rings_.back(), static_cast<int>(ifindex), fanout);
    }
  } catch (...) {
    teardown();
    throw;
  }
}

void AfPacketSource::open_ring(Ring& ring, int ifindex, std::uint16_t fanout) {
  ring.fd = ::socket(AF_PACKET, SOCK_RAW, htons(ETH_P_ALL));
  if (ring.fd < 0) throw_errno("socket(AF_PACKET, SOCK_RAW)");

  const int version = TPACKET_V3;
  if (::setsockopt(ring.fd, SOL_PACKET, PACKET_VERSION, &version,
                   sizeof(version)) != 0) {
    throw_errno("setsockopt(PACKET_VERSION, TPACKET_V3)");
  }

  tpacket_req3 req{};
  req.tp_block_size = static_cast<unsigned>(kBlockSize);
  req.tp_block_nr = static_cast<unsigned>(kBlockCount);
  req.tp_frame_size = 2048;  // accounting only in V3; frames pack tightly
  req.tp_frame_nr = static_cast<unsigned>(kBlockSize * kBlockCount / 2048);
  req.tp_retire_blk_tov = kBlockTimeoutMs;
  if (::setsockopt(ring.fd, SOL_PACKET, PACKET_RX_RING, &req, sizeof(req)) != 0) {
    throw_errno("setsockopt(PACKET_RX_RING)");
  }

  ring.map_len = kBlockSize * kBlockCount;
  void* map = ::mmap(nullptr, ring.map_len, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_LOCKED, ring.fd, 0);
  if (map == MAP_FAILED) {
    // MAP_LOCKED can exceed RLIMIT_MEMLOCK in containers; retry unlocked.
    map = ::mmap(nullptr, ring.map_len, PROT_READ | PROT_WRITE, MAP_SHARED,
                 ring.fd, 0);
  }
  if (map == MAP_FAILED) throw_errno("mmap(PACKET_RX_RING)");
  ring.map = static_cast<std::uint8_t*>(map);

  sockaddr_ll addr{};
  addr.sll_family = AF_PACKET;
  addr.sll_protocol = htons(ETH_P_ALL);
  addr.sll_ifindex = ifindex;
  if (::bind(ring.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(sockaddr_ll)");
  }

  const int fanout_arg = fanout | (PACKET_FANOUT_HASH << 16);
  if (::setsockopt(ring.fd, SOL_PACKET, PACKET_FANOUT, &fanout_arg,
                   sizeof(fanout_arg)) != 0) {
    throw_errno("setsockopt(PACKET_FANOUT_HASH)");
  }
}

AfPacketSource::~AfPacketSource() {
  stop();
  teardown();
}

void AfPacketSource::teardown() {
  for (auto& ring : rings_) {
    if (ring->map != nullptr) ::munmap(ring->map, ring->map_len);
    if (ring->fd >= 0) ::close(ring->fd);
    ring->map = nullptr;
    ring->fd = -1;
  }
}

void AfPacketSource::harvest_drops(const Ring& ring) const {
  tpacket_stats_v3 stats{};
  socklen_t len = sizeof(stats);
  if (::getsockopt(ring.fd, SOL_PACKET, PACKET_STATISTICS, &stats, &len) == 0) {
    // The kernel zeroes its counters on read; accumulate so overruns()
    // stays monotonic.
    ring.drops.fetch_add(stats.tp_drops, std::memory_order_relaxed);
  }
}

std::uint64_t AfPacketSource::overruns(std::size_t ring) const {
  const Ring& r = *rings_[ring];
  if (r.fd >= 0) harvest_drops(r);
  return r.drops.load(std::memory_order_relaxed);
}

bool AfPacketSource::exhausted(std::size_t) const {
  return stopped_.load(std::memory_order_acquire);
}

std::size_t AfPacketSource::next_batch(std::size_t ring_index,
                                       std::span<FrameView> out) {
  Ring& ring = *rings_[ring_index];

  // The previous call's views pointed into the current block; now that
  // the consumer is back, a fully-walked block goes home to the kernel.
  auto block_desc = [&](std::size_t b) {
    return reinterpret_cast<tpacket_block_desc*>(ring.map + b * kBlockSize);
  };
  if (ring.block_open && ring.walk_done) {
    auto* desc = block_desc(ring.block);
    __atomic_store_n(&desc->hdr.bh1.block_status, TP_STATUS_KERNEL,
                     __ATOMIC_RELEASE);
    ring.block = (ring.block + 1) % kBlockCount;
    ring.block_open = false;
    ring.walk_done = false;
  }

  // Wait for the current block to become user-owned.
  while (!ring.block_open) {
    if (stopped_.load(std::memory_order_acquire)) return 0;
    auto* desc = block_desc(ring.block);
    const std::uint32_t status =
        __atomic_load_n(&desc->hdr.bh1.block_status, __ATOMIC_ACQUIRE);
    if (status & TP_STATUS_USER) {
      ring.block_open = true;
      ring.walk_remaining = desc->hdr.bh1.num_pkts;
      ring.walk_offset = desc->hdr.bh1.offset_to_first_pkt;
      if (ring.walk_remaining == 0) {
        // Timeout-retired empty block: hand it straight back and wait on
        // the next one.
        __atomic_store_n(&desc->hdr.bh1.block_status, TP_STATUS_KERNEL,
                         __ATOMIC_RELEASE);
        ring.block = (ring.block + 1) % kBlockCount;
        ring.block_open = false;
      }
      continue;
    }
    pollfd pfd{ring.fd, POLLIN | POLLERR, 0};
    ::poll(&pfd, 1, kPollMs);
  }

  // Walk the user-owned block, resuming where the last call stopped.
  const std::uint8_t* base = ring.map + ring.block * kBlockSize;
  std::size_t filled = 0;
  while (filled < out.size() && ring.walk_remaining > 0) {
    const auto* hdr =
        reinterpret_cast<const tpacket3_hdr*>(base + ring.walk_offset);
    out[filled].data = base + ring.walk_offset + hdr->tp_mac;
    out[filled].len = hdr->tp_snaplen;
    ++filled;
    --ring.walk_remaining;
    if (hdr->tp_next_offset != 0) {
      ring.walk_offset += hdr->tp_next_offset;
    } else {
      ring.walk_remaining = 0;  // defensive: last frame in the block
    }
  }
  if (ring.walk_remaining == 0) ring.walk_done = true;
  return filled;
}

std::string AfPacketSource::describe() const {
  return "af_packet " + config_.iface + " x" + std::to_string(rings_.size()) +
         " ring" + (rings_.size() == 1 ? "" : "s") + " (TPACKET_V3, " +
         std::to_string(kBlockCount) + " x " + std::to_string(kBlockSize / 1024) +
         " KiB blocks, fanout hash)";
}

#else  // !__linux__

AfPacketSource::AfPacketSource(AfPacketConfig config) : config_(std::move(config)) {
  throw std::runtime_error("af_packet: AF_PACKET capture requires Linux");
}

AfPacketSource::~AfPacketSource() = default;
void AfPacketSource::teardown() {}
void AfPacketSource::open_ring(Ring&, int, std::uint16_t) {}
void AfPacketSource::harvest_drops(const Ring&) const {}
std::uint64_t AfPacketSource::overruns(std::size_t) const { return 0; }
bool AfPacketSource::exhausted(std::size_t) const { return true; }
std::size_t AfPacketSource::next_batch(std::size_t, std::span<FrameView>) {
  return 0;
}
std::string AfPacketSource::describe() const { return "af_packet (unsupported)"; }

#endif  // __linux__

}  // namespace rfipc::capture
