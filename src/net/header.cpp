#include "net/header.h"

namespace rfipc::net {

std::string FiveTuple::to_string() const {
  return src_ip.to_string() + ":" + std::to_string(src_port) + " -> " +
         dst_ip.to_string() + ":" + std::to_string(dst_port) + " proto " +
         std::to_string(protocol);
}

HeaderBits::HeaderBits(const FiveTuple& t) {
  // Every field of the canonical layout is byte-aligned (32|32|16|16|8),
  // so packing is thirteen big-endian byte stores — this runs once per
  // captured frame on the inline data plane, where generic bit-by-bit
  // packing was the hottest instruction stream in the loop.
  bytes_[0] = static_cast<std::uint8_t>(t.src_ip.value >> 24);
  bytes_[1] = static_cast<std::uint8_t>(t.src_ip.value >> 16);
  bytes_[2] = static_cast<std::uint8_t>(t.src_ip.value >> 8);
  bytes_[3] = static_cast<std::uint8_t>(t.src_ip.value);
  bytes_[4] = static_cast<std::uint8_t>(t.dst_ip.value >> 24);
  bytes_[5] = static_cast<std::uint8_t>(t.dst_ip.value >> 16);
  bytes_[6] = static_cast<std::uint8_t>(t.dst_ip.value >> 8);
  bytes_[7] = static_cast<std::uint8_t>(t.dst_ip.value);
  bytes_[8] = static_cast<std::uint8_t>(t.src_port >> 8);
  bytes_[9] = static_cast<std::uint8_t>(t.src_port);
  bytes_[10] = static_cast<std::uint8_t>(t.dst_port >> 8);
  bytes_[11] = static_cast<std::uint8_t>(t.dst_port);
  bytes_[12] = t.protocol;
}

std::uint32_t HeaderBits::field(FieldLayout f) const {
  // A field of width <= 32 spans at most 5 bytes.
  std::uint64_t window = 0;
  for (unsigned i = 0; i < 5; ++i) window = (window << 8) | byte_at((f.offset >> 3) + i);
  return static_cast<std::uint32_t>((window >> (40 - (f.offset & 7) - f.width)) &
                                    ((std::uint64_t{1} << f.width) - 1));
}

FiveTuple HeaderBits::unpack() const {
  // The inverse of the packing constructor: big-endian byte loads.
  const auto be = [this](unsigned i, unsigned n) {
    std::uint32_t v = 0;
    for (unsigned j = 0; j < n; ++j) v = (v << 8) | bytes_[i + j];
    return v;
  };
  FiveTuple t;
  t.src_ip.value = be(0, 4);
  t.dst_ip.value = be(4, 4);
  t.src_port = static_cast<std::uint16_t>(be(8, 2));
  t.dst_port = static_cast<std::uint16_t>(be(10, 2));
  t.protocol = bytes_[12];
  return t;
}

}  // namespace rfipc::net
