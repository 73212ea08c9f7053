#include "net/header.h"

#include <gtest/gtest.h>

#include "util/prng.h"

namespace rfipc::net {
namespace {

FiveTuple sample() {
  FiveTuple t;
  t.src_ip = *Ipv4Addr::parse("175.77.88.155");
  t.dst_ip = *Ipv4Addr::parse("192.168.0.7");
  t.src_port = 40000;
  t.dst_port = 23;
  t.protocol = 17;
  return t;
}

TEST(Header, FieldLayoutCovers104Bits) {
  unsigned total = 0;
  for (const auto f : kFields) total += f.width;
  EXPECT_EQ(total, kHeaderBits);
  // Fields are contiguous and ordered.
  unsigned offset = 0;
  for (const auto f : kFields) {
    EXPECT_EQ(f.offset, offset);
    offset += f.width;
  }
}

TEST(Header, PackUnpackRoundTrip) {
  const auto t = sample();
  const HeaderBits h(t);
  EXPECT_EQ(h.unpack(), t);
}

TEST(Header, PackUnpackRandomized) {
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    FiveTuple t;
    t.src_ip.value = static_cast<std::uint32_t>(rng());
    t.dst_ip.value = static_cast<std::uint32_t>(rng());
    t.src_port = static_cast<std::uint16_t>(rng.below(0x10000));
    t.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
    t.protocol = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(HeaderBits(t).unpack(), t);
  }
}

TEST(Header, BitZeroIsSipMsb) {
  FiveTuple t;
  t.src_ip.value = 0x80000000u;
  const HeaderBits h(t);
  EXPECT_TRUE(h.bit(0));
  for (unsigned i = 1; i < kHeaderBits; ++i) EXPECT_FALSE(h.bit(i));
}

TEST(Header, LastBitIsProtocolLsb) {
  FiveTuple t;
  t.protocol = 1;
  const HeaderBits h(t);
  EXPECT_TRUE(h.bit(103));
  EXPECT_FALSE(h.bit(102));
}

TEST(Header, FieldExtraction) {
  const auto t = sample();
  const HeaderBits h(t);
  EXPECT_EQ(h.field(kSipField), t.src_ip.value);
  EXPECT_EQ(h.field(kDipField), t.dst_ip.value);
  EXPECT_EQ(h.field(kSpField), t.src_port);
  EXPECT_EQ(h.field(kDpField), t.dst_port);
  EXPECT_EQ(h.field(kPrtField), t.protocol);
  // Any window of up to 32 bits, at any bit phase.
  for (unsigned width = 1; width <= 32; ++width) {
    for (unsigned offset = 0; offset + width <= kHeaderBits; ++offset) {
      std::uint32_t want = 0;
      for (unsigned b = 0; b < width; ++b) {
        want = (want << 1) | (h.bit(offset + b) ? 1u : 0u);
      }
      ASSERT_EQ(h.field({offset, width}), want)
          << "offset=" << offset << " width=" << width;
    }
  }
}

TEST(Header, StrideMsbFirst) {
  FiveTuple t;
  t.src_ip.value = 0xB0000000u;  // top 4 bits = 1011
  const HeaderBits h(t);
  EXPECT_EQ(h.stride(0, 4), 0b1011u);
  EXPECT_EQ(h.stride(0, 2), 0b10u);
  EXPECT_EQ(h.stride(2, 2), 0b11u);
}

TEST(Header, StrideConcatenationReconstructsHeader) {
  util::Xoshiro256 rng(9);
  FiveTuple t;
  t.src_ip.value = static_cast<std::uint32_t>(rng());
  t.dst_ip.value = static_cast<std::uint32_t>(rng());
  t.src_port = 0xBEEF;
  t.dst_port = 0x1234;
  t.protocol = 0x5A;
  FiveTuple ones;  // every bit set, so stray padding bits would show
  ones.src_ip.value = 0xFFFFFFFFu;
  ones.dst_ip.value = 0xFFFFFFFFu;
  ones.src_port = 0xFFFF;
  ones.dst_port = 0xFFFF;
  ones.protocol = 0xFF;
  for (const HeaderBits h : {HeaderBits(t), HeaderBits(ones)}) {
    for (unsigned k = 1; k <= 16; ++k) {
      // Every offset, not only stage boundaries: windows at any byte
      // phase, including those that straddle bit 104.
      for (unsigned offset = 0; offset < kHeaderBits; ++offset) {
        const auto v = h.stride(offset, k);
        ASSERT_LT(v, 1u << k) << "k=" << k << " offset=" << offset;
        for (unsigned b = 0; b < k; ++b) {
          const unsigned pos = offset + b;
          const bool expect = pos < kHeaderBits && h.bit(pos);
          EXPECT_EQ((v >> (k - 1 - b)) & 1u, expect ? 1u : 0u)
              << "k=" << k << " offset=" << offset << " bit=" << b;
        }
      }
    }
  }
}

TEST(Header, StridePastEndReadsZero) {
  FiveTuple t;
  t.protocol = 0xFF;
  const HeaderBits h(t);
  // k=3: last stage covers bits 102..104; bit 104 is padding -> 0.
  EXPECT_EQ(h.stride(102, 3), 0b110u);
  EXPECT_EQ(h.stride(104, 4), 0u);
}

TEST(Header, EqualityAndBytes) {
  const HeaderBits a(sample());
  const HeaderBits b(sample());
  EXPECT_EQ(a, b);
  FiveTuple other = sample();
  other.dst_port = 24;
  EXPECT_NE(a, HeaderBits(other));
  EXPECT_EQ(a.bytes().size(), 13u);
}

TEST(Header, TupleToString) {
  EXPECT_EQ(sample().to_string(), "175.77.88.155:40000 -> 192.168.0.7:23 proto 17");
}

}  // namespace
}  // namespace rfipc::net
