#include "engines/stridebv/stride_table.h"

#include <gtest/gtest.h>

#include "ruleset/trace.h"
#include "util/prng.h"

namespace rfipc::engines::stridebv {
namespace {

using ruleset::Rule;
using ruleset::TernaryWord;

TEST(StrideTable, StageCounts) {
  std::vector<TernaryWord> one(1);
  EXPECT_EQ(StrideTable(one, 1).num_stages(), 104u);
  EXPECT_EQ(StrideTable(one, 3).num_stages(), 35u);
  EXPECT_EQ(StrideTable(one, 4).num_stages(), 26u);
  EXPECT_EQ(StrideTable(one, 8).num_stages(), 13u);
}

TEST(StrideTable, RejectsBadStride) {
  std::vector<TernaryWord> one(1);
  EXPECT_THROW(StrideTable(one, 0), std::invalid_argument);
  EXPECT_THROW(StrideTable(one, 9), std::invalid_argument);
}

TEST(StrideTable, MemoryBitsFormula) {
  std::vector<TernaryWord> entries(512);
  // Paper Figure 7: S * 2^k * N.
  EXPECT_EQ(StrideTable(entries, 3).memory_bits(), 35ull * 8 * 512);
  EXPECT_EQ(StrideTable(entries, 4).memory_bits(), 26ull * 16 * 512);
  // k=4, N=2048 -> 832 Kbit (the paper's worst case).
  std::vector<TernaryWord> big(2048);
  EXPECT_EQ(StrideTable(big, 4).memory_bits(), 832ull * 1024);
}

TEST(StrideTable, DontCareEntryMatchesEveryValue) {
  std::vector<TernaryWord> entries(1);  // all don't-care
  const StrideTable t(entries, 4);
  for (unsigned s = 0; s < t.num_stages(); ++s) {
    for (std::uint32_t v = 0; v < 16; ++v) {
      EXPECT_TRUE(t.bv(s, v).test(0)) << "stage " << s << " value " << v;
    }
  }
}

TEST(StrideTable, FullyCaredEntryMatchesOneValuePerStage) {
  TernaryWord w;
  for (unsigned i = 0; i < net::kHeaderBits; ++i) w.set_bit(i, (i % 3) == 0);
  std::vector<TernaryWord> entries{w};
  const StrideTable t(entries, 4);
  for (unsigned s = 0; s + 1 < t.num_stages(); ++s) {  // full stages only
    unsigned matches = 0;
    for (std::uint32_t v = 0; v < 16; ++v) matches += t.bv(s, v).test(0) ? 1 : 0;
    EXPECT_EQ(matches, 1u) << "stage " << s;
  }
}

TEST(StrideTable, LastStagePaddingIsDontCare) {
  // k=3: stage 34 covers bits 102,103 + 1 padding bit. An entry caring
  // about bits 102-103 must match exactly 2 of the 8 values (padding
  // bit free)... but headers always present 0 there, so the '1' padding
  // variants are never addressed; both must still be set in the table.
  TernaryWord w;
  w.set_bit(102, true);
  w.set_bit(103, false);
  std::vector<TernaryWord> entries{w};
  const StrideTable t(entries, 3);
  unsigned matches = 0;
  for (std::uint32_t v = 0; v < 8; ++v) matches += t.bv(34, v).test(0) ? 1 : 0;
  EXPECT_EQ(matches, 2u);  // 10|0 and 10|1
  EXPECT_TRUE(t.bv(34, 0b100).test(0));
  EXPECT_TRUE(t.bv(34, 0b101).test(0));
}

TEST(StrideTable, AndAcrossStagesEqualsTernaryMatch) {
  util::Xoshiro256 rng(55);
  // Random ternary entries, random headers: the AND of per-stage
  // vectors must equal direct ternary matching.
  std::vector<TernaryWord> entries;
  for (int e = 0; e < 40; ++e) {
    TernaryWord w;
    for (unsigned i = 0; i < net::kHeaderBits; ++i) {
      if (rng.chance(1, 2)) w.set_bit(i, rng.chance(1, 2));
    }
    entries.push_back(w);
  }
  for (const unsigned k : {1u, 3u, 4u, 7u}) {
    const StrideTable t(entries, k);
    for (int probe = 0; probe < 50; ++probe) {
      net::FiveTuple tu;
      tu.src_ip.value = static_cast<std::uint32_t>(rng());
      tu.dst_ip.value = static_cast<std::uint32_t>(rng());
      tu.src_port = static_cast<std::uint16_t>(rng.below(0x10000));
      tu.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
      tu.protocol = static_cast<std::uint8_t>(rng.below(256));
      const net::HeaderBits h(tu);
      util::BitVector bv(entries.size(), true);
      for (unsigned s = 0; s < t.num_stages(); ++s) {
        bv.and_with(t.bv(s, t.stride_value(h, s)));
      }
      for (std::size_t e = 0; e < entries.size(); ++e) {
        EXPECT_EQ(bv.test(e), entries[e].matches(h)) << "k=" << k << " entry " << e;
      }
    }
  }
}

TEST(StrideTable, RowsForMatchesStrideValue) {
  util::Xoshiro256 rng(66);
  std::vector<TernaryWord> entries;
  for (int e = 0; e < 70; ++e) {  // two words per row
    TernaryWord w;
    for (unsigned i = 0; i < net::kHeaderBits; ++i) {
      if (rng.chance(1, 2)) w.set_bit(i, rng.chance(1, 2));
    }
    entries.push_back(w);
  }
  for (unsigned k = 1; k <= 8; ++k) {
    const StrideTable t(entries, k);
    std::vector<const std::uint64_t*> rows(t.num_stages());
    for (int probe = 0; probe < 50; ++probe) {
      net::FiveTuple tu;
      tu.src_ip.value = static_cast<std::uint32_t>(rng());
      tu.dst_ip.value = static_cast<std::uint32_t>(rng());
      tu.src_port = static_cast<std::uint16_t>(rng.below(0x10000));
      tu.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
      tu.protocol = 0xFF;  // ones up to bit 104: the padding must still read 0
      const net::HeaderBits h(tu);
      t.rows_for(h, rows.data());
      for (unsigned s = 0; s < t.num_stages(); ++s) {
        ASSERT_EQ(rows[s], t.bv(s, t.stride_value(h, s)).words().data())
            << "k=" << k << " stage=" << s;
      }
    }
  }
}

TEST(StrideTable, SetEntryUpdatesColumn) {
  std::vector<TernaryWord> entries(3);  // all don't-care
  StrideTable t(entries, 4);
  TernaryWord w;
  w.set_bit(0, true);
  t.set_entry(1, w);
  // Stage 0, value 0 (MSB=0): entry 1 no longer matches; 0 and 2 do.
  EXPECT_TRUE(t.bv(0, 0).test(0));
  EXPECT_FALSE(t.bv(0, 0).test(1));
  EXPECT_TRUE(t.bv(0, 0).test(2));
  // Value 8 (MSB=1): everyone matches.
  EXPECT_TRUE(t.bv(0, 8).test(1));
}

TEST(StrideTable, ClearEntryRemovesEverywhere) {
  std::vector<TernaryWord> entries(2);
  StrideTable t(entries, 3);
  t.clear_entry(0);
  for (unsigned s = 0; s < t.num_stages(); ++s) {
    for (std::uint32_t v = 0; v < 8; ++v) {
      EXPECT_FALSE(t.bv(s, v).test(0));
      EXPECT_TRUE(t.bv(s, v).test(1));
    }
  }
}

TEST(StrideTable, UpdateBoundsChecked) {
  std::vector<TernaryWord> entries(2);
  StrideTable t(entries, 3);
  EXPECT_THROW(t.set_entry(2, TernaryWord{}), std::out_of_range);
  EXPECT_THROW(t.clear_entry(2), std::out_of_range);
}

}  // namespace
}  // namespace rfipc::engines::stridebv
