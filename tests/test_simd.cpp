// Differential tests for the runtime-dispatched SIMD kernels.
//
// The scalar table is the reference implementation; whatever table
// dispatch selects (AVX2 on capable x86-64, scalar otherwise) must be
// bit-for-bit identical on every input. Word counts are chosen around
// the vector-width boundaries (bit sizes 1, 63, 64, 65, 127, 2048) so
// partial tails, exact multiples, and long runs are all covered. The
// second half drives every factory engine end-to-end with force_scalar
// toggled, proving the dispatched data plane classifies identically to
// the portable one.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engines/common/factory.h"
#include "net/header.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/bitops.h"
#include "util/prng.h"

namespace rfipc::util::simd {
namespace {

// Bit sizes straddling the 64-bit word and 256-bit vector boundaries.
constexpr std::size_t kBitSizes[] = {1, 63, 64, 65, 127, 2048};

std::vector<std::uint64_t> random_words(std::size_t bits, Xoshiro256& rng,
                                        double zero_fraction = 0.0) {
  const std::size_t words = ceil_div(bits, kWordBits);
  std::vector<std::uint64_t> out(words);
  for (auto& w : out) w = rng.below(100) < zero_fraction * 100 ? 0 : rng();
  // Keep the BitVector invariant the kernels rely on: tail bits clear.
  if (bits % kWordBits != 0) out.back() &= low_mask(bits % kWordBits);
  return out;
}

struct KernelPair {
  const Kernels& ref = scalar_kernels();
  const Kernels& alt;
};

/// The table under test: AVX2 when the CPU has it, otherwise scalar
/// (the comparisons then hold trivially, keeping the test portable).
const Kernels& alt_kernels() {
  return avx2_supported() ? avx2_kernels() : scalar_kernels();
}

TEST(SimdKernels, CountAndFirstSetAgree) {
  Xoshiro256 rng(11);
  const Kernels& ref = scalar_kernels();
  const Kernels& alt = alt_kernels();
  for (const std::size_t bits : kBitSizes) {
    for (int round = 0; round < 32; ++round) {
      const auto words = random_words(bits, rng, round % 4 == 0 ? 0.9 : 0.2);
      ASSERT_EQ(ref.count(words.data(), words.size()),
                alt.count(words.data(), words.size()))
          << "bits=" << bits;
      ASSERT_EQ(ref.first_set(words.data(), words.size()),
                alt.first_set(words.data(), words.size()))
          << "bits=" << bits;
    }
    const std::vector<std::uint64_t> zeros(ceil_div(bits, kWordBits), 0);
    EXPECT_EQ(alt.count(zeros.data(), zeros.size()), 0u);
    EXPECT_EQ(alt.first_set(zeros.data(), zeros.size()), npos);
  }
}

TEST(SimdKernels, AndIntoAgrees) {
  Xoshiro256 rng(22);
  const Kernels& ref = scalar_kernels();
  const Kernels& alt = alt_kernels();
  for (const std::size_t bits : kBitSizes) {
    for (int round = 0; round < 32; ++round) {
      const auto a = random_words(bits, rng, 0.3);
      const auto b = random_words(bits, rng, 0.3);
      auto ref_dst = a;
      auto alt_dst = a;
      ref.and_into(ref_dst.data(), b.data(), b.size());
      alt.and_into(alt_dst.data(), b.data(), b.size());
      ASSERT_EQ(ref_dst, alt_dst) << "bits=" << bits;
    }
  }
}

TEST(SimdKernels, AndRowsIntoAgrees) {
  Xoshiro256 rng(33);
  const Kernels& ref = scalar_kernels();
  const Kernels& alt = alt_kernels();
  for (const std::size_t bits : kBitSizes) {
    const std::size_t words = ceil_div(bits, kWordBits);
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{7}, std::size_t{26}}) {
      for (int round = 0; round < 16; ++round) {
        // Sparser rows on later rounds so the all-zero early exit fires.
        std::vector<std::vector<std::uint64_t>> rows_storage;
        std::vector<const std::uint64_t*> rows;
        for (std::size_t i = 0; i < k; ++i) {
          rows_storage.push_back(random_words(bits, rng, round % 3 == 2 ? 0.8 : 0.1));
          rows.push_back(rows_storage.back().data());
        }
        // Catch-all column: one bit set in every row, so its block
        // survives all k rows while the others die early (random rows
        // alone AND to zero with near certainty at k = 26).
        const bool catch_all = round % 4 == 1;
        if (catch_all) {
          const std::size_t bit = rng.below(bits);
          for (auto& row : rows_storage) {
            row[bit / kWordBits] |= std::uint64_t{1} << (bit % kWordBits);
          }
        }
        std::vector<std::uint64_t> ref_dst(words, ~std::uint64_t{0});
        std::vector<std::uint64_t> alt_dst(words, ~std::uint64_t{0});
        const bool ref_any = ref.and_rows_into(ref_dst.data(), rows.data(), k, words);
        const bool alt_any = alt.and_rows_into(alt_dst.data(), rows.data(), k, words);
        ASSERT_EQ(ref_dst, alt_dst) << "bits=" << bits << " k=" << k;
        ASSERT_EQ(ref_any, alt_any) << "bits=" << bits << " k=" << k;
        if (catch_all) {
          ASSERT_TRUE(ref_any) << "bits=" << bits << " k=" << k;
        }
        if (!ref_any) {
          // The contract promises a zero-filled dst for an empty result.
          for (const auto w : ref_dst) ASSERT_EQ(w, 0u);
          for (const auto w : alt_dst) ASSERT_EQ(w, 0u);
        }
      }
    }
  }
}

TEST(SimdKernels, AndRowsIntoAllowsDstAliasing) {
  Xoshiro256 rng(44);
  const Kernels& alt = alt_kernels();
  const std::size_t bits = 2048;
  const std::size_t words = ceil_div(bits, kWordBits);
  auto a = random_words(bits, rng, 0.2);
  const auto b = random_words(bits, rng, 0.2);
  auto want = a;
  for (std::size_t w = 0; w < words; ++w) want[w] &= b[w];
  const std::uint64_t* rows[] = {a.data(), b.data()};
  alt.and_rows_into(a.data(), rows, 2, words);  // rows[0] == dst
  EXPECT_EQ(a, want);
}

TEST(SimdKernels, ForceScalarPinsDispatch) {
  force_scalar(true);
  EXPECT_STREQ(active_name(), "scalar");
  force_scalar(false);
  if (avx2_supported()) {
    EXPECT_STREQ(active_name(), "avx2");
  } else {
    EXPECT_STREQ(active_name(), "scalar");
  }
}

/// Classifies `rules` x `trace` under both dispatch tables and demands
/// identical results (best and multi) from classify and classify_batch.
void run_engine_differential(const std::string& spec, std::size_t rule_count,
                             std::uint64_t seed, std::size_t trace_size) {
  const auto rules = ruleset::generate_firewall(rule_count, seed);
  const auto engine = engines::make_engine(spec, rules);
  ruleset::TraceConfig tcfg;
  tcfg.size = trace_size;
  tcfg.seed = seed + 1;
  std::vector<net::HeaderBits> headers;
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) headers.emplace_back(t);

  force_scalar(true);
  std::vector<engines::MatchResult> scalar_batch(headers.size());
  engine->classify_batch(headers, scalar_batch);
  std::vector<engines::MatchResult> scalar_single;
  for (const auto& h : headers) scalar_single.push_back(engine->classify(h));
  force_scalar(false);
  std::vector<engines::MatchResult> simd_batch(headers.size());
  engine->classify_batch(headers, simd_batch);

  for (std::size_t i = 0; i < headers.size(); ++i) {
    ASSERT_EQ(simd_batch[i].best, scalar_batch[i].best) << spec << " pkt " << i;
    ASSERT_EQ(simd_batch[i].multi, scalar_batch[i].multi) << spec << " pkt " << i;
    ASSERT_EQ(simd_batch[i].best, scalar_single[i].best) << spec << " pkt " << i;
    ASSERT_EQ(simd_batch[i].multi, scalar_single[i].multi) << spec << " pkt " << i;
  }
}

TEST(SimdEngineDifferential, AllFactoryEngines) {
  for (const auto& spec : engines::known_engine_specs()) {
    SCOPED_TRACE(spec);
    run_engine_differential(spec, 96, 7001, 64);
  }
  force_scalar(false);
}

TEST(SimdEngineDifferential, StrideBVWideEntryVector) {
  // Enough rules (with range expansion) that the per-stage rows span
  // many words — the regime the AVX2 path is built for.
  run_engine_differential("stridebv:4", 512, 9001, 256);
  force_scalar(false);
}

}  // namespace
}  // namespace rfipc::util::simd
