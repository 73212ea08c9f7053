// The abstract packet classification engine.
//
// Every engine in the library — the golden linear search, StrideBV, the
// FPGA TCAM, and the feature-reliant baseline — implements this
// interface, so tests, benches, and examples treat them uniformly. The
// primitive operation takes a packed HeaderBits; a FiveTuple convenience
// overload packs on the fly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/header.h"
#include "engines/common/match_result.h"
#include "ruleset/ruleset.h"

namespace rfipc::engines {

/// Per-call knobs for classify_batch. Callers that only need the best
/// match opt out of the multi-match vector and the engines skip filling
/// it (results carry an empty `multi`), which both saves the fold work
/// and lets best-match-only engines short-circuit their scan.
struct BatchOptions {
  bool want_multi = true;
};

class ClassifierEngine {
 public:
  virtual ~ClassifierEngine() = default;

  /// Engine display name, e.g. "StrideBV(k=4)".
  virtual std::string name() const = 0;

  /// Number of rules loaded (priorities 0..rule_count()-1).
  virtual std::size_t rule_count() const = 0;

  /// Classifies a packed header.
  virtual MatchResult classify(const net::HeaderBits& header) const = 0;

  /// Classifies headers[i] into results[i] for every i; the spans must
  /// have equal length. Default: a loop over classify(). The hot
  /// engines (linear, StrideBV, TCAM) override it with tight
  /// non-virtual inner loops that reuse scratch vectors across packets
  /// — the software batch path the runtime layer builds on. Engines
  /// reset each result via MatchResult::reset_for, so passing the same
  /// results array across batches classifies without allocating.
  virtual void classify_batch(std::span<const net::HeaderBits> headers,
                              std::span<MatchResult> results,
                              const BatchOptions& opts) const;

  /// Convenience overload with default options (multi-match wanted).
  void classify_batch(std::span<const net::HeaderBits> headers,
                      std::span<MatchResult> results) const {
    classify_batch(headers, results, BatchOptions{});
  }

  /// True when classify() fills MatchResult::multi.
  virtual bool supports_multi_match() const { return false; }

  /// Dynamic update support (paper Section IV: FPGA engines can be
  /// updated without re-synthesis). Default: unsupported.
  virtual bool supports_update() const { return false; }
  /// Inserts `rule` at priority `index` (shifting lower priorities
  /// down). Returns false when unsupported.
  virtual bool insert_rule(std::size_t index, const ruleset::Rule& rule);
  /// Removes the rule at priority `index`. Returns false when
  /// unsupported.
  virtual bool erase_rule(std::size_t index);

  /// Approximate heap footprint of the engine's rules plus derived
  /// match state, in bytes. Estimates (capacity-based, hash-node
  /// overheads included) rather than allocator-exact numbers; engines
  /// that have not sized themselves return 0. Surfaces as bytes/rule in
  /// StatsSnapshot and the STATS wire reply.
  virtual std::uint64_t memory_bytes() const { return 0; }

  /// Deep copy of the engine's current state (rules + derived tables),
  /// or nullptr when the engine cannot be copied. The concurrent
  /// runtime clones a shard, patches the clone off the lookup path, and
  /// publishes it via an RCU snapshot swap; engines without clone
  /// support fall back to a factory rebuild from the band's rules.
  virtual std::unique_ptr<ClassifierEngine> clone() const { return nullptr; }

  /// Convenience: pack and classify a decoded 5-tuple.
  MatchResult classify_tuple(const net::FiveTuple& t) const {
    return classify(net::HeaderBits(t));
  }
};

using EnginePtr = std::unique_ptr<ClassifierEngine>;

}  // namespace rfipc::engines
