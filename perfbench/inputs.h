// Seeded inputs and reference answers. One seed generates everything the
// program receives: native rules files, the uniform and skewed traces,
// the pcap, and the update script. References are RuleSet::first_match
// on the rules read back with ruleset::load_ruleset (as rfipcd reads
// them), and for frames on the tuple the parser recovers, because
// tuples of protocols other than TCP/UDP lose their ports in the frame
// round trip.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "net/header.h"
#include "net/pcap.h"
#include "ruleset/ruleset.h"

namespace perfbench {

/// "No rule matched" in references and answers.
inline constexpr std::uint64_t kNone = ~std::uint64_t{0};

struct RulesInput {
  std::string path;
  rfipc::ruleset::RuleSet rules;  // the file read back with load_ruleset
};

/// Packed headers with their reference winners.
struct HeaderStream {
  std::vector<rfipc::net::HeaderBits> headers;
  std::vector<std::uint64_t> reference;
};

/// The Zipf-skewed Ethernet capture of capture-skewed and wire-updates.
struct FrameInput {
  std::string pcap_path;
  rfipc::net::PcapFile pcap;
  /// Frames built to fail parsing (truncated or non-IPv4).
  std::uint64_t rejects = 0;
  /// Frames per pass whose reference winner forwards.
  std::uint64_t forwarded_per_pass = 0;
  std::size_t distinct_flows = 0;
  /// Parsed tuples of the accepted frames, in frame order.
  HeaderStream parsed;
};

/// One exact 5-tuple rule no generated packet matches, inserted and
/// erased in pairs at random priorities spread over all bands. Op k is
/// an insert when k is even and the erase of that insert when odd.
struct UpdateScript {
  rfipc::ruleset::Rule rule;
  std::vector<std::uint32_t> index;

  bool is_insert(std::uint64_t k) const { return k % 2 == 0; }
  std::uint32_t index_of(std::uint64_t k) const { return index[(k / 2) % index.size()]; }
};

RulesInput make_rules(const std::string& dir, std::size_t n, std::uint64_t seed);
HeaderStream make_uniform_trace(const rfipc::ruleset::RuleSet& rules, std::size_t n,
                                std::uint64_t seed);
FrameInput make_skewed_frames(const std::string& dir,
                              const rfipc::ruleset::RuleSet& rules,
                              std::size_t frames, std::size_t flows,
                              std::uint64_t seed);
UpdateScript make_update_script(const rfipc::ruleset::RuleSet& rules,
                                const HeaderStream& traffic, std::uint64_t seed);
/// An Ethernet capture carrying `keys`, one frame per header, for the
/// workloads whose entry point takes packed headers. Its references are
/// taken on the parsed tuples like those of make_skewed_frames.
FrameInput frames_from_headers(const rfipc::ruleset::RuleSet& rules,
                               const HeaderStream& keys);
/// Flow-cache slots for `flows` distinct flows: at least twice as many.
std::size_t flow_cache_slots(std::size_t flows);
/// Self-test hook: changes one reference answer so checks must fail.
void corrupt_reference(HeaderStream& s);

/// A window in which the script's inserted rule may be visible: from
/// the insert's send to the ack of its erase.
struct InsertWindow {
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
  std::uint32_t index = 0;
};

/// Checks answers against the reference. An answer that differs must be
/// the reference shifted by the inserted rule (a winner at or below the
/// insert's priority moves down by one) for an insert whose window
/// overlaps the call; the inserted rule itself never wins. Calls with
/// shifted answers are kept (one small record per call) and resolved
/// after the run.
class AnswerChecker {
 public:
  /// `answers[i]` answers `reference[i]`; the call ran in [a_ns, b_ns].
  void check(std::span<const std::uint64_t> answers,
             std::span<const std::uint64_t> reference, std::int64_t a_ns,
             std::int64_t b_ns);
  std::uint64_t checked() const { return checked_; }
  /// Merges another thread's checker into this one.
  void merge(const AnswerChecker& other);
  /// Wrong answers given the update windows (sorted by from_ns, ends
  /// non-decreasing).
  std::uint64_t wrong(const std::vector<InsertWindow>& windows) const;

 private:
  struct ShiftedCall {
    std::int64_t a, b;
    std::uint64_t min_ref;  // smallest reference among shifted answers
    std::uint64_t shifted;
  };
  std::vector<ShiftedCall> shifted_;
  std::uint64_t bad_ = 0;  // answers no update can explain
  std::uint64_t checked_ = 0;
};

/// What an open-loop update sender did.
struct UpdateRun {
  OpenLoopLog log;
  std::vector<InsertWindow> windows;
  std::uint64_t acked = 0;
};

/// Orders windows and makes their ends non-decreasing (a failed erase
/// leaves its window open), as AnswerChecker::wrong expects.
void normalize_windows(std::vector<InsertWindow>& w);

}  // namespace perfbench
