// DurableLog: the durability subsystem's front door. One instance owns
// a directory holding at most one checkpoint image plus a run of
// journal segments, and provides:
//
//   - crash recovery at open(): load the newest valid checkpoint,
//     replay the journal tail in sequence order, tolerate torn /
//     truncated / bit-flipped tails (salvage the valid prefix, report
//     what was dropped). Only checkpoint corruption refuses startup —
//     force_empty is the operator escape hatch that archives the
//     corrupt state (renamed *.corrupt) and starts fresh.
//   - write-ahead appends: append_ops() assigns monotonic sequence
//     numbers, writes + fsyncs per the configured policy, and applies
//     each op to an in-memory mirror RuleSet. The caller (the runtime's
//     durability hook) invokes it after snapshot publication but BEFORE
//     update futures resolve, which is what makes an OK wire reply mean
//     "published AND durable".
//   - checkpoint + compaction: when the active segment crosses the
//     record/byte thresholds the log rotates to a fresh segment,
//     snapshots the mirror, and hands it to a background thread that
//     writes the checkpoint atomically and deletes the segments it
//     fully covers. A crash at ANY point leaves a recoverable state:
//     the old checkpoint + uncompacted segments are never touched until
//     the new image is durable.
//   - idempotency: records carry a client-chosen 64-bit token; a
//     bounded token -> seq map (rebuilt from the replayed tail at
//     recovery) lets the server answer a retried update with the
//     original ack instead of applying it twice. The window is bounded
//     by token_history and by compaction (checkpoints do not carry
//     tokens) — ample for retry storms, not a forever-log.
//
// Thread safety: all public methods are safe to call concurrently; one
// mutex serializes appends (single applier thread in practice), token
// lookups (server reactor), and checkpoint capture.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "ruleset/ruleset.h"

namespace rfipc::persist {

/// Rotate + checkpoint once the active segment holds this many bytes
/// (DurableLogConfig::checkpoint_every_records may trigger it sooner).
inline constexpr std::uint64_t kCheckpointEveryBytes = 8u << 20;

struct DurableLogConfig {
  std::string dir;  // created if absent
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Rotate + checkpoint once the active segment holds this many
  /// records (0 = never by count), or kCheckpointEveryBytes bytes.
  std::uint64_t checkpoint_every_records = 8192;
  /// Archive corrupt state and start empty instead of refusing.
  bool force_empty = false;
  /// Idempotency-token window (distinct tokens remembered).
  std::size_t token_history = 65536;
};

/// What recovery found, for logs and tests.
struct RecoveryReport {
  bool checkpoint_loaded = false;
  bool forced_empty = false;  // corrupt state archived under force_empty
  bool torn_tail = false;     // journal replay stopped early
  std::uint64_t checkpoint_seq = 0;
  std::uint64_t checkpoint_rules = 0;
  std::uint64_t replayed = 0;       // records applied on top of the base
  std::uint64_t skipped = 0;        // records the checkpoint already covered
  std::uint64_t dropped_bytes = 0;  // unsalvageable journal tail bytes
  std::uint64_t last_seq = 0;
  std::string note;  // human-readable detail (first stop reason, ...)

  std::string to_string() const;
};

/// One logical update for the journal. `token` is the client's
/// idempotency key (0 = none).
struct RuleOp {
  RecordKind kind = RecordKind::kInsert;
  std::uint64_t index = 0;
  std::uint64_t token = 0;
  ruleset::Rule rule;  // kInsert only

  static RuleOp insert(std::uint64_t index, ruleset::Rule rule,
                       std::uint64_t token = 0) {
    return RuleOp{RecordKind::kInsert, index, token, std::move(rule)};
  }
  static RuleOp erase(std::uint64_t index, std::uint64_t token = 0) {
    return RuleOp{RecordKind::kErase, index, token, {}};
  }
};

struct PersistStats {
  std::uint64_t last_seq = 0;
  std::uint64_t last_checkpoint_seq = 0;
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t segments_removed = 0;
  std::uint64_t dedupe_hits = 0;  // maintained by record_dedupe_hit()
};

class DurableLog {
 public:
  /// Opens `cfg.dir`, running recovery. Returns nullptr + err on I/O
  /// failure or on checkpoint corruption without force_empty.
  static std::unique_ptr<DurableLog> open(DurableLogConfig cfg, std::string& err);

  /// Final sync, then joins the checkpoint thread.
  ~DurableLog();

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  const RecoveryReport& recovery() const { return recovery_; }

  /// Copy of the recovered/maintained ruleset mirror. Used once at
  /// startup to seed the classifier; a copy because the mirror keeps
  /// mutating under appends.
  ruleset::RuleSet rules_snapshot() const;

  std::uint64_t last_seq() const;

  /// Seeds an EMPTY log (no checkpoint, no records) with a base
  /// ruleset, synchronously checkpointed at seq 0 so a restart
  /// reconstructs it without the original --rules file.
  bool seed(const ruleset::RuleSet& rules, std::string& err);

  /// Write-ahead append of `ops` in order: assigns each a sequence
  /// number, journals it, fsyncs per policy, applies it to the mirror,
  /// and remembers its token. Returns false once on I/O failure and
  /// latches the log failed (subsequent appends fail fast; the service
  /// degrades to memory-only and says so). May trigger rotation +
  /// background checkpoint.
  bool append_ops(std::span<const RuleOp> ops, std::string& err);

  /// The journal seq a token's op landed at, if remembered — the
  /// server's duplicate-detection lookup for retried updates.
  std::optional<std::uint64_t> seq_for_token(std::uint64_t token) const;
  void record_dedupe_hit();

  /// Synchronous rotate + checkpoint + compact (tests, operator tools).
  bool checkpoint_now(std::string& err);
  /// Blocks until no checkpoint is in flight.
  void wait_checkpoint_idle();

  PersistStats stats() const;

  /// Journal segment files in `dir`, ascending start_seq (diagnostics).
  static std::vector<std::string> list_segments(const std::string& dir);

 private:
  DurableLog() = default;

  bool recover(std::string& err);
  bool archive_all(std::string& err);  // rename state aside (*.corrupt)
  bool open_fresh_segment(std::string& err);
  /// Applies one replayed/appended op to the mirror; false = the op is
  /// inconsistent with the mirror (recovery treats that as corruption).
  bool mirror_apply(const RuleOp& op);
  void remember_token(std::uint64_t token, std::uint64_t seq);
  /// Rotates and queues a checkpoint of the current mirror (mu_ held).
  bool rotate_and_request_checkpoint(std::string& err);
  void checkpoint_thread();
  /// Writes `snap` at `seq`, then deletes fully-covered segments.
  bool do_checkpoint(const ruleset::RuleSet& snap, std::uint64_t seq,
                     std::string& err);
  std::string checkpoint_path() const;
  std::string segment_path(std::uint64_t start_seq) const;

  DurableLogConfig cfg_;
  RecoveryReport recovery_;

  mutable std::mutex mu_;
  JournalWriter writer_;
  ruleset::RuleSet mirror_;
  std::uint64_t seq_ = 0;  // last assigned
  bool failed_ = false;
  std::string fail_reason_;
  std::unordered_map<std::uint64_t, std::uint64_t> token_seq_;
  std::deque<std::uint64_t> token_fifo_;
  PersistStats stats_;

  // Checkpoint thread handoff (guarded by mu_/cv_).
  std::condition_variable cv_;
  bool ckpt_pending_ = false;
  bool ckpt_running_ = false;
  bool stop_ = false;
  ruleset::RuleSet ckpt_rules_;
  std::uint64_t ckpt_seq_ = 0;
  std::thread ckpt_thread_;  // last: starts after everything above exists
};

}  // namespace rfipc::persist
