#include "persist/durable_log.h"

#include <fcntl.h>
#include <stdio.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>

namespace rfipc::persist {

namespace fs = std::filesystem;

namespace {

constexpr const char* kCheckpointName = "checkpoint.ckpt";

/// journal-<start_seq>.log, zero-padded so ls order == seq order.
std::string segment_name(std::uint64_t start_seq) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "journal-%020llu.log",
                static_cast<unsigned long long>(start_seq));
  return buf;
}

/// Parses start_seq back out of a segment filename; nullopt for
/// anything that is not a journal segment.
std::optional<std::uint64_t> segment_start(const std::string& filename) {
  if (filename.size() < 13 || filename.rfind("journal-", 0) != 0 ||
      filename.substr(filename.size() - 4) != ".log") {
    return std::nullopt;
  }
  const std::string digits = filename.substr(8, filename.size() - 12);
  if (digits.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    if (v > (~std::uint64_t{0} - (c - '0')) / 10) return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

std::string RecoveryReport::to_string() const {
  std::ostringstream os;
  if (forced_empty) {
    os << "forced empty start (corrupt state archived as *.corrupt)";
    return os.str();
  }
  if (checkpoint_loaded) {
    os << "checkpoint seq=" << checkpoint_seq << " (" << checkpoint_rules
       << " rules)";
  } else {
    os << "no checkpoint";
  }
  os << ", replayed " << replayed << " journal records";
  if (skipped > 0) os << " (skipped " << skipped << " already covered)";
  os << ", last_seq=" << last_seq;
  if (torn_tail) {
    os << "; torn tail: dropped " << dropped_bytes << " bytes (" << note << ")";
  }
  return os.str();
}

std::string DurableLog::checkpoint_path() const {
  return (fs::path(cfg_.dir) / kCheckpointName).string();
}

std::string DurableLog::segment_path(std::uint64_t start_seq) const {
  return (fs::path(cfg_.dir) / segment_name(start_seq)).string();
}

std::vector<std::string> DurableLog::list_segments(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const auto start = segment_start(entry.path().filename().string());
    if (start) found.emplace_back(*start, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [_, path] : found) out.push_back(std::move(path));
  return out;
}

std::unique_ptr<DurableLog> DurableLog::open(DurableLogConfig cfg, std::string& err) {
  std::error_code ec;
  fs::create_directories(cfg.dir, ec);
  if (ec) {
    err = "create " + cfg.dir + ": " + ec.message();
    return nullptr;
  }
  std::unique_ptr<DurableLog> log(new DurableLog());
  log->cfg_ = std::move(cfg);
  if (!log->recover(err)) return nullptr;
  if (!log->open_fresh_segment(err)) return nullptr;
  log->ckpt_thread_ = std::thread([raw = log.get()] { raw->checkpoint_thread(); });
  return log;
}

DurableLog::~DurableLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  std::string err;
  if (writer_.valid() && cfg_.fsync != FsyncPolicy::kNone) writer_.sync(err);
}

bool DurableLog::archive_all(std::string& err) {
  const auto archive = [&](const std::string& path) {
    const std::string to = path + ".corrupt";
    ::remove(to.c_str());  // replace any previous archive
    if (::rename(path.c_str(), to.c_str()) != 0) {
      err = errno_msg("rename " + path);
      return false;
    }
    return true;
  };
  const std::string ckpt = checkpoint_path();
  if (fs::exists(ckpt) && !archive(ckpt)) return false;
  for (const auto& seg : list_segments(cfg_.dir)) {
    if (!archive(seg)) return false;
  }
  return sync_dir(cfg_.dir, err);
}

bool DurableLog::recover(std::string& err) {
  // An orphaned tmp image is an interrupted checkpoint write: the
  // rename never happened, so it carries no authority. Discard it.
  ::remove((checkpoint_path() + ".tmp").c_str());

  if (fs::exists(checkpoint_path())) {
    CheckpointLoad base = load_checkpoint(checkpoint_path());
    if (!base.ok) {
      if (!cfg_.force_empty) {
        err = "corrupt checkpoint (" + base.error +
              "); refusing to start — pass --force-empty to archive the "
              "state and start fresh";
        return false;
      }
      if (!archive_all(err)) return false;
      recovery_.forced_empty = true;
      recovery_.note = base.error;
      return true;
    }
    mirror_ = std::move(base.rules);
    seq_ = base.seq;
    recovery_.checkpoint_loaded = true;
    recovery_.checkpoint_seq = base.seq;
    recovery_.checkpoint_rules = mirror_.size();
    stats_.last_checkpoint_seq = base.seq;
  }

  bool stopped = false;
  for (const auto& seg : list_segments(cfg_.dir)) {
    if (stopped) {
      // Beyond a tear nothing is trustworthy (the sequence chain is
      // broken); count the remainder as dropped.
      std::error_code ec;
      const auto sz = fs::file_size(seg, ec);
      recovery_.dropped_bytes += ec ? 0 : sz;
      continue;
    }
    const SegmentScan scan = scan_segment(seg);
    if (!scan.header_ok) {
      stopped = true;
      recovery_.torn_tail = true;
      recovery_.dropped_bytes += scan.dropped_bytes;
      if (recovery_.note.empty()) recovery_.note = seg + ": " + scan.note;
      continue;
    }
    if (scan.start_seq > seq_ + 1) {
      stopped = true;
      recovery_.torn_tail = true;
      std::error_code ec;
      const auto sz = fs::file_size(seg, ec);
      recovery_.dropped_bytes += ec ? 0 : sz;
      if (recovery_.note.empty()) {
        recovery_.note = seg + ": starts at seq " + std::to_string(scan.start_seq) +
                         " but recovered state ends at " + std::to_string(seq_);
      }
      continue;
    }
    for (const auto& rec : scan.records) {
      if (rec.seq <= seq_) {
        ++recovery_.skipped;  // the checkpoint already covers this
        continue;
      }
      RuleOp op;
      op.kind = rec.kind;
      op.index = rec.index;
      op.token = rec.token;
      op.rule = rec.rule;
      if (!mirror_apply(op)) {
        stopped = true;
        recovery_.torn_tail = true;
        if (recovery_.note.empty()) {
          recovery_.note = seg + ": record seq " + std::to_string(rec.seq) +
                           " inconsistent with recovered ruleset";
        }
        break;
      }
      seq_ = rec.seq;
      ++recovery_.replayed;
      if (rec.token != 0) remember_token(rec.token, rec.seq);
    }
    if (!scan.clean && !stopped) {
      recovery_.torn_tail = true;
      recovery_.dropped_bytes += scan.dropped_bytes;
      if (recovery_.note.empty()) recovery_.note = seg + ": " + scan.note;
      // Physically repair the tear: truncate the segment to its valid
      // prefix. Appends after a salvage land in a FRESH segment, so
      // without this repair the next recovery would stop at the same
      // tear and never reach those later, fully durable records. With
      // the garbage gone this segment scans clean next time, and the
      // start_seq contiguity check above still guards real gaps.
      std::error_code ec;
      const auto size = fs::file_size(seg, ec);
      if (!ec && scan.dropped_bytes <= size) {
        fs::resize_file(seg, size - scan.dropped_bytes, ec);
      }
      if (ec) {
        // Unrepairable: refuse to trust anything past the tear.
        stopped = true;
      } else {
        File repaired;
        std::string sync_err;
        if (repaired.open(seg, O_WRONLY, sync_err)) {
          (void)repaired.datasync(sync_err);
        }
      }
    }
  }
  recovery_.last_seq = seq_;
  stats_.last_seq = seq_;
  return true;
}

bool DurableLog::open_fresh_segment(std::string& err) {
  // Always start a new segment rather than appending to the recovered
  // tail: appending after salvaged-but-torn bytes would bury good
  // records behind a tear forever.
  if (!writer_.create(segment_path(seq_ + 1), seq_ + 1, err)) return false;
  return sync_dir(cfg_.dir, err);
}

bool DurableLog::mirror_apply(const RuleOp& op) {
  if (op.kind == RecordKind::kInsert) {
    if (op.index > mirror_.size()) return false;
    mirror_.insert(op.index, op.rule);
    return true;
  }
  if (op.index >= mirror_.size()) return false;
  mirror_.erase(op.index);
  return true;
}

void DurableLog::remember_token(std::uint64_t token, std::uint64_t seq) {
  if (cfg_.token_history == 0) return;
  const auto [it, inserted] = token_seq_.insert_or_assign(token, seq);
  (void)it;
  if (inserted) {
    token_fifo_.push_back(token);
    while (token_fifo_.size() > cfg_.token_history) {
      token_seq_.erase(token_fifo_.front());
      token_fifo_.pop_front();
    }
  }
}

ruleset::RuleSet DurableLog::rules_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mirror_;
}

std::uint64_t DurableLog::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

bool DurableLog::seed(const ruleset::RuleSet& rules, std::string& err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq_ != 0 || !mirror_.empty() || recovery_.checkpoint_loaded) {
    err = "seed() on a non-empty log";
    return false;
  }
  if (!write_checkpoint(checkpoint_path(), rules, 0, err)) return false;
  mirror_ = rules;
  recovery_.checkpoint_rules = rules.size();
  ++stats_.checkpoints;
  stats_.last_checkpoint_seq = 0;
  return true;
}

bool DurableLog::append_ops(std::span<const RuleOp> ops, std::string& err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) {
    err = fail_reason_;
    return false;
  }
  const std::uint64_t bytes_before = writer_.bytes();
  for (const auto& op : ops) {
    JournalRecord rec;
    rec.kind = op.kind;
    rec.seq = seq_ + 1;
    rec.token = op.token;
    rec.index = op.index;
    rec.rule = op.rule;
    if (!writer_.append(rec, err)) {
      failed_ = true;
      fail_reason_ = "journal append failed: " + err;
      ++stats_.append_failures;
      return false;
    }
    if (cfg_.fsync == FsyncPolicy::kAlways) {
      if (!writer_.sync(err)) {
        failed_ = true;
        fail_reason_ = "journal fsync failed: " + err;
        ++stats_.append_failures;
        return false;
      }
      ++stats_.fsyncs;
    }
    ++seq_;
    ++stats_.records_appended;
    // The mirror mirrors what the classifier ACCEPTED; the hook only
    // hands us applied ops, so a mismatch here means the caller and the
    // classifier disagree — count it, keep the sequence authoritative.
    if (!mirror_apply(op)) ++stats_.append_failures;
    if (op.token != 0) remember_token(op.token, seq_);
  }
  if (cfg_.fsync == FsyncPolicy::kBatch && !ops.empty()) {
    if (!writer_.sync(err)) {
      failed_ = true;
      fail_reason_ = "journal fsync failed: " + err;
      ++stats_.append_failures;
      return false;
    }
    ++stats_.fsyncs;
  }
  stats_.last_seq = seq_;
  stats_.bytes_appended += writer_.bytes() - bytes_before;

  const bool by_records = cfg_.checkpoint_every_records != 0 &&
                          writer_.records() >= cfg_.checkpoint_every_records;
  const bool by_bytes = writer_.bytes() >= kCheckpointEveryBytes;
  if ((by_records || by_bytes) && !ckpt_pending_ && !ckpt_running_) {
    std::string rot_err;
    if (!rotate_and_request_checkpoint(rot_err)) {
      // Rotation failure is not fatal to the append (already durable);
      // the oversized segment just keeps growing.
      ++stats_.checkpoint_failures;
    }
  }
  return true;
}

std::optional<std::uint64_t> DurableLog::seq_for_token(std::uint64_t token) const {
  if (token == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = token_seq_.find(token);
  if (it == token_seq_.end()) return std::nullopt;
  return it->second;
}

void DurableLog::record_dedupe_hit() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.dedupe_hits;
}

bool DurableLog::rotate_and_request_checkpoint(std::string& err) {
  // The outgoing segment must be durable before a checkpoint claims to
  // cover it — compaction will delete it.
  if (!writer_.sync(err)) return false;
  ++stats_.fsyncs;
  writer_.close();
  if (!writer_.create(segment_path(seq_ + 1), seq_ + 1, err)) {
    failed_ = true;
    fail_reason_ = "segment rotation failed: " + err;
    return false;
  }
  std::string dir_err;
  sync_dir(cfg_.dir, dir_err);  // best effort; rename-time sync also covers it
  ckpt_rules_ = mirror_;
  ckpt_seq_ = seq_;
  ckpt_pending_ = true;
  cv_.notify_all();
  return true;
}

void DurableLog::checkpoint_thread() {
  for (;;) {
    ruleset::RuleSet snap;
    std::uint64_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return ckpt_pending_ || stop_; });
      if (!ckpt_pending_ && stop_) return;
      snap = std::move(ckpt_rules_);
      ckpt_rules_ = ruleset::RuleSet();
      seq = ckpt_seq_;
      ckpt_pending_ = false;
      ckpt_running_ = true;
    }
    std::string err;
    const bool ok = do_checkpoint(snap, seq, err);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (ok) {
        ++stats_.checkpoints;
        stats_.last_checkpoint_seq = seq;
      } else {
        ++stats_.checkpoint_failures;
      }
      ckpt_running_ = false;
    }
    cv_.notify_all();
  }
}

bool DurableLog::do_checkpoint(const ruleset::RuleSet& snap, std::uint64_t seq,
                               std::string& err) {
  if (!write_checkpoint(checkpoint_path(), snap, seq, err)) return false;
  // The image is durable: every segment whose records it fully covers
  // (start_seq <= seq; rotation guarantees such segments end at seq)
  // is now dead weight.
  std::uint64_t removed = 0;
  for (const auto& seg : list_segments(cfg_.dir)) {
    const auto start = segment_start(fs::path(seg).filename().string());
    if (start && *start <= seq && ::remove(seg.c_str()) == 0) ++removed;
  }
  std::string dir_err;
  sync_dir(cfg_.dir, dir_err);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.segments_removed += removed;
  return true;
}

bool DurableLog::checkpoint_now(std::string& err) {
  ruleset::RuleSet snap;
  std::uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Claim the (single) checkpoint slot so the background thread
    // cannot race this synchronous image.
    cv_.wait(lock, [&] { return !ckpt_pending_ && !ckpt_running_; });
    if (failed_) {
      err = fail_reason_;
      return false;
    }
    if (!writer_.sync(err)) return false;
    ++stats_.fsyncs;
    writer_.close();
    if (!writer_.create(segment_path(seq_ + 1), seq_ + 1, err)) {
      failed_ = true;
      fail_reason_ = "segment rotation failed: " + err;
      return false;
    }
    snap = mirror_;
    seq = seq_;
    ckpt_running_ = true;
  }
  const bool ok = do_checkpoint(snap, seq, err);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      ++stats_.checkpoints;
      stats_.last_checkpoint_seq = seq;
    } else {
      ++stats_.checkpoint_failures;
    }
    ckpt_running_ = false;
  }
  cv_.notify_all();
  return ok;
}

void DurableLog::wait_checkpoint_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !ckpt_pending_ && !ckpt_running_; });
}

PersistStats DurableLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace rfipc::persist
