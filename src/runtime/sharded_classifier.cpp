#include "runtime/sharded_classifier.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "engines/common/factory.h"
#include "engines/common/scratch.h"
#include "util/cores.h"

namespace rfipc::runtime {
namespace {

using engines::MatchResult;

std::size_t clamped_shards(std::size_t requested, std::size_t rules) {
  if (requested == 0) requested = 1;
  return requested < rules ? requested : rules;
}

/// The one shard-count rule every construction site agrees on: the
/// configured count, raised until no band seeds wider than
/// max_band_rules, clamped so no shard starts empty.
std::size_t effective_shards(const ShardedConfig& cfg, std::size_t rules) {
  std::size_t requested = cfg.shards;
  if (cfg.max_band_rules > 0 && rules > 0) {
    const std::size_t needed = (rules + cfg.max_band_rules - 1) / cfg.max_band_rules;
    if (needed > requested) requested = needed;
  }
  return clamped_shards(requested, rules);
}

/// One core budget → one worker crew: the fan-out runs
/// min(shards, core_budget - reserved_cores) lanes, never below one,
/// with the dispatching caller as lane 0 — so the crew holds lanes - 1
/// threads and a 1-core box walks every batch inline.
ShardWorkerPool::Options worker_options(const ShardedConfig& cfg,
                                        std::size_t shards) {
  const std::size_t lanes =
      util::parallel_lanes(shards, cfg.core_budget, cfg.reserved_cores);
  return ShardWorkerPool::Options{.workers = lanes - 1};
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

ShardedClassifier::ShardedClassifier(ruleset::RuleSet rules, ShardedConfig config)
    : config_(std::move(config)),
      stats_(effective_shards(config_, rules.size())),
      workers_(worker_options(config_, effective_shards(config_, rules.size()))) {
  if (rules.empty()) throw std::invalid_argument("ShardedClassifier: empty ruleset");
  if (config_.failure.quarantine_after == 0) config_.failure.quarantine_after = 1;
  if (config_.flow_cache_capacity > 0) {
    cache_ = std::make_unique<flow::FlowCache>(config_.flow_cache_capacity);
  }

  const std::size_t shards = effective_shards(config_, rules.size());
  const std::size_t base = rules.size() / shards;
  const std::size_t extra = rules.size() % shards;
  auto set = std::make_shared<ShardSet>();
  std::size_t next = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    ruleset::RuleSet band;
    for (std::size_t i = 0; i < len; ++i) band.add(rules[next + i]);
    next += len;
    set->bases.push_back(next);
    Shard shard;
    shard.engine = engines::make_engine(config_.engine_spec, band);
    shard.rules = std::make_shared<const ruleset::RuleSet>(std::move(band));
    shard.health = std::make_shared<ShardHealth>();
    shard.id = next_id_++;
    set->shards.push_back(std::move(shard));
  }
  snapshot_.exchange(std::move(set));
  queue_ = std::make_unique<UpdateQueue>(
      [this](std::vector<UpdateQueue::Pending>& batch) { apply_batch(batch); });
}

ShardedClassifier::~ShardedClassifier() {
  queue_.reset();  // stop the applier thread before the snapshot dies
}

std::string ShardedClassifier::name() const {
  return "Sharded[" + std::to_string(shard_count()) + "x " + config_.engine_spec + "]";
}

std::size_t ShardedClassifier::rule_count() const {
  return snapshot_.read()->bases.back();
}

bool ShardedClassifier::supports_multi_match() const {
  auto snap = snapshot_.read();
  for (const auto& s : snap->shards) {
    if (!s.engine->supports_multi_match()) return false;
  }
  return true;
}

std::size_t ShardedClassifier::shard_count() const {
  return snapshot_.read()->shards.size();
}

std::size_t ShardedClassifier::shard_size(std::size_t s) const {
  auto snap = snapshot_.read();
  return snap->bases[s + 1] - snap->bases[s];
}

std::shared_ptr<const engines::ClassifierEngine> ShardedClassifier::shard_engine(
    std::size_t s) const {
  return snapshot_.read()->shards[s].engine;
}

bool ShardedClassifier::validate_results(std::span<const MatchResult> results,
                                         std::size_t shard_rules) const {
  for (const auto& r : results) {
    if (r.best != MatchResult::kNoMatch && r.best >= shard_rules) return false;
    if (!r.multi.empty() && r.multi.size() != shard_rules) return false;
  }
  return true;
}

void ShardedClassifier::record_shard_fault(const Shard& shard,
                                           std::uint64_t packets) const {
  stats_.record_fault();
  shard.health->faults_total.fetch_add(1, std::memory_order_relaxed);
  shard.health->degraded_packets.fetch_add(packets, std::memory_order_relaxed);
  const std::uint32_t consecutive =
      shard.health->consecutive_faults.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (consecutive >= config_.failure.quarantine_after &&
      !shard.health->quarantined.exchange(true, std::memory_order_acq_rel)) {
    stats_.record_quarantine();
    if (config_.failure.rebuild) schedule_rebuild(shard.id, 0);
  }
}

MatchResult ShardedClassifier::classify(const net::HeaderBits& header) const {
  MatchResult out;
  classify_batch({&header, 1}, {&out, 1}, engines::BatchOptions{});
  return out;
}

bool ShardedClassifier::run_contained(const Shard& shard,
                                      std::span<const net::HeaderBits> headers,
                                      std::span<MatchResult> out,
                                      const engines::BatchOptions& opts) const {
  const auto start = std::chrono::steady_clock::now();
  bool good = true;
  try {
    shard.engine->classify_batch(headers, out, opts);
  } catch (...) {
    good = false;
  }
  if (good) good = validate_results(out, shard.engine->rule_count());
  if (!good) {
    record_shard_fault(shard, headers.size());
    return false;
  }
  // Every lane calls every band: only write the shared record to end a
  // streak, so healthy calls never bounce its cache line.
  std::atomic<std::uint32_t>& streak = shard.health->consecutive_faults;
  if (streak.load(std::memory_order_relaxed) != 0) {
    streak.store(0, std::memory_order_relaxed);
  }
  stats_.record_shard_batch(shard.id, elapsed_ns(start));
  return true;
}

void ShardedClassifier::walk_slice(const FanContext& ctx, std::size_t lane) const {
  const ShardSet& snap = *ctx.snap;
  LaneScratch& scratch = ctx.scratch->lanes[lane];
  const std::size_t n = ctx.headers.size();
  const std::size_t lo = n * lane / ctx.lanes;
  const std::size_t len = n * (lane + 1) / ctx.lanes - lo;
  const std::span<const net::HeaderBits> headers = ctx.headers.subspan(lo, len);
  const std::span<MatchResult> out = ctx.results.subspan(lo, len);
  const std::size_t total = snap.bases.back();
  if (scratch.band.size() < len) scratch.band.resize(len);

  // Bands are walked in ascending order, and band s owns strictly
  // higher priorities (smaller global indices) than band s+1, so the
  // first band that matches a packet answers its `best`. A faulted
  // band's packets fall through to the next band, as if it matched
  // nothing.
  if (ctx.opts.want_multi) {
    // Every band may add bits, so every band sees the whole slice.
    for (MatchResult& r : out) r.reset_for(total, true);
    const std::span<MatchResult> band(scratch.band.data(), len);
    for (const std::size_t s : ctx.scratch->eligible) {
      if (!run_contained(snap.shards[s], headers, band, ctx.opts)) continue;
      const std::size_t base = snap.bases[s];
      const ruleset::RuleSet& rules = *snap.shards[s].rules;
      for (std::size_t p = 0; p < len; ++p) {
        const MatchResult& r = band[p];
        MatchResult& o = out[p];
        if (r.has_match() && !o.has_match()) {
          o.best = base + r.best;
          o.action = rules[r.best].action;
        }
        for (std::size_t b = r.multi.first_set(); b != util::BitVector::npos;
             b = r.multi.next_set(b + 1)) {
          o.multi.set(base + b);
        }
      }
    }
    return;
  }

  // Best-only: a band is handed only the packets no higher band
  // matched, so the top bands answer most traffic and the tail is
  // rarely touched. Until one band answers, the band reads the slice in
  // place and writes `out` directly; after that, it reads the packets
  // still unmatched, compacted into the lane's scratch, and writes the
  // lane's band buffer.
  if (scratch.headers.size() < len) {
    scratch.headers.resize(len);
    scratch.pos.resize(len);
  }
  bool in_place = true;
  std::size_t pending = len;
  for (const std::size_t s : ctx.scratch->eligible) {
    const std::span<const net::HeaderBits> in =
        in_place ? headers : std::span<const net::HeaderBits>(scratch.headers.data(), pending);
    const std::span<MatchResult> res =
        in_place ? out : std::span<MatchResult>(scratch.band.data(), pending);
    if (!run_contained(snap.shards[s], in, res, ctx.opts)) continue;
    const std::size_t base = snap.bases[s];
    const ruleset::RuleSet& rules = *snap.shards[s].rules;
    std::size_t left = 0;
    for (std::size_t j = 0; j < pending; ++j) {
      const std::size_t p = in_place ? j : scratch.pos[j];
      const std::size_t local = res[j].best;  // res[j] is out[p] in place
      if (local != MatchResult::kNoMatch) {
        out[p].best = base + local;
        out[p].action = rules[local].action;
      } else {
        scratch.headers[left] = in[j];
        scratch.pos[left] = p;
        ++left;
      }
    }
    in_place = false;
    pending = left;
    if (pending == 0) return;
  }
  // No band answered: `out` holds nothing, or a faulted band's output.
  if (in_place) {
    for (MatchResult& r : out) r.reset_for(total, false);
  }
}

void ShardedClassifier::walk_slice_entry(void* ctx, std::size_t lane) {
  const auto* c = static_cast<const FanContext*>(ctx);
  c->self->walk_slice(*c, lane);
}

void ShardedClassifier::fan_out(const ShardSet& snap,
                                std::span<const net::HeaderBits> headers,
                                std::span<MatchResult> results,
                                const engines::BatchOptions& opts,
                                FanScratch& scratch) const {
  // Only shards that can actually contribute take part: empty bands
  // have nothing to match and quarantined shards are out of service.
  std::vector<std::size_t>& eligible = scratch.eligible;
  eligible.clear();
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    const Shard& shard = snap.shards[s];
    if (snap.bases[s + 1] == snap.bases[s]) continue;  // empty band
    if (shard.health->quarantined.load(std::memory_order_acquire)) {
      shard.health->degraded_packets.fetch_add(headers.size(),
                                               std::memory_order_relaxed);
      continue;
    }
    eligible.push_back(s);
  }

  // One contiguous slice of at least kMinLaneRows packets per lane.
  // Lane 0 is the dispatching caller itself: it hands lanes 1..L-1
  // their descriptors first, walks its own slice inline, then waits —
  // run-to-completion, no per-task futures, no hand-off at all when
  // only one lane runs. The caller's RCU pin (held across this call)
  // keeps `snap` and the shard engines alive for the workers.
  const std::size_t lanes = std::min(workers_.worker_count() + 1,
                                     std::max<std::size_t>(headers.size() / kMinLaneRows, 1));
  if (scratch.lanes.size() < lanes) scratch.lanes.resize(lanes);
  FanContext ctx{.self = this,
                 .snap = &snap,
                 .headers = headers,
                 .results = results,
                 .opts = opts,
                 .scratch = &scratch,
                 .lanes = lanes};
  ShardWorkerPool::Completion done;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    workers_.dispatch(lane - 1, &ShardedClassifier::walk_slice_entry, &ctx, lane, done);
  }
  walk_slice(ctx, 0);
  workers_.wait(done);
}

void ShardedClassifier::classify_batch(std::span<const net::HeaderBits> headers,
                                       std::span<MatchResult> results,
                                       const engines::BatchOptions& opts) const {
  if (headers.size() != results.size()) {
    throw std::invalid_argument("classify_batch: span size mismatch");
  }
  if (headers.empty()) return;

  // All per-batch state (eligible set, per-lane buffers, miss
  // compaction) lives in one pooled scratch: zero allocation per batch
  // in steady state, re-entrant because each in-flight call borrows
  // its own entry.
  std::unique_ptr<FanScratch> scratch = borrow_scratch();

  if (cache_ == nullptr) {
    auto snap = snapshot_.read();
    fan_out(*snap, headers, results, opts, *scratch);
  } else {
    // Flow-cache front end: answer hits in place, compact the misses
    // into a contiguous sub-batch, and fan only that out to the shards.
    // Entries hold no multi vector, so a caller that wants one skips
    // the probe: its packets count as misses and refill {best, action}.
    const std::uint64_t epoch = cache_->epoch();
    const bool probe = !(opts.want_multi && supports_multi_match());
    engines::ScratchArena& arena = scratch->arena;
    arena.headers.clear();
    arena.indices.clear();
    for (std::size_t i = 0; i < headers.size(); ++i) {
      if (probe && cache_->probe(headers[i], epoch, results[i])) continue;
      arena.indices.push_back(i);
      arena.headers.push_back(headers[i]);
    }
    cache_->count(headers.size() - arena.headers.size(), arena.headers.size());
    if (!arena.headers.empty()) {
      auto snap = snapshot_.read();
      std::vector<MatchResult>& miss = scratch->miss;
      if (miss.size() < arena.headers.size()) miss.resize(arena.headers.size());
      const std::span<MatchResult> mspan(miss.data(), arena.headers.size());
      fan_out(*snap, arena.headers, mspan, opts, *scratch);
      for (std::size_t j = 0; j < mspan.size(); ++j) {
        cache_->insert(arena.headers[j], epoch, mspan[j]);
        // Swap, not move: both multi buffers keep their capacity.
        std::swap(results[arena.indices[j]], mspan[j]);
      }
    }
  }
  return_scratch(std::move(scratch));

  std::uint64_t matched = 0;
  for (const MatchResult& r : results) {
    if (r.has_match()) ++matched;
  }
  stats_.record_batch(headers.size(), matched);
}

std::unique_ptr<ShardedClassifier::FanScratch> ShardedClassifier::borrow_scratch()
    const {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<FanScratch> s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return s;
    }
  }
  return std::make_unique<FanScratch>();
}

void ShardedClassifier::return_scratch(std::unique_ptr<FanScratch> scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

std::size_t ShardedClassifier::owning_shard(const std::vector<std::size_t>& bases,
                                            std::size_t g) {
  std::size_t s = bases.size() - 2;  // last shard
  while (s > 0 && g < bases[s]) --s;
  return s;
}

bool ShardedClassifier::insert_rule(std::size_t index, const ruleset::Rule& rule) {
  return submit_insert(index, rule).get();
}

bool ShardedClassifier::erase_rule(std::size_t index) {
  return submit_erase(index).get();
}

std::future<bool> ShardedClassifier::submit_insert(std::size_t index,
                                                   ruleset::Rule rule,
                                                   std::uint64_t token) {
  return queue_->submit(UpdateOp::insert(index, std::move(rule), token));
}

std::future<bool> ShardedClassifier::submit_erase(std::size_t index,
                                                  std::uint64_t token) {
  return queue_->submit(UpdateOp::erase(index, token));
}

void ShardedClassifier::flush_updates() { queue_->flush(); }

void ShardedClassifier::patch_engine(
    Working& w, std::size_t s,
    const std::function<bool(engines::ClassifierEngine&)>& patch) {
  if (w.needs_rebuild[s]) return;  // full rebuild already pending
  if (w.shards[s].health->quarantined.load(std::memory_order_acquire)) {
    // The engine is out of service; only the band rules advance. The
    // scheduled rebuild task reinstates from them.
    return;
  }
  if (w.patched[s] == nullptr) {
    w.patched[s] = w.shards[s].engine->clone();
    if (w.patched[s] == nullptr) {
      w.needs_rebuild[s] = 1;  // engine cannot be copied: factory rebuild
      return;
    }
  }
  if (!patch(*w.patched[s])) {
    // The clone rejected the incremental patch; discard it and rebuild
    // from the band rules, which already carry every op.
    w.patched[s].reset();
    w.needs_rebuild[s] = 1;
  }
}

ruleset::RuleSet& ShardedClassifier::band_rules(Working& w, std::size_t s) {
  // Published snapshots never change: the first write to a band in a
  // batch copies its rules, and the copy rides into the next snapshot.
  if (w.rules[s] == nullptr) {
    w.rules[s] = std::make_shared<ruleset::RuleSet>(*w.shards[s].rules);
    w.shards[s].rules = w.rules[s];
  }
  return *w.rules[s];
}

bool ShardedClassifier::apply_one(Working& w, const UpdateOp& op) {
  const std::size_t total = w.bases.back();
  if (op.kind == UpdateOp::Kind::kInsert) {
    if (op.index > total) return false;
    if (w.shards.empty()) {
      // Fully drained classifier: re-seed a fresh shard.
      Shard shard;
      shard.rules =
          std::make_shared<const ruleset::RuleSet>(std::vector<ruleset::Rule>{op.rule});
      shard.health = std::make_shared<ShardHealth>();
      shard.id = next_id_++;
      w.shards.push_back(std::move(shard));
      w.rules.emplace_back(nullptr);
      w.patched.emplace_back(nullptr);
      w.needs_rebuild.push_back(1);
      w.bases = {0, 1};
      w.dirty = true;
      return true;
    }
    const std::size_t s =
        op.index == total ? w.shards.size() - 1 : owning_shard(w.bases, op.index);
    const std::size_t local = op.index - w.bases[s];
    band_rules(w, s).insert(local, op.rule);
    patch_engine(w, s, [&](engines::ClassifierEngine& e) {
      return e.insert_rule(local, op.rule);
    });
    for (std::size_t t = s + 1; t < w.bases.size(); ++t) ++w.bases[t];
    w.dirty = true;
    return true;
  }

  if (op.index >= total) return false;
  const std::size_t s = owning_shard(w.bases, op.index);
  const std::size_t local = op.index - w.bases[s];
  if (w.bases[s + 1] - w.bases[s] == 1) {
    // Band emptied: collapse it — drop the shard and merge the bases.
    w.shards.erase(w.shards.begin() + static_cast<std::ptrdiff_t>(s));
    w.rules.erase(w.rules.begin() + static_cast<std::ptrdiff_t>(s));
    w.patched.erase(w.patched.begin() + static_cast<std::ptrdiff_t>(s));
    w.needs_rebuild.erase(w.needs_rebuild.begin() + static_cast<std::ptrdiff_t>(s));
    w.bases.erase(w.bases.begin() + static_cast<std::ptrdiff_t>(s) + 1);
    for (std::size_t t = s + 1; t < w.bases.size(); ++t) --w.bases[t];
    w.dirty = true;
    return true;
  }
  band_rules(w, s).erase(local);
  patch_engine(w, s,
               [&](engines::ClassifierEngine& e) { return e.erase_rule(local); });
  for (std::size_t t = s + 1; t < w.bases.size(); ++t) --w.bases[t];
  w.dirty = true;
  return true;
}

void ShardedClassifier::apply_batch(std::vector<UpdateQueue::Pending>& batch) {
  auto cur = snapshot_.current();
  Working w;
  w.shards = cur->shards;
  w.bases = cur->bases;
  w.rules.resize(w.shards.size());
  w.patched.resize(w.shards.size());
  w.needs_rebuild.assign(w.shards.size(), 0);

  std::vector<bool> applied(batch.size(), false);
  std::uint64_t ops_applied = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    applied[i] = apply_one(w, batch[i].op);
    if (applied[i]) ++ops_applied;
  }

  if (w.dirty) {
    for (std::size_t s = 0; s < w.shards.size(); ++s) {
      if (w.needs_rebuild[s] && w.patched[s] == nullptr) {
        w.patched[s] = engines::make_engine(config_.engine_spec, *w.shards[s].rules);
      }
    }
    auto next = std::make_shared<ShardSet>();
    next->shards = std::move(w.shards);
    next->bases = std::move(w.bases);
    for (std::size_t s = 0; s < next->shards.size(); ++s) {
      if (w.patched[s] != nullptr) next->shards[s].engine = std::move(w.patched[s]);
    }
    stats_.record_swap(ops_applied);
    snapshot_.exchange(std::move(next));
    // Bump the cache epoch AFTER the swap and BEFORE resolving the
    // completion promises: a reader that still captures the old epoch
    // can only pin the retired snapshot concurrently with this update,
    // and its insert will be rejected (or its entry born stale).
    if (cache_ != nullptr) cache_->invalidate();
  }

  // Write-ahead durability: journal the applied ops while their
  // completion futures are still unresolved, so "future resolved" (and
  // the wire OK it produces) implies both published AND durable. The
  // snapshot cannot be unpublished, so a failing hook must not wedge
  // the update plane — log and resolve anyway.
  if (config_.durability_hook && ops_applied > 0) {
    std::vector<UpdateOp> durable;
    durable.reserve(ops_applied);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (applied[i]) durable.push_back(batch[i].op);
    }
    try {
      config_.durability_hook(durable);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rfipc: durability hook failed: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "rfipc: durability hook failed\n");
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (applied[i]) stats_.record_update();
    batch[i].done.set_value(applied[i]);
  }
}

void ShardedClassifier::schedule_rebuild(std::size_t id, std::uint32_t attempt) const {
  const FailurePolicy& pol = config_.failure;
  double delay_ms = static_cast<double>(pol.backoff_initial_ms) *
                    std::pow(kRebuildBackoffFactor, static_cast<double>(attempt));
  const double max_ms = static_cast<double>(kRebuildBackoffMaxMs);
  if (!(delay_ms <= max_ms)) delay_ms = max_ms;  // also catches NaN/inf
  const auto when = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(static_cast<std::int64_t>(delay_ms));
  // The const_cast confines itself to the writer plane: classify() is
  // const but must be able to kick off recovery maintenance.
  auto* self = const_cast<ShardedClassifier*>(this);
  queue_->schedule(when, [self, id, attempt] { self->rebuild_shard(id, attempt); });
}

void ShardedClassifier::rebuild_shard(std::size_t id, std::uint32_t attempt) {
  auto cur = snapshot_.current();
  std::size_t s = cur->shards.size();
  for (std::size_t i = 0; i < cur->shards.size(); ++i) {
    if (cur->shards[i].id == id) {
      s = i;
      break;
    }
  }
  // The shard may have been collapsed away, or already reinstated.
  if (s == cur->shards.size()) return;
  const auto& old = cur->shards[s];
  if (!old.health->quarantined.load(std::memory_order_acquire)) return;

  const std::string& spec = config_.failure.rebuild_spec.empty()
                                ? config_.engine_spec
                                : config_.failure.rebuild_spec;
  engines::EnginePtr fresh;
  try {
    fresh = engines::make_engine(spec, *old.rules);
  } catch (...) {
    schedule_rebuild(id, attempt + 1);
    return;
  }

  auto next = std::make_shared<ShardSet>(*cur);
  auto health = std::make_shared<ShardHealth>();
  health->faults_total.store(old.health->faults_total.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  health->degraded_packets.store(
      old.health->degraded_packets.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  health->reinstated.store(
      old.health->reinstated.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  next->shards[s].engine = std::move(fresh);
  next->shards[s].health = std::move(health);
  stats_.record_reinstate();
  snapshot_.exchange(std::move(next));
  // The reinstated shard's band starts answering again: cached
  // decisions computed while it was quarantined are now wrong.
  if (cache_ != nullptr) cache_->invalidate();
}

std::uint64_t ShardedClassifier::memory_bytes() const {
  auto snap = snapshot_.read();
  std::uint64_t bytes = 0;
  for (const Shard& s : snap->shards) bytes += s.engine->memory_bytes();
  return bytes;
}

StatsSnapshot ShardedClassifier::stats_snapshot() const {
  StatsSnapshot out = stats_.snapshot();
  if (cache_ != nullptr) {
    const flow::FlowCache::Stats cs = cache_->stats();
    out.cache_hits = cs.hits;
    out.cache_misses = cs.misses;
    out.cache_evictions = cs.evictions;
    out.cache_invalidations = cs.invalidations;
  }
  auto snap = snapshot_.read();
  out.health.reserve(snap->shards.size());
  for (std::size_t s = 0; s < snap->shards.size(); ++s) {
    const Shard& shard = snap->shards[s];
    ShardHealthDigest d;
    d.id = shard.id;
    d.rules = snap->bases[s + 1] - snap->bases[s];
    d.faults = shard.health->faults_total.load(std::memory_order_relaxed);
    d.degraded_packets = shard.health->degraded_packets.load(std::memory_order_relaxed);
    d.reinstated = shard.health->reinstated.load(std::memory_order_relaxed);
    d.quarantined = shard.health->quarantined.load(std::memory_order_acquire);
    out.degraded = out.degraded || d.quarantined;
    out.health.push_back(d);
    out.memory_bytes += shard.engine->memory_bytes();
  }
  for (const ShardWorkerPool::WorkerCounters& c : workers_.counters()) {
    WorkerDigest w;
    w.tasks = c.tasks;
    w.ring_stalls = c.ring_stalls;
    w.parks = c.parks;
    w.ring_depth = c.ring_depth;
    out.workers.push_back(w);
  }
  return out;
}

}  // namespace rfipc::runtime
