// A resilient blocking client for the classification service: one TCP
// connection, one request in flight at a time (request_id checked on
// every reply). Intended for tools, tests, and the CLI — the server
// side is where the concurrency lives.
//
// Unlike a bare socket wrapper, every operation is bounded and
// retried:
//
// * Deadlines — connect() uses a non-blocking connect + poll bounded
//   by connect_timeout_ms; every request/reply round-trip is bounded
//   by request_timeout_ms (poll-gated send AND recv), so a dead or
//   stalled peer costs a timeout, never a hang.
// * Auto-reconnect — a transport failure (refused, reset, timeout)
//   closes the connection and, when retries remain, reconnects with
//   exponential backoff plus uniform jitter before resending. SHED
//   replies (admission control) retry the same way without dropping
//   the connection.
// * Idempotent updates — insert_rule/erase_rule attach a
//   client-generated 64-bit token, resent unchanged on every retry of
//   the same logical update. A journaled server remembers token → seq,
//   so a retry after a dropped reply is answered with the ORIGINAL ack
//   instead of double-applying; last_seq() exposes the journal
//   sequence number the server acked (0 on journal-less servers).
//
// Retry safety: PING/CLASSIFY_BATCH/STATS are read-only and always
// safe to retry; updates are safe because of the token. kBadRequest /
// kError replies are NOT retried — the server understood and refused.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "net/header.h"
#include "ruleset/rule.h"
#include "server/wire.h"

namespace rfipc::server {

/// Ceiling on the delay between retry attempts.
inline constexpr std::uint32_t kRetryBackoffMaxMs = 2'000;

struct ClientOptions {
  /// Bound on one TCP connect attempt. 0 = wait forever (discouraged).
  std::uint32_t connect_timeout_ms = 2'000;
  /// Bound on one request/reply round-trip. 0 = wait forever.
  std::uint32_t request_timeout_ms = 5'000;
  /// Re-attempts after the first try (0 = fail fast on first error).
  std::uint32_t max_retries = 3;
  /// Exponential backoff between attempts: initial * 2^attempt, capped
  /// at kRetryBackoffMaxMs, plus uniform jitter in [0, delay) to spread herds.
  std::uint32_t backoff_initial_ms = 50;
  /// Reconnect automatically inside a call after a transport failure.
  /// Off = a broken connection fails the call (tests, strict tools).
  bool auto_reconnect = true;
};

class ClassifyClient {
 public:
  ClassifyClient() : ClassifyClient(ClientOptions{}) {}
  explicit ClassifyClient(ClientOptions opts);
  ~ClassifyClient();

  ClassifyClient(const ClassifyClient&) = delete;
  ClassifyClient& operator=(const ClassifyClient&) = delete;
  ClassifyClient(ClassifyClient&& other) noexcept;
  ClassifyClient& operator=(ClassifyClient&& other) noexcept;

  const ClientOptions& options() const { return opts_; }

  /// Connects, bounded by connect_timeout_ms. False on failure;
  /// error() says why. Remembers host/port for auto-reconnect.
  bool connect(const std::string& host, std::uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Round-trips a PING.
  bool ping();

  /// Classifies a batch; fills `best` with global rule indices
  /// (wire::kNoMatch for a miss). False on transport/protocol failure
  /// OR a non-OK status — check status() to tell a SHED from a broken
  /// connection.
  bool classify(std::span<const net::HeaderBits> headers,
                std::vector<std::uint64_t>& best);

  /// Inserts `rule` at global index `index`; returns once the update's
  /// snapshot is published AND journaled (on a durable server, the
  /// reply is written only after the journal fsync). Retries resend
  /// the same idempotency token, so a lost reply cannot double-apply.
  bool insert_rule(std::uint64_t index, const ruleset::Rule& rule);
  bool erase_rule(std::uint64_t index);

  /// Journal sequence number of the last acked update (0 when the
  /// server runs without a journal).
  std::uint64_t last_seq() const { return last_seq_; }

  /// Fetches the server's StatsSnapshot JSON.
  bool stats_json(std::string& json);

  /// Status of the last reply (kOk unless the call returned false).
  wire::Status status() const { return status_; }
  /// Human-readable failure reason for the last false return.
  const std::string& error() const { return error_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Retry loop: attempts roundtrip_once up to 1 + max_retries times,
  /// reconnecting and backing off between attempts. Transport errors
  /// and SHED retry; kBadRequest/kError do not.
  bool roundtrip(const wire::Request& req, wire::Response& rsp);
  /// One bounded attempt over the current connection.
  bool roundtrip_once(const wire::Request& req, wire::Response& rsp,
                      Clock::time_point deadline);
  bool connect_once(Clock::time_point deadline);
  bool send_all(const std::uint8_t* data, std::size_t size,
                Clock::time_point deadline);
  bool recv_exact(std::uint8_t* dst, std::size_t want, Clock::time_point deadline);
  bool recv_frame(std::vector<std::uint8_t>& payload, Clock::time_point deadline);
  /// poll() for `events`, bounded by `deadline`. False on timeout/error.
  bool wait_io(short events, Clock::time_point deadline);
  void backoff_sleep(std::uint32_t attempt);
  std::uint64_t next_token();
  bool fail(std::string why);
  static Clock::time_point deadline_after(std::uint32_t ms);

  ClientOptions opts_;
  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  bool ever_connected_ = false;
  std::uint32_t next_id_ = 1;
  std::uint64_t last_seq_ = 0;
  wire::Status status_ = wire::Status::kOk;
  std::string error_;
  std::vector<std::uint8_t> send_buf_;
  std::vector<std::uint8_t> recv_buf_;
  std::mt19937_64 rng_;  // token generation + backoff jitter
};

}  // namespace rfipc::server
