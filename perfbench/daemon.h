// rfipcd as a child process, and the wire-side load the daemon
// workloads put on it: the open-loop durable update sender and the
// classify clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "server/client.h"
#include "workloads.h"

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary args... --port-file DIR/port` with its output in
  /// DIR/rfipcd.log and waits until the port file exists. The child is
  /// killed if this process dies.
  Daemon(const std::string& binary, std::vector<std::string> args,
         const std::string& dir);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from spawn until the port file existed.
  double setup_s() const { return setup_s_; }
  std::uint16_t port() const { return port_; }
  /// The daemon's STATS reply, parsed.
  Json stats();
  /// Peak resident set (VmHWM) so far, in bytes.
  std::uint64_t hwm_bytes() const { return proc_hwm_bytes(pid_); }
  /// SIGTERM (graceful drain), then SIGKILL after a grace period; waits
  /// for the child. Returns true when it exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
  std::string log_path_;
  std::unique_ptr<rfipc::server::ClassifyClient> stats_client_;
};

/// rfipcd's path, next to this program's.
std::string rfipcd_path(const Options& o);
/// Start-ups of `args` in fresh subdirectories of o.run_dir (each with
/// its own journal), measured and stopped; returns their set-up times.
/// `probe` runs on the first while it is up.
std::vector<double> daemon_setups(const Options& o, const std::vector<std::string>& args,
                                  int count, const std::function<void(Daemon&)>& probe);
/// Fills the counters every daemon workload reads from its final STATS.
void observe_stats(const Json& st, Observed& seen);
/// Checks that hold for every daemon run: cache hits + misses = packets
/// that consulted the cache, journal last_seq = acked updates, and no
/// decode errors.
void check_daemon(const Json& st, std::uint64_t acked_updates, RunResult& r);

/// Sends script ops over one connection on a fixed schedule (op k due at
/// start_ns + k / rate) until `stop_ns`, always finishing on an erase so
/// the ruleset ends where it began. Blocking: a slow ack delays the next
/// send, which shows up as lag.
UpdateRun send_updates_wire(std::uint16_t port, const UpdateScript& script,
                            double rate, std::int64_t start_ns, std::int64_t stop_ns);

/// Closed-loop classify traffic over one connection, from `start_ns`
/// until `stop`, cycling through `stream` in batches from `first_batch`.
/// Every reply is checked against the stream's reference.
struct ClassifyRun {
  std::vector<std::int64_t> done_ns;  // completion of each answered request
  std::vector<double> latency_us;     // same order
  std::uint64_t failed_requests = 0;
  AnswerChecker checker;

  std::vector<double> latency_in(std::int64_t from, std::int64_t to) const;
};
ClassifyRun classify_wire(std::uint16_t port, const HeaderStream& stream,
                          std::size_t batch, std::size_t first_batch,
                          std::int64_t start_ns, const std::atomic<bool>& stop);

/// Classifies every header of `stream` once over a fresh connection, with
/// no update in flight, so each answer must equal its reference.
AnswerChecker verify_wire(std::uint16_t port, const HeaderStream& stream);

}  // namespace perfbench
