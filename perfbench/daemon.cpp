#include "daemon.h"

#include <algorithm>
#include <csignal>
#include <fcntl.h>
#include <fstream>
#include <limits>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "server/client.h"

namespace perfbench {

using namespace rfipc;

namespace {

server::ClientOptions strict_client() {
  // Failures are counted, not retried away.
  server::ClientOptions o;
  o.max_retries = 0;
  o.auto_reconnect = false;
  o.request_timeout_ms = 10'000;
  return o;
}

std::string log_tail(const std::string& path) {
  std::ifstream f(path);
  std::string all((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  return all.size() > 600 ? all.substr(all.size() - 600) : all;
}

}  // namespace

Daemon::Daemon(const std::string& binary, std::vector<std::string> args,
               const std::string& dir)
    : log_path_(dir + "/rfipcd.log") {
  const std::string port_file = dir + "/port";
  ::unlink(port_file.c_str());
  args.insert(args.begin(), binary);
  args.push_back("--port-file");
  args.push_back(port_file);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::int64_t t0 = now_ns();
  pid_ = ::fork();
  if (pid_ < 0) throw BenchError("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  while (!file_exists(port_file)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw BenchError("rfipcd exited during start-up: " + log_tail(log_path_));
    }
    if (now_ns() - t0 > 120'000'000'000LL) {
      stop();
      throw BenchError("rfipcd did not start within 120 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  setup_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  // The port file may exist a moment before its line is complete.
  for (int i = 0; i < 10000 && port_ == 0; ++i) {
    std::ifstream f(port_file);
    std::string line;
    if (std::getline(f, line) && !f.eof()) port_ = static_cast<std::uint16_t>(std::stoul(line));
    if (port_ == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (port_ == 0) {
    stop();
    throw BenchError("rfipcd port file stayed empty");
  }
  // rfipcd writes the port file before it installs its SIGTERM handler;
  // one answered request means it is serving, so a stop() drains it.
  stats();
}

Daemon::~Daemon() { stop(); }

Json Daemon::stats() {
  if (stats_client_ == nullptr) {
    stats_client_ = std::make_unique<server::ClassifyClient>(strict_client());
    if (!stats_client_->connect("127.0.0.1", port_)) {
      throw BenchError("STATS connect failed: " + stats_client_->error());
    }
  }
  std::string json;
  if (!stats_client_->stats_json(json)) {
    throw BenchError("STATS failed: " + stats_client_->error());
  }
  return Json::parse(json);
}

bool Daemon::stop() {
  stats_client_.reset();
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string rfipcd_path(const Options& o) { return o.bin_dir + "/rfipcd"; }

std::vector<double> daemon_setups(const Options& o, const std::vector<std::string>& args,
                                  int count, const std::function<void(Daemon&)>& probe) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    const std::string dir = o.run_dir + "/setup-" + std::to_string(i);
    make_dirs(dir);
    std::vector<std::string> a = args;
    a.push_back("--journal");
    a.push_back(dir + "/journal");
    Daemon d(rfipcd_path(o), a, dir);
    out.push_back(d.setup_s());
    if (i == 0 && probe) probe(d);
    if (!d.stop()) throw BenchError("rfipcd did not drain cleanly after a set-up sample");
    remove_tree(dir);
  }
  return out;
}

void observe_stats(const Json& st, Observed& seen) {
  const Json& cache = st.at("cache");
  const double hits = cache.number("hits");
  const double lookups = hits + cache.number("misses");
  const double packets = std::max(st.number("packets"), 1.0);
  const double batches = std::max(st.number("batches"), 1.0);
  seen.hit_frac = lookups > 0 ? hits / lookups : 0;
  seen.evictions_per_kpkt = cache.number("evictions") * 1000.0 / packets;
  for (const Json& s : st.at("shards").items) {
    seen.shard_p99_us = std::max(seen.shard_p99_us, s.number("p99_ns") * 1e-3);
  }
  seen.parks_per_batch = 0;
  seen.ring_stalls_per_batch = 0;
  for (const Json& w : st.at("workers").items) {
    seen.parks_per_batch += w.number("parks") / batches;
    seen.ring_stalls_per_batch += w.number("ring_stalls") / batches;
  }
  seen.ops_per_swap =
      st.number("coalesced_ops") / std::max(st.number("snapshot_swaps"), 1.0);
  const Json& persist = st.at("persist");
  seen.fsyncs_per_update =
      persist.number("fsyncs") / std::max(persist.number("records_appended"), 1.0);
  const Json& server = st.at("server");
  seen.shed_frac = server.number("shed") / std::max(server.number("requests"), 1.0);
}

void check_daemon(const Json& st, std::uint64_t acked_updates, RunResult& r) {
  const Json& cache = st.at("cache");
  r.check(cache.u64("hits") + cache.u64("misses") == st.u64("packets"),
          "cache hits + misses != packets that consulted the cache");
  r.check(st.at("persist").u64("last_seq") == acked_updates,
          "journal last_seq " + std::to_string(st.at("persist").u64("last_seq")) +
              " != acked updates " + std::to_string(acked_updates));
  r.check(st.at("server").u64("decode_errors") == 0, "server reported decode errors");
  r.check(!st.at("degraded").b, "a shard was quarantined");
}

UpdateRun send_updates_wire(std::uint16_t port, const UpdateScript& script,
                            double rate, std::int64_t start_ns, std::int64_t stop_ns) {
  UpdateRun run;
  server::ClassifyClient c(strict_client());
  if (!c.connect("127.0.0.1", port)) throw BenchError("update client: " + c.error());
  const double period_ns = 1e9 / rate;
  InsertWindow open;
  for (std::uint64_t k = 0;; ++k) {
    const auto due = start_ns + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
    if (due >= stop_ns && script.is_insert(k)) break;
    sleep_until_ns(due);
    const std::int64_t sent = now_ns();
    const std::uint32_t index = script.index_of(k);
    const bool ok = script.is_insert(k) ? c.insert_rule(index, script.rule)
                                        : c.erase_rule(index);
    const std::int64_t acked = now_ns();
    ++run.log.attempted;
    run.log.lag_us.push_back(static_cast<double>(sent - due) * 1e-3);
    if (ok) {
      ++run.acked;
      run.log.latency_us.push_back(static_cast<double>(acked - due) * 1e-3);
    } else {
      ++run.log.failed;
      if (!c.connected() && !c.connect("127.0.0.1", port)) {
        throw BenchError("update client lost its connection: " + c.error());
      }
    }
    if (script.is_insert(k)) {
      open = {sent, 0, index};
    } else {
      open.to_ns = ok ? acked : std::numeric_limits<std::int64_t>::max();
      run.windows.push_back(open);
    }
  }
  return run;
}

std::vector<double> ClassifyRun::latency_in(std::int64_t from, std::int64_t to) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < done_ns.size(); ++i) {
    if (done_ns[i] >= from && done_ns[i] <= to) out.push_back(latency_us[i]);
  }
  return out;
}

ClassifyRun classify_wire(std::uint16_t port, const HeaderStream& stream,
                          std::size_t batch, std::size_t first_batch,
                          std::int64_t start_ns, const std::atomic<bool>& stop) {
  ClassifyRun run;
  server::ClassifyClient c(strict_client());
  if (!c.connect("127.0.0.1", port)) throw BenchError("classify client: " + c.error());
  const std::size_t batches = stream.headers.size() / batch;
  if (batches == 0) throw BenchError("classify stream shorter than one batch");
  std::vector<std::uint64_t> best;
  sleep_until_ns(start_ns);
  for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const std::size_t off = ((first_batch + k) % batches) * batch;
    const std::int64_t a = now_ns();
    const bool ok = c.classify({stream.headers.data() + off, batch}, best);
    const std::int64_t b = now_ns();
    if (!ok || best.size() != batch) {
      ++run.failed_requests;
      if (!c.connected() && !c.connect("127.0.0.1", port)) {
        throw BenchError("classify client lost its connection: " + c.error());
      }
      continue;
    }
    run.checker.check(best, {stream.reference.data() + off, batch}, a, b);
    run.done_ns.push_back(b);
    run.latency_us.push_back(static_cast<double>(b - a) * 1e-3);
  }
  return run;
}

AnswerChecker verify_wire(std::uint16_t port, const HeaderStream& stream) {
  AnswerChecker checker;
  server::ClassifyClient c(strict_client());
  if (!c.connect("127.0.0.1", port)) throw BenchError("verify client: " + c.error());
  std::vector<std::uint64_t> best;
  for (std::size_t off = 0; off < stream.headers.size(); off += 256) {
    const std::size_t n = std::min<std::size_t>(256, stream.headers.size() - off);
    if (!c.classify({stream.headers.data() + off, n}, best) || best.size() != n) {
      throw BenchError("verification request failed: " + c.error());
    }
    checker.check(best, {stream.reference.data() + off, n}, 0, 0);
  }
  return checker;
}

}  // namespace perfbench
