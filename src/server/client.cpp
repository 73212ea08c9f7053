#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

namespace rfipc::server {
namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

ClassifyClient::ClassifyClient(ClientOptions opts) : opts_(opts) {
  // Token uniqueness across client instances (and across restarts of
  // the same tool) comes from seeding with real entropy; the counter
  // inside next_token() keeps them unique within an instance.
  std::random_device rd;
  rng_.seed((std::uint64_t{rd()} << 32) ^ rd());
}

ClassifyClient::~ClassifyClient() { close(); }

ClassifyClient::ClassifyClient(ClassifyClient&& other) noexcept
    : opts_(other.opts_),
      fd_(std::exchange(other.fd_, -1)),
      host_(std::move(other.host_)),
      port_(other.port_),
      ever_connected_(other.ever_connected_),
      next_id_(other.next_id_),
      last_seq_(other.last_seq_),
      status_(other.status_),
      error_(std::move(other.error_)),
      rng_(other.rng_) {}

ClassifyClient& ClassifyClient::operator=(ClassifyClient&& other) noexcept {
  if (this != &other) {
    close();
    opts_ = other.opts_;
    fd_ = std::exchange(other.fd_, -1);
    host_ = std::move(other.host_);
    port_ = other.port_;
    ever_connected_ = other.ever_connected_;
    next_id_ = other.next_id_;
    last_seq_ = other.last_seq_;
    status_ = other.status_;
    error_ = std::move(other.error_);
    rng_ = other.rng_;
  }
  return *this;
}

void ClassifyClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ClassifyClient::fail(std::string why) {
  error_ = std::move(why);
  return false;
}

ClassifyClient::Clock::time_point ClassifyClient::deadline_after(std::uint32_t ms) {
  if (ms == 0) return Clock::time_point::max();  // unbounded
  return Clock::now() + std::chrono::milliseconds(ms);
}

bool ClassifyClient::wait_io(short events, Clock::time_point deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;  // deadline passed
      timeout_ms = static_cast<int>(
          left.count() > 60'000 ? 60'000 : left.count());  // re-check belt
    }
    pollfd p{};
    p.fd = fd_;
    p.events = events;
    const int n = ::poll(&p, 1, timeout_ms);
    if (n > 0) return true;  // ready OR error/hup — let the I/O call report it
    if (n == 0) {
      if (deadline == Clock::time_point::max()) continue;
      if (Clock::now() >= deadline) return false;
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
}

bool ClassifyClient::connect_once(Clock::time_point deadline) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return fail(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    close();
    return fail("bad host address: " + host_);
  }
  if (!set_nonblocking(fd_)) {
    const std::string why = std::strerror(errno);
    close();
    return fail("fcntl O_NONBLOCK: " + why);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      const std::string why = std::strerror(errno);
      close();
      return fail("connect: " + why);
    }
    // Non-blocking connect: writable (or error) when it resolves.
    if (!wait_io(POLLOUT, deadline)) {
      close();
      return fail("connect: timed out");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 || soerr != 0) {
      close();
      return fail(std::string("connect: ") +
                  std::strerror(soerr != 0 ? soerr : errno));
    }
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ever_connected_ = true;
  error_.clear();
  return true;
}

bool ClassifyClient::connect(const std::string& host, std::uint16_t port) {
  host_ = host;
  port_ = port;
  return connect_once(deadline_after(opts_.connect_timeout_ms));
}

bool ClassifyClient::send_all(const std::uint8_t* data, std::size_t size,
                              Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (wait_io(POLLOUT, deadline)) continue;
      close();
      return fail("send: timed out");
    }
    const std::string why = std::strerror(errno);
    close();
    return fail("send: " + why);
  }
  return true;
}

bool ClassifyClient::recv_exact(std::uint8_t* dst, std::size_t want,
                                Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd_, dst + got, want - got, MSG_DONTWAIT);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;  // orderly close mid-frame
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (wait_io(POLLIN, deadline)) continue;
      errno = ETIMEDOUT;
      return false;
    }
    return false;
  }
  return true;
}

bool ClassifyClient::recv_frame(std::vector<std::uint8_t>& payload,
                                Clock::time_point deadline) {
  std::uint8_t prefix[wire::kLenPrefixBytes];
  if (!recv_exact(prefix, sizeof(prefix), deadline)) {
    const bool timed_out = errno == ETIMEDOUT;
    close();
    return fail(timed_out ? "recv: timed out" : "recv: connection closed or failed");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len < wire::kMsgHeaderBytes || len > wire::kMaxFrameBytes) {
    close();
    return fail("recv: frame length out of bounds");
  }
  payload.resize(len);
  if (!recv_exact(payload.data(), len, deadline)) {
    const bool timed_out = errno == ETIMEDOUT;
    close();
    return fail(timed_out ? "recv: timed out" : "recv: truncated frame");
  }
  return true;
}

bool ClassifyClient::roundtrip_once(const wire::Request& req, wire::Response& rsp,
                                    Clock::time_point deadline) {
  status_ = wire::Status::kOk;
  if (fd_ < 0) return fail("not connected");
  send_buf_.clear();
  wire::encode_request(req, send_buf_);
  if (!send_all(send_buf_.data(), send_buf_.size(), deadline)) return false;
  if (!recv_frame(recv_buf_, deadline)) return false;
  std::string err;
  if (!wire::decode_response(recv_buf_, rsp, err)) {
    close();
    return fail("bad response: " + err);
  }
  if (rsp.op != req.op || rsp.id != req.id) {
    close();
    return fail("response does not match request");
  }
  status_ = rsp.status;
  if (rsp.status != wire::Status::kOk) {
    return fail(std::string(wire::status_name(rsp.status)) +
                (rsp.text.empty() ? "" : ": " + rsp.text));
  }
  return true;
}

void ClassifyClient::backoff_sleep(std::uint32_t attempt) {
  std::uint64_t delay = opts_.backoff_initial_ms;
  for (std::uint32_t i = 0; i < attempt && delay < kRetryBackoffMaxMs; ++i) delay *= 2;
  if (delay > kRetryBackoffMaxMs) delay = kRetryBackoffMaxMs;
  if (delay == 0) return;
  // Full jitter in [0, delay): retry herds decorrelate instead of
  // hammering a recovering server in lockstep.
  delay = std::uniform_int_distribution<std::uint64_t>(0, delay - 1)(rng_);
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

bool ClassifyClient::roundtrip(const wire::Request& req, wire::Response& rsp) {
  const std::uint32_t attempts = 1 + opts_.max_retries;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) backoff_sleep(attempt - 1);
    if (fd_ < 0) {
      // Reconnect only when allowed and we know where to go.
      if (!opts_.auto_reconnect || !ever_connected_) {
        return fail(error_.empty() ? "not connected" : error_);
      }
      if (!connect_once(deadline_after(opts_.connect_timeout_ms))) continue;
    }
    if (roundtrip_once(req, rsp, deadline_after(opts_.request_timeout_ms))) {
      return true;
    }
    // kShed is an explicit "retry later"; transport failures closed the
    // fd above and retry via reconnect. Anything else understood-and-
    // refused (kBadRequest/kError) — retrying cannot change it.
    if (fd_ >= 0 && status_ != wire::Status::kShed) return false;
  }
  return false;
}

std::uint64_t ClassifyClient::next_token() {
  // Never 0 (0 = "no token" on the wire).
  std::uint64_t t;
  do {
    t = rng_();
  } while (t == 0);
  return t;
}

bool ClassifyClient::ping() {
  wire::Request req;
  req.op = wire::Op::kPing;
  req.id = next_id_++;
  wire::Response rsp;
  return roundtrip(req, rsp);
}

bool ClassifyClient::classify(std::span<const net::HeaderBits> headers,
                              std::vector<std::uint64_t>& best) {
  wire::Request req;
  req.op = wire::Op::kClassifyBatch;
  req.id = next_id_++;
  req.headers.assign(headers.begin(), headers.end());
  wire::Response rsp;
  if (!roundtrip(req, rsp)) return false;
  if (rsp.best.size() != headers.size()) {
    return fail("classify reply count mismatch");
  }
  best = std::move(rsp.best);
  return true;
}

bool ClassifyClient::insert_rule(std::uint64_t index, const ruleset::Rule& rule) {
  wire::Request req;
  req.op = wire::Op::kInsertRule;
  req.id = next_id_++;
  req.index = index;
  req.rule = rule;
  req.token = next_token();  // same token on every retry of THIS update
  wire::Response rsp;
  if (!roundtrip(req, rsp)) return false;
  last_seq_ = rsp.seq;
  return true;
}

bool ClassifyClient::erase_rule(std::uint64_t index) {
  wire::Request req;
  req.op = wire::Op::kEraseRule;
  req.id = next_id_++;
  req.index = index;
  req.token = next_token();
  wire::Response rsp;
  if (!roundtrip(req, rsp)) return false;
  last_seq_ = rsp.seq;
  return true;
}

bool ClassifyClient::stats_json(std::string& json) {
  wire::Request req;
  req.op = wire::Op::kStats;
  req.id = next_id_++;
  wire::Response rsp;
  if (!roundtrip(req, rsp)) return false;
  json = std::move(rsp.text);
  return true;
}

}  // namespace rfipc::server
