// Shared plumbing of the perfbench program: clocks and statistics, the
// result printer, a span recorder for traced runs, a small JSON reader
// for rfipcd's STATS reply, and /proc readers for resident memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock; every timestamp in a run uses it so
/// client, sender and checker windows compare directly.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
void sleep_until_ns(std::int64_t t_ns);

/// q-quantile (0..1) of `v` by linear interpolation; v is sorted in place.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Rates at which items completed (per_item packets each, timestamps in
/// done_ns) over equal slices of [from_ns, to_ns], in Mpkt/s.
std::vector<double> slice_rates_mpps(const std::vector<std::int64_t>& done_ns,
                                     double per_item, std::int64_t from_ns,
                                     std::int64_t to_ns, int slices);

/// Touches room for n elements and leaves v empty with that capacity.
template <typename T>
void prefault(std::vector<T>& v, std::size_t n) {
  v.assign(n, T{});
  v.clear();
}

/// Thrown for a failed correctness check or an unusable environment;
/// main() turns it into a non-zero exit without a result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one invocation reports. `errors` are failed correctness checks:
/// any makes `correct` false. `failed` counts wrong, refused or failed
/// operations out of `attempted`.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit, std::uint64_t samples);
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  /// The human-readable table (every metric with unit and sample count),
  /// then the one-line JSON object that must be the last stdout line.
  void print(const std::vector<std::string>& json_names) const;
};

/// Open-loop latency samples: each operation is timed from the moment
/// it was due, and `lag` records how late the sender actually sent it.
struct OpenLoopLog {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Span recorder for traced runs. Spans live in memory and are written
/// out (one CSV row each, with the parent span's id) by write().
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  Tracer() { spans_.reserve(1 << 20); }

  std::uint32_t begin(const char* name, std::uint64_t batch,
                      std::uint32_t parent = kNoParent);
  /// Closes span `id`; `count` is how many calls or items it covered.
  /// Returns the span's duration in ns.
  std::int64_t end(std::uint32_t id, std::uint64_t count = 1);

  /// Writes every span as CSV: id,name,parent,batch,start_ns,end_ns,count.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t batch;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t count;
  };
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, std::uint64_t batch,
            std::uint32_t parent = Tracer::kNoParent)
      : t_(t), id_(t != nullptr ? t->begin(name, batch, parent) : 0) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->end(id_, count_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_count(std::uint64_t n) { count_ = n; }
  std::uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::uint32_t id_;
  std::uint64_t count_ = 1;
};

/// Minimal JSON value (enough for StatsSnapshot::to_json()).
struct Json {
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  static Json parse(const std::string& text);
  /// Member lookup; throws BenchError when absent.
  const Json& at(const std::string& key) const;
  double number(const std::string& key) const { return at(key).num; }
  std::uint64_t u64(const std::string& key) const {
    return static_cast<std::uint64_t>(at(key).num);
  }
};

/// Resident set of this process in bytes, counted page by page from
/// /proc/self/smaps_rollup. VmRSS and VmHWM in /proc/PID/status come
/// from per-CPU counters that can lag by a few hundred KiB, more than a
/// small classifier's whole footprint.
std::uint64_t proc_rss_bytes();
/// Peak resident set (VmHWM) of process `pid` (0: this one), in bytes.
std::uint64_t proc_hwm_bytes(int pid = 0);

void write_file(const std::string& path, const std::string& bytes);
bool file_exists(const std::string& path);
/// mkdir -p; the run directory lives under the checkout's build tree.
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace perfbench
