#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t d = t_ns - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::vector<double> slice_rates_mpps(const std::vector<std::int64_t>& done_ns,
                                     double per_item, std::int64_t from_ns,
                                     std::int64_t to_ns, int slices) {
  if (slices < 1 || to_ns <= from_ns) throw BenchError("empty measurement window");
  const double width = static_cast<double>(to_ns - from_ns) / slices;
  std::vector<double> rate(static_cast<std::size_t>(slices), 0.0);
  for (const std::int64_t t : done_ns) {
    if (t < from_ns || t >= to_ns) continue;
    const auto s = static_cast<std::size_t>(static_cast<double>(t - from_ns) / width);
    rate[std::min(s, rate.size() - 1)] += per_item;
  }
  for (double& r : rate) r = r / (width * 1e-9) / 1e6;
  return rate;
}

void RunResult::add(std::string name, double value, std::string unit,
                    std::uint64_t samples) {
  if (!std::isfinite(value)) value = 0;
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void RunResult::print(const std::vector<std::string>& json_names) const {
  std::printf("%-30s %22s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-30s %22.6f  %-8s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string out = "{\"correct\": ";
  out += errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_names) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics.end()) throw BenchError("metric not measured: " + name);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num(it->value) + ", \"unit\": \"" +
           it->unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t batch,
                            std::uint32_t parent) {
  spans_.push_back({name, parent, batch, now_ns(), 0, 1});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::int64_t Tracer::end(std::uint32_t id, std::uint64_t count) {
  spans_[id].end = now_ns();
  spans_[id].count = count;
  return spans_[id].end - spans_[id].start;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  f << "id,name,parent,batch,start_ns,end_ns,count\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << i << ',' << s.name << ','
      << (s.parent == kNoParent ? std::string("-") : std::to_string(s.parent)) << ','
      << s.batch << ',' << s.start << ',' << s.end << ',' << s.count << '\n';
  }
  if (!f) throw BenchError("cannot write spans to " + path);
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json j;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      skip_ws();
      if (peek('}')) return j;
      while (true) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        j.fields[key] = value();
        skip_ws();
        if (peek('}')) return j;
        expect(',');
      }
    }
    if (c == '[') {
      ++pos_;
      skip_ws();
      if (peek(']')) return j;
      while (true) {
        j.items.push_back(value());
        skip_ws();
        if (peek(']')) return j;
        expect(',');
      }
    }
    if (c == '"') {
      j.str = string();
      return j;
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      j.b = true;
      return j;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return j;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return j;
    }
    std::size_t used = 0;
    try {
      j.num = std::stod(s_.substr(pos_, 40), &used);
    } catch (const std::exception&) {
      fail("bad number");
    }
    pos_ += used;
    return j;
  }

  void finish() {
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes");
  }

 private:
  [[noreturn]] void fail(const char* why) {
    throw BenchError(std::string("STATS JSON: ") + why + " at byte " +
                     std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!peek(c)) fail("unexpected character");
  }
  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // StatsSnapshot emits no escapes
      if (pos_ < s_.size()) out += s_[pos_++];
    }
    expect('"');
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::uint64_t proc_status_kb(int pid, const char* key) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(f, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream in(line.substr(prefix.size()));
      std::uint64_t kb = 0;
      in >> kb;
      return kb;
    }
  }
  throw BenchError("no " + std::string(key) + " in " + path);
}

}  // namespace

Json Json::parse(const std::string& text) {
  JsonParser p(text);
  Json j = p.value();
  p.finish();
  return j;
}

const Json& Json::at(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) throw BenchError("STATS JSON has no field " + key);
  return it->second;
}

std::uint64_t proc_rss_bytes() {
  std::ifstream f("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Rss:", 0) == 0) {
      std::istringstream in(line.substr(4));
      std::uint64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
  }
  throw BenchError("no Rss in /proc/self/smaps_rollup");
}

std::uint64_t proc_hwm_bytes(int pid) { return proc_status_kb(pid, "VmHWM") * 1024; }

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) throw BenchError("cannot write " + path);
}

bool file_exists(const std::string& path) { return std::filesystem::exists(path); }

void make_dirs(const std::string& path) { std::filesystem::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
