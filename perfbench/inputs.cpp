#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "net/packet_parser.h"
#include "ruleset/generator.h"
#include "ruleset/parser.h"
#include "ruleset/trace.h"
#include "util/prng.h"

namespace perfbench {

using namespace rfipc;

namespace {

std::uint64_t first_match(const ruleset::RuleSet& rules, const net::FiveTuple& t) {
  const auto m = rules.first_match(t);
  return m ? *m : kNone;
}

/// References for `tuples`, split over the cores: a linear scan of a
/// 131072-rule set is the slowest part of input generation.
std::vector<std::uint64_t> references(const ruleset::RuleSet& rules,
                                      const std::vector<net::FiveTuple>& tuples) {
  std::vector<std::uint64_t> out(tuples.size());
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < tuples.size(); i += workers) {
        out[i] = first_match(rules, tuples[i]);
      }
    });
  }
  for (auto& t : pool) t.join();
  return out;
}

std::string key_of(const net::HeaderBits& h) {
  return std::string(h.bytes().begin(), h.bytes().end());
}

}  // namespace

RulesInput make_rules(const std::string& dir, std::size_t n, std::uint64_t seed) {
  ruleset::GeneratorConfig g;
  g.mode = ruleset::GeneratorMode::kFirewall;
  g.size = n;
  g.seed = seed;
  RulesInput in;
  in.path = dir + "/rules-" + std::to_string(n) + ".txt";
  write_file(in.path, ruleset::generate(g).to_text());
  in.rules = ruleset::load_ruleset(in.path);
  if (in.rules.size() != n) throw BenchError("rules file did not read back");
  return in;
}

HeaderStream make_uniform_trace(const ruleset::RuleSet& rules, std::size_t n,
                                std::uint64_t seed) {
  ruleset::TraceConfig t;
  t.size = n;
  t.seed = seed;
  const auto tuples = ruleset::generate_trace(rules, t);
  HeaderStream s;
  s.headers.reserve(n);
  for (const auto& tuple : tuples) s.headers.emplace_back(tuple);
  s.reference = references(rules, tuples);
  return s;
}

FrameInput make_skewed_frames(const std::string& dir, const ruleset::RuleSet& rules,
                              std::size_t frames, std::size_t flows,
                              std::uint64_t seed) {
  // Distinct flows drawn from the rules (so most frames match a rule).
  std::vector<net::FiveTuple> flow;
  std::unordered_set<std::string> seen;
  for (std::uint64_t round = 0; flow.size() < flows; ++round) {
    if (round > 64) throw BenchError("cannot draw enough distinct flows");
    ruleset::TraceConfig t;
    t.size = flows;
    t.seed = seed + round * 7919;
    for (const auto& tuple : ruleset::generate_trace(rules, t)) {
      if (flow.size() < flows && seen.insert(key_of(net::HeaderBits(tuple))).second) {
        flow.push_back(tuple);
      }
    }
  }

  // Zipf(s = 1.1) popularity over a random ranking of the flows.
  util::Xoshiro256 rng(seed ^ 0x5eedf10eULL);
  std::vector<std::size_t> rank(flows);
  for (std::size_t i = 0; i < flows; ++i) rank[i] = i;
  std::shuffle(rank.begin(), rank.end(), rng);
  std::vector<double> cdf(flows);
  double acc = 0;
  for (std::size_t r = 0; r < flows; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf[r] = acc;
  }

  FrameInput in;
  in.pcap.link_type = net::kLinktypeEthernet;
  in.pcap.records.reserve(frames);
  std::unordered_map<std::string, std::uint64_t> memo;
  for (std::size_t f = 0; f < frames; ++f) {
    const double u = rng.uniform01() * acc;
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const net::FiveTuple& tuple = flow[rank[std::min(r, flows - 1)]];

    // IMIX-like wire sizes 64/576/1500 bytes in 7:4:1, every 16th frame
    // VLAN-tagged, and every 64th frame one the parser must reject.
    const std::uint64_t pick = rng.below(12);
    const std::size_t size = pick < 7 ? 64 : pick < 11 ? 576 : 1500;
    net::BuildOptions opt;
    opt.vlan = f % 16 == 15;
    opt.vlan_id = static_cast<std::uint16_t>(1 + f % 4000);
    const std::size_t l4 = tuple.protocol == 6 ? 20 : tuple.protocol == 17 ? 8 : 0;
    const std::size_t headers = 14 + (opt.vlan ? 4 : 0) + 20 + l4;
    opt.payload_len = size > headers ? size - headers : 0;
    std::vector<std::uint8_t> bytes = net::build_packet(tuple, opt);
    const bool reject = f % 64 == 40;
    if (reject) {
      if ((f / 64) % 2 == 0) {
        bytes.resize(14 + 12);  // truncated inside the IPv4 header
      } else {
        bytes[12] = 0x86;  // IPv6 ethertype: not IPv4
        bytes[13] = 0xdd;
      }
      ++in.rejects;
    }

    const net::ParsedPacket p = net::parse_frame(bytes, in.pcap.link_type);
    if (p.ok() == reject) throw BenchError("frame generator produced a wrong frame");
    if (p.ok()) {
      const net::HeaderBits h(p.tuple);
      auto it = memo.find(key_of(h));
      if (it == memo.end()) it = memo.emplace(key_of(h), first_match(rules, p.tuple)).first;
      in.parsed.headers.push_back(h);
      in.parsed.reference.push_back(it->second);
      if (it->second != kNone &&
          rules[it->second].action.kind == ruleset::Action::Kind::kForward) {
        ++in.forwarded_per_pass;
      }
    }
    net::PcapRecord rec;
    rec.ts_sec = static_cast<std::uint32_t>(f / 1000000);
    rec.ts_usec = static_cast<std::uint32_t>(f % 1000000);
    rec.frame = std::move(bytes);
    in.pcap.records.push_back(std::move(rec));
  }
  in.distinct_flows = memo.size();
  in.pcap_path = dir + "/skewed.pcap";
  if (!net::save_pcap(in.pcap_path, in.pcap)) throw BenchError("cannot write pcap");
  return in;
}

UpdateScript make_update_script(const ruleset::RuleSet& rules,
                                const HeaderStream& traffic, std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0x0bda7e5ULL);
  UpdateScript s;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 100) throw BenchError("cannot find a rule no packet matches");
    ruleset::Rule r;
    r.src_ip = {net::Ipv4Addr{static_cast<std::uint32_t>(rng())}, 32};
    r.dst_ip = {net::Ipv4Addr{static_cast<std::uint32_t>(rng())}, 32};
    r.src_port = net::PortRange::exactly(static_cast<std::uint16_t>(rng.below(65536)));
    r.dst_port = net::PortRange::exactly(static_cast<std::uint16_t>(rng.below(65536)));
    r.protocol = net::ProtocolSpec::exactly(std::uint8_t{6});
    r.action = ruleset::Action::forward(1);
    const bool hit = std::any_of(traffic.headers.begin(), traffic.headers.end(),
                                 [&](const net::HeaderBits& h) {
                                   return r.matches(h.unpack());
                                 });
    if (!hit) {
      s.rule = r;
      break;
    }
  }
  s.index.resize(1 << 16);
  for (auto& i : s.index) i = static_cast<std::uint32_t>(rng.below(rules.size()));
  return s;
}

FrameInput frames_from_headers(const ruleset::RuleSet& rules, const HeaderStream& keys) {
  FrameInput in;
  in.pcap.link_type = net::kLinktypeEthernet;
  std::vector<net::FiveTuple> parsed;
  for (const net::HeaderBits& h : keys.headers) {
    net::PcapRecord rec;
    rec.frame = net::build_packet(h.unpack());
    const net::ParsedPacket p = net::parse_frame(rec.frame, in.pcap.link_type);
    if (!p.ok()) throw BenchError("a built frame failed to parse");
    parsed.push_back(p.tuple);
    in.pcap.records.push_back(std::move(rec));
  }
  in.parsed.reference = references(rules, parsed);
  std::unordered_set<std::string> flows;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    in.parsed.headers.emplace_back(parsed[i]);
    flows.insert(key_of(in.parsed.headers.back()));
    const std::uint64_t ref = in.parsed.reference[i];
    if (ref != kNone && rules[ref].action.kind == ruleset::Action::Kind::kForward) {
      ++in.forwarded_per_pass;
    }
  }
  in.distinct_flows = flows.size();
  return in;
}

std::size_t flow_cache_slots(std::size_t flows) {
  std::size_t n = 64;
  while (n < 2 * flows) n <<= 1;
  return n;
}

void corrupt_reference(HeaderStream& s) {
  if (s.reference.empty()) return;
  // Every generated packet matches the trailing default rule, so "no
  // match" is wrong for each of them and no update can explain it.
  s.reference[0] = kNone;
}

void AnswerChecker::check(std::span<const std::uint64_t> answers,
                          std::span<const std::uint64_t> reference, std::int64_t a_ns,
                          std::int64_t b_ns) {
  checked_ += answers.size();
  ShiftedCall call{a_ns, b_ns, kNone, 0};
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (answers[i] == reference[i]) continue;
    if (reference[i] != kNone && answers[i] == reference[i] + 1) {
      call.min_ref = std::min(call.min_ref, reference[i]);
      ++call.shifted;
    } else {
      ++bad_;
    }
  }
  if (call.shifted > 0) shifted_.push_back(call);
}

void AnswerChecker::merge(const AnswerChecker& other) {
  shifted_.insert(shifted_.end(), other.shifted_.begin(), other.shifted_.end());
  bad_ += other.bad_;
  checked_ += other.checked_;
}

std::uint64_t AnswerChecker::wrong(const std::vector<InsertWindow>& windows) const {
  std::uint64_t wrong = bad_;
  for (const ShiftedCall& c : shifted_) {
    // A shifted answer is explained by any overlapping insert at or
    // above its reference winner, so the lowest overlapping insert index
    // decides the whole call. Window ends never decrease: walk back from
    // the last window that began before the call ended.
    std::uint64_t lowest = kNone;
    auto it = std::upper_bound(
        windows.begin(), windows.end(), c.b,
        [](std::int64_t t, const InsertWindow& w) { return t < w.from_ns; });
    while (it != windows.begin()) {
      --it;
      if (it->to_ns < c.a) break;
      lowest = std::min<std::uint64_t>(lowest, it->index);
    }
    if (lowest == kNone || c.min_ref < lowest) wrong += c.shifted;
  }
  return wrong;
}

void normalize_windows(std::vector<InsertWindow>& w) {
  std::sort(w.begin(), w.end(), [](const InsertWindow& x, const InsertWindow& y) {
    return x.from_ns < y.from_ns;
  });
  for (std::size_t i = 1; i < w.size(); ++i) w[i].to_ns = std::max(w[i].to_ns, w[i - 1].to_ns);
}

}  // namespace perfbench
