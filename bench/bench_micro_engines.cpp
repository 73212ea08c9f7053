// Software micro-benchmarks (google-benchmark): classification rates of
// the functional engines. These measure the SIMULATION's speed on the
// host CPU — not the modeled FPGA throughput (that is Figure 4) — and
// are useful for regression-tracking the library itself.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "engines/common/factory.h"
#include "net/header.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"

namespace {

using namespace rfipc;

struct Fixture {
  ruleset::RuleSet rules;
  std::vector<net::HeaderBits> packets;

  explicit Fixture(std::size_t n) : rules(ruleset::generate_firewall(n)) {
    ruleset::TraceConfig tc;
    tc.size = 1024;
    for (const auto& t : ruleset::generate_trace(rules, tc)) {
      packets.emplace_back(t);
    }
  }
};

void classify_loop(benchmark::State& state, const engines::ClassifierEngine& engine,
                   const std::vector<net::HeaderBits>& packets) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = engine.classify(packets[i]);
    benchmark::DoNotOptimize(r.best);
    i = (i + 1) & 1023;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Engine(benchmark::State& state, const char* spec) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto engine = engines::make_engine(spec, fx.rules);
  classify_loop(state, *engine, fx.packets);
}

void BM_Linear(benchmark::State& state) { BM_Engine(state, "linear"); }
void BM_StrideBV3(benchmark::State& state) { BM_Engine(state, "stridebv:3"); }
void BM_StrideBV4(benchmark::State& state) { BM_Engine(state, "stridebv:4"); }
void BM_StrideBVRE(benchmark::State& state) { BM_Engine(state, "stridebv:4i"); }
void BM_Tcam(benchmark::State& state) { BM_Engine(state, "tcam"); }
void BM_TcamPart(benchmark::State& state) { BM_Engine(state, "tcam-part:4"); }
void BM_HiCuts(benchmark::State& state) { BM_Engine(state, "hicuts"); }
void BM_BvDecomp(benchmark::State& state) { BM_Engine(state, "bv"); }
void BM_Abv(benchmark::State& state) { BM_Engine(state, "abv:64"); }
void BM_FsbvHybrid(benchmark::State& state) { BM_Engine(state, "fsbv-hybrid"); }

}  // namespace

BENCHMARK(BM_Linear)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_StrideBV3)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_StrideBV4)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_StrideBVRE)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_Tcam)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_TcamPart)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_HiCuts)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_BvDecomp)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_Abv)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_FsbvHybrid)->Arg(128)->Arg(512)->Arg(2048);

BENCHMARK_MAIN();
