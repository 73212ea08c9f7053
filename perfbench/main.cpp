// perfbench — the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --run-dir DIR [--small] [--corrupt-reference]
//
// Generates every input from the seed, runs one workload, checks the
// answers, and prints a metric table followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// a correctness check fails and 2 when the run cannot be made.
#include <cstdio>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw BenchError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--bin-dir") {
      o.bin_dir = value();
    } else if (a == "--run-dir") {
      o.run_dir = value();
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else {
      throw BenchError("unknown argument " + a);
    }
  }
  if (o.bin_dir.empty() || o.run_dir.empty()) {
    throw BenchError("--bin-dir and --run-dir are required");
  }
  if (!(o.seconds >= 1 && o.seconds <= 60)) throw BenchError("--seconds must be within 1..60");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    remove_tree(o.run_dir);
    make_dirs(o.run_dir);
    RunResult r;
    if (o.workload == "inproc-uniform" || o.workload == "inproc-large-n") {
      r = run_inproc(o);
    } else if (o.workload == "capture-skewed") {
      r = run_capture_skewed(o);
    } else if (o.workload == "wire-updates") {
      r = run_wire_updates(o);
    } else {
      throw BenchError("unknown workload '" + o.workload +
                       "' (inproc-uniform, capture-skewed, wire-updates, inproc-large-n)");
    }
    r.add("failed_frac", ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
          "ratio", r.attempted);
    r.print(o.trace ? per_layer_names() : end_to_end_names());
    return r.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
