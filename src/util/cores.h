// Core-budget helpers for the run-to-completion execution model.
//
// Every thread the process runs — reactor, update waiter, shard
// workers, benchmark drivers — should be derived from ONE core budget
// so co-resident subsystems cannot silently oversubscribe a small
// machine (the 1-core CI box turns oversubscription into a 4x
// slowdown; see EXPERIMENTS.md). hardware_core_count() is the default
// budget; parallel_lanes() turns (budget, reserved, work items) into
// the number of lanes that may actually run concurrently, clamped to
// at least one so a starved budget degrades to serial rather than
// failing.
#pragma once

#include <cstddef>

namespace rfipc::util {

/// std::thread::hardware_concurrency() clamped to >= 1 (the standard
/// permits 0 for "unknown").
std::size_t hardware_core_count();

/// How many lanes of `items` work a subsystem may run concurrently:
/// min(items, budget - reserved), clamped to >= 1. `budget` == 0 means
/// hardware_core_count(); `reserved` counts co-resident threads
/// (reactor, waiters) already spending cores.
std::size_t parallel_lanes(std::size_t items, std::size_t budget,
                           std::size_t reserved);

}  // namespace rfipc::util
