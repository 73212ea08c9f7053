#include "util/cores.h"

#include <thread>

namespace rfipc::util {

std::size_t hardware_core_count() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t parallel_lanes(std::size_t items, std::size_t budget,
                           std::size_t reserved) {
  if (budget == 0) budget = hardware_core_count();
  const std::size_t available = budget > reserved ? budget - reserved : 1;
  const std::size_t lanes = items < available ? items : available;
  return lanes == 0 ? 1 : lanes;
}

}  // namespace rfipc::util
