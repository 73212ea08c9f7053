// Reusable scratch for the batch classification fast paths.
//
// The batch contract is no heap traffic in steady state: a
// classify_batch hoists its working state into a ScratchArena that
// keeps its capacity across calls (BitVector::assign_zeros and
// vector::resize reuse the buffers), then recycles it across the whole
// span. The arena is plain data — users take whichever members they
// need and leave the rest empty — so one definition serves StrideBV
// (entry vector + stage row pointers) and the runtime's flow-cache miss
// compaction.
//
// Arenas are not thread-safe. The convention is one arena per thread
// per user: StrideBV keeps a thread_local arena (a lane calls each band
// in turn, never two at once), and the runtime borrows one from its
// pooled per-call scratch. That keeps the batch path re-entrant under
// the shard workers' fan-out, where several batches run concurrently
// on different arenas.
#pragma once

#include <cstdint>
#include <vector>

#include "net/header.h"
#include "util/bitvector.h"

namespace rfipc::engines {

struct ScratchArena {
  /// Partial-match entry vector, reused across packets.
  util::BitVector entry_bv;
  /// Per-stage stage-memory row pointers for the packet being ANDed.
  std::vector<const std::uint64_t*> rows;
  /// Compacted headers (runtime flow-cache miss path).
  std::vector<net::HeaderBits> headers;
  /// Indices back into the caller's span for the compacted headers.
  std::vector<std::size_t> indices;
};

}  // namespace rfipc::engines
