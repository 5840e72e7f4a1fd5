// Per-layer replays for traced runs: each drives one layer's public header
// with the shapes its workload feeds it (N, value planes, pending events,
// latency spread, instance counts, view size) and times it from outside.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Per-cycle work the traced run measured, which weights each replay when
/// the replays are summed against the end-to-end cycle time.
struct CycleWork {
  double cycle_ms_mean = 0.0;          ///< mean host ms per cycle (or Δt)
  double population = 0.0;             ///< mean nodes per cycle
  double messages_per_cycle = 0.0;
  double draws_per_cycle = 0.0;        ///< master-stream draws (audit ledger)
};

/// Runs every layer replay (under spans named replay.<layer>) and adds the
/// per-layer metrics, including sim.run.self_ms_per_cycle: the mean cycle
/// time minus what the replays account for.
void run_layer_replays(const LayerShape& shape, const CycleWork& work,
                       std::uint64_t seed, Tracer& tracer, Metrics& out);

}  // namespace perfbench
