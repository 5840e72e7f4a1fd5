// Bit-exact fingerprints of simulation traces, for tests that pin a run's
// output to a recorded constant.
//
// A run-vs-run comparison only shows that a stream is a pure function of its
// seed; it cannot see a stream that shifted. A pinned fingerprint can: the
// FNV-1a hash covers the raw bytes of every double, so a single swapped or
// inserted draw anywhere upstream changes it.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/simulation.hpp"

namespace epiagg {

/// FNV-1a over the raw bytes of a double trace.
inline std::uint64_t fingerprint(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Appends the per-epoch fields every protocol reports: end cycle, epoch id,
/// population at start and end, counting instances, reporting nodes, and the
/// min / mean / max node estimate.
inline void append_epochs(std::vector<double>& trace,
                          const std::vector<EpochSummary>& epochs) {
  for (const EpochSummary& e : epochs) {
    trace.push_back(static_cast<double>(e.end_cycle));
    trace.push_back(static_cast<double>(e.epoch));
    trace.push_back(static_cast<double>(e.population_start));
    trace.push_back(static_cast<double>(e.population_end));
    trace.push_back(static_cast<double>(e.instances));
    trace.push_back(static_cast<double>(e.reporting));
    trace.push_back(e.est_min);
    trace.push_back(e.est_mean);
    trace.push_back(e.est_max);
  }
}

/// Appends every adaptive-epoch completion (node, epoch, time, estimate).
inline void append_adaptive(std::vector<double>& trace,
                            const std::vector<AdaptiveEpochSample>& samples) {
  for (const AdaptiveEpochSample& s : samples) {
    trace.push_back(static_cast<double>(s.node));
    trace.push_back(static_cast<double>(s.epoch));
    trace.push_back(s.completed_at);
    trace.push_back(s.approximation);
  }
}

/// fingerprint() of append_epochs(epochs) alone.
inline std::uint64_t epochs_fingerprint(const std::vector<EpochSummary>& epochs) {
  std::vector<double> trace;
  append_epochs(trace, epochs);
  return fingerprint(trace);
}

}  // namespace epiagg
