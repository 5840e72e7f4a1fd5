// The four benchmark workloads. Each builds one Simulation through
// SimulationBuilder and drives it epoch by epoch; every Simulation call is
// timed (and, in traced runs, wrapped in a span) from out here, and every
// epoch is checked against the oracles between calls, off the clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aggregate/aggregate.hpp"
#include "common.hpp"
#include "oracles.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

/// What one epoch cost and whether it passed.
struct EpochStats {
  double host_s = 0.0;       ///< seconds inside run_cycle / run_time
  double node_cycles = 0.0;  ///< Σ population over the epoch's cycles
  std::vector<double> cycle_ms;    ///< per cycle (or Δt)
  std::vector<double> restart_ms;  ///< cycles that contain an epoch restart
  double messages = 0.0;     ///< messages sent (2 per completed exchange on
                             ///< the cycle engine)
  double churn_ops = 0.0;    ///< joins + departures the schedule applied
  double instances = 0.0;    ///< size estimation: counting instances started
  oracle::Verdict verdict;
};

/// The shapes the layer replays reuse: what the workload feeds each layer.
struct LayerShape {
  std::size_t n = 0;
  std::vector<epiagg::Combiner> combiners;  ///< one per value plane
  bool event_engine = false;
  double latency_hi = 0.0;       ///< one-way latency bound, Δt (0 = instant)
  double instances = 4.0;        ///< counting instances per InstanceSet
  bool counting = false;         ///< InstanceSet staging + arena entered
  bool membership = false;       ///< live Newscast entered
  std::size_t view = 20;
  std::size_t warmup = 10;
};

class Workload {
public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Host seconds one epoch takes on the reference box (README). A run of
  /// `--seconds s` executes ceil(s / epoch_budget_s()) epochs, so every run
  /// of a workload does the same work whatever the host's speed.
  [[nodiscard]] virtual double epoch_budget_s() const = 0;
  /// Builds per run; setup_s is their median. Enough builds for about a
  /// second of set-up on the reference box, so that neither the cold first
  /// builds nor a slow host phase of a few hundred ms sets the median.
  [[nodiscard]] virtual std::size_t setup_repeats() const = 0;
  /// Builds a fresh simulation — the timed set-up — and resets the epoch
  /// bookkeeping to it.
  virtual epiagg::Simulation build() = 0;
  /// Runs the simulation's next epoch and checks it.
  virtual EpochStats run_epoch(epiagg::Simulation& sim, Tracer& tracer) = 0;
  [[nodiscard]] virtual LayerShape shape() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Seeds& seeds);

}  // namespace perfbench
