#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "aggregate/aggregator.hpp"
#include "sim/observers.hpp"
#include "workload/churn.hpp"

namespace perfbench {

namespace {

using epiagg::Simulation;
using epiagg::SimulationBuilder;

/// Times one Simulation call, under a span named `what` when tracing.
template <typename Fn>
double timed_call(Tracer& tracer, const char* what, Fn&& fn) {
  const ScopedSpan span(tracer, what);
  return time_s(std::forward<Fn>(fn));
}

void add_cycle(EpochStats& stats, double seconds, double population,
               bool restart) {
  stats.host_s += seconds;
  stats.node_cycles += population;
  stats.cycle_ms.push_back(seconds * 1e3);
  if (restart) stats.restart_ms.push_back(seconds * 1e3);
}

// ===================================================================
// cycle-avg — paper Fig. 2 push–pull AVG, SEQ pairs, complete overlay
// ===================================================================

class CycleAvg final : public Workload {
public:
  static constexpr std::size_t kNodes = 1'000'000;
  static constexpr std::size_t kEpoch = 20;

  explicit CycleAvg(const Seeds& seeds)
      : seeds_(seeds), values_(normal_values(kNodes, seeds.values)),
        inputs_(moments(values_)) {}

  std::string name() const override { return "cycle-avg"; }
  double epoch_budget_s() const override { return 0.6; }
  std::size_t setup_repeats() const override { return 25; }  // ~40 ms each

  Simulation build() override {
    epoch_ = 0;
    return SimulationBuilder()
        .pairs(epiagg::PairStrategy::kSequential)
        .workload(epiagg::WorkloadSpec::from_values(values_))
        .epoch_length(kEpoch)
        .seed(seeds_.simulation)
        .build();
  }

  EpochStats run_epoch(Simulation& sim, Tracer& tracer) override {
    EpochStats stats;
    // The restart at the epoch's first cycle re-snapshots every node to its
    // input, so the epoch's variance series starts at the inputs' variance.
    std::vector<double> variances{inputs_.variance};
    for (std::size_t k = 0; k < kEpoch; ++k) {
      const double s = timed_call(tracer, "sim.run_cycle", [&] { sim.run_cycle(); });
      add_cycle(stats, s, static_cast<double>(kNodes), k == 0);
      const ScopedSpan span(tracer, "oracle.read");
      const Moments m = moments(sim.approximations());
      variances.push_back(m.variance);
      stats.verdict.merge(
          oracle::mass_conserved(inputs_.mean, m.mean, oracle::kMassTolerance));
      stats.verdict.merge(
          oracle::within_hull(m.min, m.max, inputs_.min, inputs_.max));
    }
    stats.verdict.merge(oracle::seq_rate(variances, oracle::kSeqRateTolerance));
    // SEQ without loss: every node initiates one exchange per cycle, two
    // messages each.
    stats.messages = 2.0 * static_cast<double>(kNodes * kEpoch);
    ++epoch_;
    return stats;
  }

  LayerShape shape() const override {
    LayerShape s;
    s.n = kNodes;
    s.combiners = {epiagg::Combiner::kAverage};
    return s;
  }

private:
  Seeds seeds_;
  std::vector<double> values_;
  Moments inputs_;
  std::size_t epoch_ = 0;
};

// ===================================================================
// event-avg — push–pull averaging on the event engine, latency + loss
// ===================================================================

class EventAvg final : public Workload {
public:
  static constexpr std::size_t kNodes = 250'000;
  static constexpr std::size_t kEpoch = 20;
  static constexpr double kLoss = 0.01;
  static constexpr double kLatencyHi = 0.2;
  /// The end-of-epoch read happens this long before the boundary tick.
  static constexpr double kEndOffset = 1e-7;

  explicit EventAvg(const Seeds& seeds)
      : seeds_(seeds), values_(normal_values(kNodes, seeds.values)),
        inputs_(moments(values_)) {}

  std::string name() const override { return "event-avg"; }
  double epoch_budget_s() const override { return 11.0; }
  std::size_t setup_repeats() const override { return 21; }  // ~150 ms each

  Simulation build() override {
    epoch_ = 0;
    return SimulationBuilder()
        .engine(epiagg::EngineKind::kEvent)
        .workload(epiagg::WorkloadSpec::from_values(values_))
        .epoch_length(kEpoch)
        .waiting(epiagg::WaitingTime::kConstant)
        .latency(std::make_shared<epiagg::UniformLatency>(0.0, kLatencyHi))
        .failures(epiagg::FailureSpec::message_loss_only(kLoss))
        .seed(seeds_.simulation)
        .build();
  }

  EpochStats run_epoch(Simulation& sim, Tracer& tracer) override {
    EpochStats stats;
    const double start = static_cast<double>(epoch_ * kEpoch);
    const std::uint64_t sent_before = sim.messages_sent();
    std::vector<double> variances{inputs_.variance};
    Moments last;
    for (std::size_t k = 1; k <= kEpoch; ++k) {
      const double until = start + static_cast<double>(k);
      // The epoch's last state is read just before the boundary tick
      // restarts every node; the tick itself is timed with that Δt.
      const double read_at = k == kEpoch ? until - kEndOffset : until;
      double s = timed_call(tracer, "sim.run_time", [&] { sim.run_time(read_at); });
      {
        const ScopedSpan span(tracer, "oracle.read");
        last = moments(sim.approximations());
        variances.push_back(last.variance);
        stats.verdict.merge(
            oracle::within_hull(last.min, last.max, inputs_.min, inputs_.max));
      }
      if (k == kEpoch)
        s += timed_call(tracer, "sim.run_time", [&] { sim.run_time(until); });
      add_cycle(stats, s, static_cast<double>(kNodes), k == kEpoch);
    }
    stats.verdict.merge(oracle::event_contraction(variances));
    variances.pop_back();  // exposure counts the variance at each Δt's start
    stats.verdict.merge(oracle::mean_drift(
        inputs_.mean, last.mean,
        oracle::drift_allowance(variances, kLoss, oracle::kLatencyDriftU02,
                                kNodes, oracle::kDriftZ)));
    stats.messages = static_cast<double>(sim.messages_sent() - sent_before);
    ++epoch_;
    return stats;
  }

  LayerShape shape() const override {
    LayerShape s;
    s.n = kNodes;
    s.combiners = {epiagg::Combiner::kAverage};
    s.event_engine = true;
    s.latency_hi = kLatencyHi;
    return s;
  }

private:
  Seeds seeds_;
  std::vector<double> values_;
  Moments inputs_;
  std::size_t epoch_ = 0;
};

// ===================================================================
// size-churn — §4 size estimation under the Fig. 4 oscillating churn
// ===================================================================

class SizeChurn final : public Workload {
public:
  static constexpr std::size_t kNodes = 100'000;
  static constexpr std::size_t kEpoch = 30;
  static constexpr std::size_t kMin = kNodes * 9 / 10;
  static constexpr std::size_t kMax = kNodes * 11 / 10;
  static constexpr std::size_t kPeriod = 300;
  static constexpr std::size_t kFluctuation = kNodes / 1000;
  /// Counting instances per epoch (Poisson). Each node reports the median
  /// of its instances' estimates; with the builder's default of 4, a
  /// quarter of the epochs run one or two instances, and one early crash of
  /// a node holding much of an instance's mass then skews the estimate by
  /// 15-20%. Sixteen instances let the median absorb such an instance.
  static constexpr double kExpectedLeaders = 16.0;

  explicit SizeChurn(const Seeds& seeds)
      : seeds_(seeds), wave_(kNodes, kMin, kMax, kPeriod, kFluctuation) {}

  std::string name() const override { return "size-churn"; }
  double epoch_budget_s() const override { return 6.0; }
  std::size_t setup_repeats() const override { return 31; }  // ~50 ms each

  Simulation build() override {
    epoch_ = 0;
    return SimulationBuilder()
        .engine(epiagg::EngineKind::kEvent)
        .nodes(kNodes)
        .protocol(epiagg::ProtocolVariant::kSizeEstimation)
        .expected_leaders(kExpectedLeaders)
        .epoch_length(kEpoch)
        .failures(epiagg::FailureSpec::with_churn(
            std::make_shared<epiagg::OscillatingChurn>(kMin, kMax, kPeriod,
                                                       kFluctuation)))
        .seed(seeds_.simulation)
        .build();
  }

  EpochStats run_epoch(Simulation& sim, Tracer& tracer) override {
    EpochStats stats;
    const std::size_t start = epoch_ * kEpoch;
    const std::uint64_t sent_before = sim.messages_sent();
    for (std::size_t k = 1; k <= kEpoch; ++k) {
      const double population = static_cast<double>(sim.population_size());
      const double s = timed_call(tracer, "sim.run_time", [&] {
        sim.run_time(static_cast<double>(start + k));
      });
      add_cycle(stats, s, population, k == kEpoch);
      // Churn of tick start + k - 1 shaped the Δt that just ran.
      stats.churn_ops += static_cast<double>(wave_.churn_ops(start + k - 1));
    }
    const ScopedSpan span(tracer, "oracle.read");
    const auto& epochs = sim.epochs();
    if (epochs.size() != epoch_ + 1) {
      stats.verdict.require(false, "epoch summary missing at the boundary");
    } else {
      const epiagg::EpochSummary& e = epochs.back();
      // An epoch starts at the boundary tick BEFORE that tick's churn, so
      // it holds the population left by the previous tick.
      const std::size_t expected_start =
          epoch_ == 0 ? wave_.initial() : wave_.size_after(start - 1);
      const std::size_t expected_end = wave_.size_after(start + kEpoch - 1);
      stats.verdict.merge(oracle::size_estimate(
          {e.population_start, e.population_end, e.instances, e.reporting,
           e.est_mean, e.est_min, e.est_max},
          expected_start, expected_end, oracle::kSizeTolerance));
      stats.instances = static_cast<double>(e.instances);
    }
    stats.messages = static_cast<double>(sim.messages_sent() - sent_before);
    ++epoch_;
    return stats;
  }

  LayerShape shape() const override {
    LayerShape s;
    s.n = kNodes;
    s.combiners = {epiagg::Combiner::kAverage};
    s.event_engine = true;
    s.counting = true;
    return s;
  }

private:
  Seeds seeds_;
  oracle::TrianglePopulation wave_;
  std::size_t epoch_ = 0;
};

// ===================================================================
// newscast-monitor — streaming aggregates over a live Newscast overlay
// ===================================================================

/// Counts completed exchanges (two messages each).
class ExchangeCounter final : public epiagg::Observer {
public:
  void on_exchange(epiagg::NodeId /*i*/, epiagg::NodeId /*j*/) override {
    ++exchanges_;
  }
  [[nodiscard]] std::uint64_t exchanges() const noexcept { return exchanges_; }

private:
  std::uint64_t exchanges_ = 0;
};

class NewscastMonitor final : public Workload {
public:
  static constexpr std::size_t kNodes = 20'000;
  static constexpr std::size_t kEpoch = 20;
  static constexpr std::size_t kView = 20;
  static constexpr std::size_t kWarmup = 10;
  static constexpr std::size_t kFluctuation = kNodes / 1000;
  static constexpr double kRate = 0.01;
  static constexpr double kJitter = 0.05;
  static constexpr double kBeta = 0.1;
  static constexpr std::size_t kWindow = 10;

  explicit NewscastMonitor(const Seeds& seeds) : seeds_(seeds) {}

  std::string name() const override { return "newscast-monitor"; }
  double epoch_budget_s() const override { return 2.1; }
  // Each build warms the overlay up for ~1 s.
  std::size_t setup_repeats() const override { return 5; }

  static std::vector<epiagg::AggregatorSpec> aggregates() {
    return {epiagg::AggregatorSpec::average("average"),
            epiagg::AggregatorSpec::decaying_mean("decaying", kBeta),
            epiagg::AggregatorSpec::windowed_mean("windowed",
                                                  static_cast<double>(kWindow)),
            epiagg::AggregatorSpec::variance("variance")};
  }

  Simulation build() override {
    epoch_ = 0;
    tracking_ = std::make_shared<epiagg::TrackingErrorObserver>();
    exchanges_ = std::make_shared<ExchangeCounter>();
    return SimulationBuilder()
        .nodes(kNodes)
        .membership(epiagg::MembershipSpec::newscast(kView, kWarmup))
        .failures(epiagg::FailureSpec::with_churn(
            std::make_shared<epiagg::ConstantFluctuation>(kFluctuation)))
        .workload(epiagg::WorkloadSpec::time_varying(
            epiagg::WorkloadDynamics::kDrift, epiagg::ValueDistribution::kNormal,
            kRate, /*period=*/0.0, kJitter))
        .aggregates(aggregates())
        .epoch_length(kEpoch)
        .observe(tracking_)
        .observe(exchanges_)
        .seed(seeds_.simulation)
        .build();
  }

  EpochStats run_epoch(Simulation& sim, Tracer& tracer) override {
    EpochStats stats;
    const std::uint64_t exchanges_before = exchanges_->exchanges();
    for (std::size_t k = 0; k < kEpoch; ++k) {
      const double population = static_cast<double>(sim.population_size());
      const double s = timed_call(tracer, "sim.run_cycle", [&] { sim.run_cycle(); });
      add_cycle(stats, s, population, k == 0);
      stats.churn_ops += 2.0 * static_cast<double>(kFluctuation);
    }
    const ScopedSpan span(tracer, "oracle.read");
    // TrackingError rows: one per aggregate per cycle, 1-based cycles.
    std::vector<double> observed[4], expected[4];
    const std::size_t first = epoch_ * kEpoch;  // 0-based cycle
    for (const epiagg::TrackingError& row : tracking_->history()) {
      if (row.cycle <= first || row.cycle > first + kEpoch || row.aggregate > 3)
        continue;
      const std::size_t c = row.cycle - 1;
      observed[row.aggregate].push_back(row.truth - row.estimate);
      switch (row.aggregate) {
        case 0:
          expected[0].push_back(oracle::average_lag(c, kEpoch, kRate));
          break;
        case 1:
          expected[1].push_back(oracle::decaying_lag(c, kEpoch, kRate, kBeta));
          break;
        case 2:
          expected[2].push_back(oracle::windowed_lag(c, kWindow, kRate));
          break;
        default:
          stats.verdict.require(std::isfinite(row.estimate) && row.estimate >= 0.0,
                                "variance estimate negative or not finite");
      }
    }
    // Attribute variance bound at the epoch's end: N(0,1) inputs, the
    // per-node jitter walk, and fresh joiners against drifted survivors.
    const double c = static_cast<double>(first + kEpoch);
    const double attr_variance =
        1.0 + kJitter * kJitter * c + (kRate * c) * (kRate * c) / 4.0;
    const double step =
        oracle::truth_step_sd(kNodes, kJitter, kFluctuation, attr_variance);
    const std::size_t decay_time = static_cast<std::size_t>(1.0 / kBeta);
    stats.verdict.merge(oracle::lag_matches(
        "average", observed[0], expected[0],
        oracle::lag_tolerance(step, kEpoch, kEpoch, oracle::kLagZ)));
    stats.verdict.merge(oracle::lag_matches(
        "decaying", observed[1], expected[1],
        oracle::lag_tolerance(step, decay_time, kEpoch, oracle::kLagZ)));
    stats.verdict.merge(oracle::lag_matches(
        "windowed", observed[2], expected[2],
        oracle::lag_tolerance(step, kWindow, kEpoch, oracle::kLagZ)));
    stats.verdict.require(observed[3].size() == kEpoch, "variance rows missing");
    stats.messages =
        2.0 * static_cast<double>(exchanges_->exchanges() - exchanges_before);
    ++epoch_;
    return stats;
  }

  LayerShape shape() const override {
    LayerShape s;
    s.n = kNodes;
    const auto specs = aggregates();
    s.combiners = epiagg::AggregatorPlan::from_specs(specs).plane_combiners();
    s.membership = true;
    s.view = kView;
    s.warmup = kWarmup;
    return s;
  }

private:
  Seeds seeds_;
  std::shared_ptr<epiagg::TrackingErrorObserver> tracking_;
  std::shared_ptr<ExchangeCounter> exchanges_;
  std::size_t epoch_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Seeds& seeds) {
  if (name == "cycle-avg") return std::make_unique<CycleAvg>(seeds);
  if (name == "event-avg") return std::make_unique<EventAvg>(seeds);
  if (name == "size-churn") return std::make_unique<SizeChurn>(seeds);
  if (name == "newscast-monitor") return std::make_unique<NewscastMonitor>(seeds);
  return nullptr;
}

}  // namespace perfbench
