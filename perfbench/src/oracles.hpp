// Per-epoch correctness oracles, computed apart from the simulator.
//
// Every expected value here comes from the paper's analysis or from the
// benchmark's own arithmetic over its own inputs: Theorem 1's convergence
// factors, mass conservation against a compensated sum of the generated
// values, the convex-hull bound min <= x_i <= max, the Fig. 4 triangle-wave
// population, and the analytic lags of the streaming aggregates. The
// simulator only supplies the observed state. One epoch that passes every
// check of its workload is one successful operation of the benchmark.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace perfbench::oracle {

// Tolerances the workloads check with; the self-test perturbs against them.

/// SEQ on the cycle engine measures ~3% under 1/(2√e) at N = 10^6; RAND's
/// 1/e is 21% over, a perfect matching's 1/4 is 18% under.
inline constexpr double kSeqRateTolerance = 0.08;
/// Pairwise averaging rounds each exchange once; at N = 10^6 over an epoch
/// the mean moves ~1e-18, while a lost half-exchange moves it ~1e-7.
inline constexpr double kMassTolerance = 1e-12;
/// Standard deviations of mean drift allowed on the event engine.
inline constexpr double kDriftZ = 5.0;
/// Mean drift that one-way latency U(0, 0.2) alone causes on the event
/// engine with constant waiting and no loss, as a variance per unit of
/// exposure (Σ var_k / N): E[drift²]·N / Σ var_k, measured over 120 epochs
/// at N = 2.5·10^4 (0.0159) and 30 epochs at N = 2.5·10^5 (0.0167),
/// rounded up. The drift comes from replies that merge into the initiator's
/// current value rather than the value it sent (see perfbench/README.md).
inline constexpr double kLatencyDriftU02 = 0.02;
/// Relative size-estimate error allowed against the epoch-start population.
inline constexpr double kSizeTolerance = 0.05;
/// Standard deviations of truth noise allowed between observed and analytic
/// epoch-mean lags.
inline constexpr double kLagZ = 6.0;

/// Outcome of one or more checks; `why` names the first failure.
struct Verdict {
  bool ok = true;
  std::string why;

  void require(bool condition, const std::string& failure) {
    if (!condition && ok) {
      ok = false;
      why = failure;
    }
  }
  void merge(const Verdict& other) { require(other.ok, other.why); }
};

// ---- Theorem 1 factors (paper §3.3), computed here, not read from core/ ----

/// GETPAIR_SEQ / PMRAND: E(2^-φ) with φ = 1 + Poisson(1) = 1/(2√e).
double seq_factor();
/// GETPAIR_RAND: φ ~ Poisson(2), factor 1/e.
double rand_factor();
/// Perfect matching: φ ≡ 2, factor 1/4 — the best any pairing achieves.
double matching_factor();

/// Geometric mean of variances[k] / variances[k-1] over the series.
double geometric_rate(std::span<const double> variances);

// ---- averaging (cycle-avg, event-avg) ----

/// Mass conservation: the observed mean equals the compensated mean of the
/// inputs within `tolerance` (absolute).
Verdict mass_conserved(double truth_mean, double observed_mean,
                       double tolerance);

/// Convex hull: every observed approximation lies in [lo, hi].
Verdict within_hull(double observed_min, double observed_max, double lo,
                    double hi);

/// SEQ rate: the geometric-mean per-cycle variance ratio of `variances`
/// (variance before the first cycle, then after each cycle) is within
/// `relative_tolerance` of 1/(2√e).
Verdict seq_rate(std::span<const double> variances,
                 double relative_tolerance);

/// Event-engine contraction: per Δt, variance shrinks at least as fast as
/// under uniform random pairing (1/e) and no faster than a perfect matching
/// (1/4, the Jensen bound when every node averages twice per Δt).
Verdict event_contraction(std::span<const double> variances);

/// Largest mean drift (in standard deviations `z`) that message loss `loss`
/// and the measured latency drift `latency_drift` (variance per unit of
/// exposure, e.g. kLatencyDriftU02) allow over an epoch whose per-Δt
/// starting variances are `variances`, for `n` nodes. A lost reply moves the
/// sum by (x_i - x_j)/2, variance var/2 per push, so loss adds loss/2.
double drift_allowance(std::span<const double> variances, double loss,
                       double latency_drift, std::size_t n, double z);

Verdict mean_drift(double truth_mean, double observed_mean, double allowance);

// ---- size estimation under Fig. 4 churn (size-churn) ----

/// The benchmark's own model of OscillatingChurn: a triangle wave from
/// `max` down to `min` and back over `period` ticks, plus `fluctuation`
/// swaps per tick, departures clamped so the population never drops below
/// `min`. size_after(t) is the population once the churn of tick t ran.
class TrianglePopulation {
public:
  TrianglePopulation(std::size_t initial, std::size_t min, std::size_t max,
                     std::size_t period, std::size_t fluctuation);

  /// Population after the churn of tick t (extends the memo as needed).
  std::size_t size_after(std::size_t t);
  /// Joins + departures applied at tick t.
  std::size_t churn_ops(std::size_t t);
  [[nodiscard]] std::size_t initial() const noexcept { return initial_; }

private:
  /// Target of the wave at tick t.
  [[nodiscard]] std::size_t target(std::size_t t) const;
  void extend(std::size_t t);

  std::size_t initial_, min_, max_, period_, fluctuation_;
  std::vector<std::size_t> size_after_;
  std::vector<std::size_t> ops_;
};

struct SizeEpoch {
  std::size_t population_start = 0;
  std::size_t population_end = 0;
  std::size_t instances = 0;  ///< counting instances started
  std::size_t reporting = 0;  ///< nodes holding an estimate
  double est_mean = 0.0;
  double est_min = 0.0;
  double est_max = 0.0;
};

/// The epoch's populations equal the benchmark's triangle arithmetic
/// exactly. An epoch that elected no leader (probability e^-E[leaders])
/// must report no estimate; otherwise est_min <= est_mean <= est_max and
/// est_mean is within `relative_tolerance` of the population at the epoch
/// start. Deliberately ignores EpochSummary::variance (never set for
/// counting epochs).
Verdict size_estimate(const SizeEpoch& epoch, std::size_t expected_start,
                      std::size_t expected_end, double relative_tolerance);

// ---- streaming aggregates under drift (newscast-monitor) ----

/// Expected truth − estimate after 0-based cycle `c` of a run whose epochs
/// restart every `epoch` cycles and whose attributes drift by `rate` per
/// cycle (evolved before the aggregate dynamics, restart snapshot before
/// the evolution).
double average_lag(std::size_t c, std::size_t epoch, double rate);
/// Decaying mean with weight beta: lag_k = rate·(1−β)/β·(1 − (1−β)^k) after
/// the k-th cycle of the epoch; rate·(1−β)/β is its steady state.
double decaying_lag(std::size_t c, std::size_t epoch, double rate,
                    double beta);
/// Windowed mean with window W: the lag grows by `rate` per cycle since the
/// last window re-snapshot (W/2·rate on average in the continuum limit).
double windowed_lag(std::size_t c, std::size_t window, double rate);

/// Per-cycle random walk of the truth (the participants' mean attribute):
/// every node adds N(0, jitter²) noise, and `leavers` random participants
/// with attribute variance `attr_variance` depart each cycle, among `n`.
double truth_step_sd(std::size_t n, double jitter, std::size_t leavers,
                     double attr_variance);
/// Largest honest distance between an epoch's mean observed lag and its
/// analytic mean: `z` standard deviations of the epoch mean of a truth
/// random walk with step `step_sd` that the estimate re-anchors every
/// `reset` cycles (the epoch for a plain average, the window or the decay
/// time 1/β for the streaming aggregates).
double lag_tolerance(double step_sd, std::size_t reset, std::size_t epoch,
                     double z);

/// Epoch-mean of `observed` lags (one per cycle) within `tolerance` of the
/// epoch-mean of `expected`.
Verdict lag_matches(const std::string& aggregate,
                    std::span<const double> observed,
                    std::span<const double> expected, double tolerance);

// ---- self-test ----

/// Runs every oracle on a consistent synthetic state (must accept) and on a
/// deliberately perturbed one (must reject). Returns false and fills
/// `report` when any oracle fails either way.
bool self_test(std::string& report);

}  // namespace perfbench::oracle
