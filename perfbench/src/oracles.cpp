#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench::oracle {

namespace {

std::string format(const char* fmt, double a, double b, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

double mean_of(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

}  // namespace

double seq_factor() { return 1.0 / (2.0 * std::sqrt(std::exp(1.0))); }
double rand_factor() { return 1.0 / std::exp(1.0); }
double matching_factor() { return 0.25; }

double geometric_rate(std::span<const double> variances) {
  if (variances.size() < 2) return 0.0;
  double log_sum = 0.0;
  for (std::size_t k = 1; k < variances.size(); ++k)
    log_sum += std::log(variances[k] / variances[k - 1]);
  return std::exp(log_sum / static_cast<double>(variances.size() - 1));
}

Verdict mass_conserved(double truth_mean, double observed_mean,
                       double tolerance) {
  Verdict v;
  v.require(std::isfinite(observed_mean) &&
                std::fabs(observed_mean - truth_mean) <= tolerance,
            format("mass not conserved: mean %.17g vs inputs %.17g (tol %g)",
                   observed_mean, truth_mean, tolerance));
  return v;
}

Verdict within_hull(double observed_min, double observed_max, double lo,
                    double hi) {
  Verdict v;
  v.require(observed_min >= lo && observed_max <= hi,
            format("estimate outside [min, max] of the inputs: [%.17g, %.17g]",
                   observed_min, observed_max));
  return v;
}

Verdict seq_rate(std::span<const double> variances,
                 double relative_tolerance) {
  Verdict v;
  const double rate = geometric_rate(variances);
  v.require(std::isfinite(rate) &&
                std::fabs(rate / seq_factor() - 1.0) <= relative_tolerance,
            format("per-cycle variance ratio %.5f is not 1/(2*sqrt(e)) = "
                   "%.5f within %.2f",
                   rate, seq_factor(), relative_tolerance));
  return v;
}

Verdict event_contraction(std::span<const double> variances) {
  Verdict v;
  const double rate = geometric_rate(variances);
  v.require(std::isfinite(rate) && rate >= matching_factor() &&
                rate <= rand_factor(),
            format("per-dt variance ratio %.5f outside [1/4, 1/e = %.5f]",
                   rate, rand_factor()));
  return v;
}

double drift_allowance(std::span<const double> variances, double loss,
                       double latency_drift, std::size_t n, double z) {
  double exposure = 0.0;
  for (const double var : variances) exposure += var;
  const double per_unit = loss / 2.0 + latency_drift;
  return z * std::sqrt(exposure * per_unit / static_cast<double>(n));
}

Verdict mean_drift(double truth_mean, double observed_mean, double allowance) {
  Verdict v;
  v.require(std::isfinite(observed_mean) &&
                std::fabs(observed_mean - truth_mean) <= allowance,
            format("mean drifted %.3g from the inputs, allowance %.3g",
                   observed_mean - truth_mean, allowance));
  return v;
}

TrianglePopulation::TrianglePopulation(std::size_t initial, std::size_t min,
                                       std::size_t max, std::size_t period,
                                       std::size_t fluctuation)
    : initial_(initial), min_(min), max_(max), period_(period),
      fluctuation_(fluctuation) {}

std::size_t TrianglePopulation::target(std::size_t t) const {
  const std::size_t half = period_ / 2;
  const std::size_t phase = t % period_;
  const std::size_t amplitude = max_ - min_;
  if (phase < half) return max_ - amplitude * phase / half;
  return min_ + amplitude * (phase - half) / half;
}

void TrianglePopulation::extend(std::size_t t) {
  while (size_after_.size() <= t) {
    const std::size_t tick = size_after_.size();
    const std::size_t before = tick == 0 ? initial_ : size_after_.back();
    const std::size_t goal = target(tick);
    std::size_t joins = fluctuation_;
    std::size_t leaves = fluctuation_;
    if (goal > before) {
      joins += goal - before;
    } else {
      leaves += before - goal;
    }
    leaves = std::min(leaves, before > min_ ? before - min_ : 0);
    size_after_.push_back(before - leaves + joins);
    ops_.push_back(joins + leaves);
  }
}

std::size_t TrianglePopulation::size_after(std::size_t t) {
  extend(t);
  return size_after_[t];
}

std::size_t TrianglePopulation::churn_ops(std::size_t t) {
  extend(t);
  return ops_[t];
}

Verdict size_estimate(const SizeEpoch& epoch, std::size_t expected_start,
                      std::size_t expected_end, double relative_tolerance) {
  Verdict v;
  v.require(epoch.population_start == expected_start &&
                epoch.population_end == expected_end,
            format("population %.0f -> %.0f differs from the triangle wave's "
                   "%.0f",
                   static_cast<double>(epoch.population_start),
                   static_cast<double>(epoch.population_end),
                   static_cast<double>(expected_start)));
  if (epoch.instances == 0) {
    v.require(epoch.reporting == 0,
              format("%.0f nodes report a size after an epoch without a "
                     "leader",
                     static_cast<double>(epoch.reporting), 0.0));
    return v;
  }
  v.require(epoch.est_min <= epoch.est_mean && epoch.est_mean <= epoch.est_max,
            format("estimates out of order: min %.3f mean %.3f max %.3f",
                   epoch.est_min, epoch.est_mean, epoch.est_max));
  const double truth = static_cast<double>(expected_start);
  v.require(std::isfinite(epoch.est_mean) &&
                std::fabs(epoch.est_mean - truth) <= relative_tolerance * truth,
            format("size estimate %.1f is not the epoch-start population %.0f "
                   "within %.3f",
                   epoch.est_mean, truth, relative_tolerance));
  return v;
}

double average_lag(std::size_t c, std::size_t epoch, double rate) {
  // Restart snapshot, then one evolution per cycle up to and including c.
  return static_cast<double>(c % epoch + 1) * rate;
}

double decaying_lag(std::size_t c, std::size_t epoch, double rate,
                    double beta) {
  const double k = static_cast<double>(c % epoch + 1);
  return rate * (1.0 - beta) / beta * (1.0 - std::pow(1.0 - beta, k));
}

double windowed_lag(std::size_t c, std::size_t window, double rate) {
  // The window re-snapshots after the evolution of cycles W, 2W, ...; before
  // the first one the estimate is the restart snapshot taken before cycle
  // 0's evolution.
  if (c < window) return static_cast<double>(c + 1) * rate;
  return static_cast<double>(c % window) * rate;
}

double truth_step_sd(std::size_t n, double jitter, std::size_t leavers,
                     double attr_variance) {
  const double nodes = static_cast<double>(n);
  return std::sqrt(jitter * jitter / nodes +
                   static_cast<double>(leavers) * attr_variance / (nodes * nodes));
}

double lag_tolerance(double step_sd, std::size_t reset, std::size_t epoch,
                     double z) {
  // Within one re-anchored stretch the lag noise after m cycles is a walk of
  // m steps; the epoch mean sums (reset - j + 1) copies of step j.
  double squares = 0.0;
  for (std::size_t j = 1; j <= reset; ++j)
    squares += static_cast<double>(j * j);
  const double stretches = static_cast<double>(epoch) / static_cast<double>(reset);
  return z * step_sd * std::sqrt(stretches * squares) / static_cast<double>(epoch);
}

Verdict lag_matches(const std::string& aggregate,
                    std::span<const double> observed,
                    std::span<const double> expected, double tolerance) {
  Verdict v;
  const double seen = mean_of(observed);
  const double want = mean_of(expected);
  v.require(!observed.empty() && observed.size() == expected.size() &&
                std::isfinite(seen) && std::fabs(seen - want) <= tolerance,
            aggregate + format(" lag %.5f, analytic %.5f (tol %.4f)", seen,
                               want, tolerance));
  return v;
}

// ------------------------------------------------------------------ self-test

namespace {

struct SelfTest {
  std::string report;
  bool ok = true;

  void expect(const char* oracle, const Verdict& good, const Verdict& bad) {
    if (!good.ok) {
      ok = false;
      report += std::string(oracle) + " rejected a consistent state: " +
                good.why + "\n";
    }
    if (bad.ok) {
      ok = false;
      report += std::string(oracle) + " accepted a perturbed state\n";
    }
  }
};

std::vector<double> geometric_series(double start, double ratio,
                                     std::size_t steps) {
  std::vector<double> out{start};
  for (std::size_t k = 0; k < steps; ++k) out.push_back(out.back() * ratio);
  return out;
}

}  // namespace

bool self_test(std::string& report) {
  SelfTest t;

  t.expect("mass_conserved", mass_conserved(0.25, 0.25 + 1e-15, kMassTolerance),
           mass_conserved(0.25, 0.25 + 1e-6, kMassTolerance));
  t.expect("within_hull", within_hull(-1.0, 1.0, -2.0, 2.0),
           within_hull(-1.0, 2.0 + 1e-12, -2.0, 2.0));

  // SEQ measured on the cycle engine sits ~3% under 1/(2√e); RAND's 1/e is
  // the perturbation (a pair selector that ignores the SEQ order).
  t.expect("seq_rate",
           seq_rate(geometric_series(1.0, 0.294, 20), kSeqRateTolerance),
           seq_rate(geometric_series(1.0, rand_factor(), 20), kSeqRateTolerance));
  t.expect("event_contraction",
           event_contraction(geometric_series(1.0, 0.32, 19)),
           event_contraction(geometric_series(1.0, 0.45, 19)));
  {
    const std::vector<double> vars = geometric_series(1.0, 0.32, 19);
    const double allowance =
        drift_allowance(vars, 0.01, kLatencyDriftU02, 250000, kDriftZ);
    t.expect("mean_drift", mean_drift(0.001, 0.001 + allowance / 2, allowance),
             mean_drift(0.001, 0.001 + 2 * allowance, allowance));
    // The drift that twice the loss allows is more than 1% loss allows.
    const double at_twice_loss =
        drift_allowance(vars, 0.02, kLatencyDriftU02, 250000, kDriftZ);
    t.expect("mean_drift at twice the loss",
             mean_drift(0.001, 0.001 - allowance, allowance),
             mean_drift(0.001, 0.001 - at_twice_loss, allowance));
  }
  {
    TrianglePopulation wave(1000, 900, 1100, 300, 1);
    const std::size_t start = wave.size_after(29);
    const std::size_t end = wave.size_after(59);
    const SizeEpoch good{start, end, 4, start,
                         0.99 * static_cast<double>(start),
                         0.98 * static_cast<double>(start),
                         static_cast<double>(start)};
    const SizeEpoch leaderless{start, end, 0, 0, 0.0, 0.0, 0.0};
    SizeEpoch phantom = leaderless;
    phantom.reporting = 10;
    SizeEpoch off_by_one = good;
    off_by_one.population_end += 1;
    SizeEpoch disordered = good;
    disordered.est_min = disordered.est_mean + 1.0;
    SizeEpoch biased = good;
    biased.est_mean = 1.2 * static_cast<double>(start);
    biased.est_max = biased.est_mean;
    auto check = [&](const SizeEpoch& e) {
      return size_estimate(e, start, end, kSizeTolerance);
    };
    t.expect("size_estimate/population", check(good), check(off_by_one));
    t.expect("size_estimate/order", check(good), check(disordered));
    t.expect("size_estimate/bias", check(good), check(biased));
    t.expect("size_estimate/leaderless", check(leaderless), check(phantom));
  }
  {
    // One epoch of lags: the analytic curve passes; a decaying mean missing
    // its (1−β) factor, a window that never re-snapshots and a static
    // average that also drops the restart all fail.
    const std::size_t epoch = 20;
    const double rate = 0.01;
    std::vector<double> dec, dec_bad, win, win_bad, avg, avg_bad;
    for (std::size_t c = 20; c < 40; ++c) {
      dec.push_back(decaying_lag(c, epoch, rate, 0.1));
      dec_bad.push_back(rate / 0.1 *
                        (1.0 - std::pow(0.9, static_cast<double>(c - 19))));
      win.push_back(windowed_lag(c, 10, rate));
      win_bad.push_back(average_lag(c, epoch, rate));
      avg.push_back(average_lag(c, epoch, rate));
      avg_bad.push_back(static_cast<double>(c + 1) * rate);
    }
    // newscast-monitor's noise at cycle 40: N = 2·10^4, jitter 0.05, 20
    // leavers per cycle, attribute variance ~1.
    const double step = truth_step_sd(20000, 0.05, 20, 1.0);
    const double tight = lag_tolerance(step, 10, epoch, kLagZ);
    const double loose = lag_tolerance(step, epoch, epoch, kLagZ);
    t.expect("lag_matches/decaying", lag_matches("decaying", dec, dec, tight),
             lag_matches("decaying", dec_bad, dec, tight));
    t.expect("lag_matches/windowed", lag_matches("windowed", win, win, tight),
             lag_matches("windowed", win_bad, win, tight));
    t.expect("lag_matches/average", lag_matches("average", avg, avg, loose),
             lag_matches("average", avg_bad, avg, loose));
  }

  report = t.report;
  return t.ok;
}

}  // namespace perfbench::oracle
