// Shared plumbing of the perfbench binary: the host clock, span recording,
// the benchmark-owned input generator, compensated sums and the metric map.
//
// Wall time is read ONLY through benchutil::wall_timer (bench/bench_util.hpp),
// the single clock the determinism linter allows. Randomness that shapes the
// inputs comes from InputRng below, never from epiagg::Rng: the simulator
// receives generated values, not the generator.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

// ------------------------------------------------------------------ clock

/// Seconds since process start, on the steady clock behind wall_timer.
double now_s();

/// Host seconds a callable takes.
template <typename Fn>
double time_s(Fn&& fn) {
  const double start = now_s();
  fn();
  return now_s() - start;
}

// ------------------------------------------------------------------ spans

/// One traced interval: a call into a layer, on the host clock.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/// In-memory span log, written out once when the run ends. Disabled
/// recorders cost one branch per span, which is what untraced runs pay.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Traced runs alternate traced and untraced epochs to measure overhead.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index (-1 off).
  int open(const char* name);
  void close(int index);

  /// Writes {"spans": [...]} to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Tracer& tracer_;
  int index_;
};

// ------------------------------------------------------------------ inputs

/// The benchmark's own generator (splitmix64 stream + Box–Muller), so the
/// inputs do not depend on the simulator's RNG implementation.
class InputRng {
public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(bound));
  }
  double normal();

private:
  std::uint64_t state_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Independent streams derived from the command-line seed. `holdout` moves
/// every stream to a disjoint family kept aside for checking claims.
struct Seeds {
  std::uint64_t values = 0;      ///< node values (InputRng)
  std::uint64_t simulation = 0;  ///< SimulationBuilder::seed
  std::uint64_t replay = 0;      ///< layer-replay shapes (InputRng)
  static Seeds derive(std::uint64_t seed, bool holdout);
};

/// N i.i.d. N(0, 1) values from the benchmark's generator.
std::vector<double> normal_values(std::size_t n, std::uint64_t seed);

// ------------------------------------------------------------------ stats

/// Mean, population variance (two-pass, compensated) and extremes.
struct Moments {
  double mean = 0.0;
  double variance = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Moments moments(std::span<const double> xs);

double median(std::vector<double> xs);

// ------------------------------------------------------------------ memory

/// Peak resident set of this process, MiB (getrusage).
double peak_rss_mib();
/// Current resident set of this process, MiB (/proc/self/statm).
double current_rss_mib();
/// Hands freed heap pages back to the OS so RSS deltas measure new use.
void release_free_heap();

// ------------------------------------------------------------------ output

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
