#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double now_s() {
  static const epiagg::benchutil::wall_timer process_clock;
  return process_clock.seconds();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now_s(), 0.0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}%s\n",
                 i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

double InputRng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = uniform();
  while (u <= 0.0) u = uniform();
  const double v = uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * M_PI * v;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

Seeds Seeds::derive(std::uint64_t seed, bool holdout) {
  // Two disjoint seed families: the tuning family and the held-out family.
  InputRng mix(seed ^ (holdout ? 0x484f4c444f555421ULL : 0x50455246424e4348ULL));
  Seeds out;
  out.values = mix.next();
  out.simulation = mix.next();
  out.replay = mix.next();
  return out;
}

std::vector<double> normal_values(std::size_t n, std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<double> out(n);
  for (double& x : out) x = rng.normal();
  return out;
}

namespace {

/// Neumaier-compensated sum.
double compensated_sum(std::span<const double> xs) {
  double sum = 0.0;
  double carry = 0.0;
  for (const double x : xs) {
    const double t = sum + x;
    carry += std::fabs(sum) >= std::fabs(x) ? (sum - t) + x : (x - t) + sum;
    sum = t;
  }
  return sum + carry;
}

}  // namespace

Moments moments(std::span<const double> xs) {
  Moments m;
  if (xs.empty()) return m;
  m.mean = compensated_sum(xs) / static_cast<double>(xs.size());
  m.min = xs.front();
  m.max = xs.front();
  double sum = 0.0;
  double carry = 0.0;
  for (const double x : xs) {
    m.min = std::min(m.min, x);
    m.max = std::max(m.max, x);
    const double d = (x - m.mean) * (x - m.mean);
    const double t = sum + d;
    carry += sum >= d ? (sum - t) + d : (d - t) + sum;
    sum = t;
  }
  m.variance = (sum + carry) / static_cast<double>(xs.size());
  return m;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void release_free_heap() { malloc_trim(0); }

}  // namespace perfbench
