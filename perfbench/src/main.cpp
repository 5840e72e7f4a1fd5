// perfbench — host throughput of the epiagg simulator, end to end and per
// layer. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--holdout] [--ledger-in <file>] [--trace-out <file>]
//   perfbench --workload <name> --seed <n> --ledger-out <file>   (audit build)
//   perfbench --self-test
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. See perfbench/README.md for the metrics and
// perfbench/run.py, which builds both flavours.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "oracles.hpp"
#include "replays.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Master-stream scopes reported as common.rng.<scope> (draws per
/// node-cycle); a scope the workload never enters reads 0. The cycle
/// engine's Newscast draws from a stream of its own, outside the ledger, so
/// the "membership" scope stays empty on every workload and is not reported.
const char* const kScopes[] = {"partner-draw", "loss",  "latency",
                               "waiting",      "churn", "epoch-restart",
                               "workload"};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool holdout = false;
  bool self_test = false;
  std::string ledger_in;
  std::string ledger_out;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--holdout] [--ledger-in <file>] "
               "[--trace-out <file>]\n"
               "       perfbench --workload <name> --seed <n> --ledger-out "
               "<file>\n       perfbench --self-test\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value() == "1";
    } else if (flag == "--holdout") {
      o.holdout = true;
    } else if (flag == "--self-test") {
      o.self_test = true;
    } else if (flag == "--ledger-in") {
      o.ledger_in = value();
    } else if (flag == "--ledger-out") {
      o.ledger_out = value();
    } else if (flag == "--trace-out") {
      o.trace_out = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.self_test) return o;
  if (o.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Audit flavour: run one epoch and write draws per node-cycle by scope,
/// counting only the draws the run made (build draws excluded).
int write_ledger(Workload& workload, const Options& o) {
#ifndef EPIAGG_RNG_AUDIT
  (void)workload;
  (void)o;
  std::fprintf(stderr, "perfbench: --ledger-out needs the audit build\n");
  return 1;
#else
  epiagg::Simulation sim = workload.build();
  const std::vector<epiagg::RngDrawRecord> at_build = sim.draw_ledger();
  Tracer off(false);
  const EpochStats stats = workload.run_epoch(sim, off);
  std::ofstream out(o.ledger_out);
  for (const char* scope : kScopes) {
    double draws = 0.0;
    for (const auto& r : sim.draw_ledger())
      if (r.scope == scope) draws += static_cast<double>(r.draws);
    for (const auto& r : at_build)
      if (r.scope == scope) draws -= static_cast<double>(r.draws);
    out << scope << ' ' << draws / stats.node_cycles << '\n';
  }
  return out ? 0 : 1;
#endif
}

Metrics read_ledger(const std::string& path) {
  Metrics m;
  for (const char* scope : kScopes)
    m[std::string("common.rng.") + scope] = {0.0, "1/node-cycle"};
  if (path.empty()) return m;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read ledger " + path);
  std::string scope;
  double per_node_cycle = 0.0;
  while (in >> scope >> per_node_cycle)
    m["common.rng." + scope] = {per_node_cycle, "1/node-cycle"};
  return m;
}

int run(const Options& o) {
  std::string report;
  const bool oracles_ok = oracle::self_test(report);
  if (o.self_test) {
    std::fputs(oracles_ok ? "oracle self-test: all oracles accept consistent "
                            "states and reject perturbed ones\n"
                          : report.c_str(),
               oracles_ok ? stdout : stderr);
    return oracles_ok ? 0 : 1;
  }
  if (!oracles_ok) std::fputs(report.c_str(), stderr);

  const Seeds seeds = Seeds::derive(o.seed, o.holdout);
  std::unique_ptr<Workload> workload = make_workload(o.workload, seeds);
  if (workload == nullptr) usage("unknown workload " + o.workload);
  if (!o.ledger_out.empty()) return write_ledger(*workload, o);

  Tracer tracer(o.trace);
  std::optional<epiagg::Simulation> sim;
  std::vector<double> setups;
  for (std::size_t r = 0; r < workload->setup_repeats(); ++r) {
    sim.reset();  // one simulation resident at a time
    const ScopedSpan span(tracer, "sim.build");
    setups.push_back(time_s([&] { sim.emplace(workload->build()); }));
  }

  // A fixed number of whole epochs for the budget. Traced runs trace every
  // odd epoch and compare it with the even ones after the first, which also
  // pays the cold start: three epochs at least.
  const auto epochs = std::max<std::uint64_t>(
      o.trace ? 3 : 1,
      static_cast<std::uint64_t>(std::ceil(o.seconds / workload->epoch_budget_s())));
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double host_s = 0.0;
  double node_cycles = 0.0;
  double overhead_host_s[2] = {0.0, 0.0};  // [traced], epochs after the first
  double overhead_node_cycles[2] = {0.0, 0.0};
  double messages = 0.0;
  double churn_ops = 0.0;
  double instances = 0.0;
  std::vector<double> cycle_ms;
  std::vector<double> restart_ms;
  while (attempted < epochs) {
    const int traced = o.trace && attempted % 2 == 1 ? 1 : 0;
    tracer.set_enabled(traced == 1);
    EpochStats stats = workload->run_epoch(*sim, tracer);
    ++attempted;
    if (!stats.verdict.ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s epoch %llu failed: %s\n",
                   o.workload.c_str(),
                   static_cast<unsigned long long>(attempted - 1),
                   stats.verdict.why.c_str());
    }
    host_s += stats.host_s;
    node_cycles += stats.node_cycles;
    if (attempted > 1) {
      overhead_host_s[traced] += stats.host_s;
      overhead_node_cycles[traced] += stats.node_cycles;
    }
    messages += stats.messages;
    churn_ops += stats.churn_ops;
    instances += stats.instances;
    cycle_ms.insert(cycle_ms.end(), stats.cycle_ms.begin(), stats.cycle_ms.end());
    restart_ms.insert(restart_ms.end(), stats.restart_ms.begin(),
                      stats.restart_ms.end());
  }
  tracer.set_enabled(o.trace);

  Metrics metrics;
  if (!o.trace) {
    metrics["node_cycles_per_s"] = {node_cycles / host_s, "1/s"};
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  } else {
    sim.reset();  // the replays run alone
    const double cycles = static_cast<double>(cycle_ms.size());
    CycleWork work;
    work.cycle_ms_mean = host_s * 1e3 / cycles;
    work.population = node_cycles / cycles;
    work.messages_per_cycle = messages / cycles;
    const double instances_per_epoch = instances / static_cast<double>(attempted);
    Metrics ledger = read_ledger(o.ledger_in);
    for (const auto& [name, metric] : ledger)
      work.draws_per_cycle += metric.value * work.population;
    metrics.insert(ledger.begin(), ledger.end());

    LayerShape shape = workload->shape();
    if (instances_per_epoch > 0.0) shape.instances = instances_per_epoch;
    run_layer_replays(shape, work, seeds.replay, tracer, metrics);

    const double untraced = overhead_node_cycles[0] / overhead_host_s[0];
    const double traced = overhead_node_cycles[1] / overhead_host_s[1];
    metrics["trace.node_cycles_per_s"] = {traced, "1/s"};
    metrics["trace.overhead_pct"] = {(untraced - traced) / untraced * 100.0, "%"};
    metrics["sim.run.cycle_ms_p50"] = {median(cycle_ms), "ms"};
    metrics["sim.run.restart_cycle_ms"] = {median(restart_ms), "ms"};
    metrics["sim.messages_per_node_cycle"] = {messages / node_cycles, "count"};
    metrics["protocol.instances_per_epoch"] = {instances_per_epoch, "count"};
    metrics["workload.churn_ops_per_cycle"] = {churn_ops / cycles, "count"};
    if (!o.trace_out.empty() && !tracer.write_json(o.trace_out))
      std::fprintf(stderr, "perfbench: could not write %s\n", o.trace_out.c_str());
  }
  print_result(oracles_ok, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
