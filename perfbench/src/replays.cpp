#include "replays.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "core/pair_selector.hpp"
#include "graph/topology.hpp"
#include "membership/newscast.hpp"
#include "protocol/size_estimation.hpp"
#include "sim/event_engine.hpp"
#include "sim/node_store.hpp"
#include "sim/payload_arena.hpp"
#include "sim/sim_events.hpp"

namespace perfbench {

namespace {

using epiagg::NodeId;

constexpr int kRepeats = 3;
/// Shapes for layers a workload never enters: the event layers replay
/// event-avg's shape, membership replays newscast-monitor's.
constexpr std::size_t kReferenceEventNodes = 250'000;
constexpr double kReferenceLatencyHi = 0.2;
constexpr std::size_t kReferenceOverlayNodes = 20'000;

/// Keeps a value alive so the optimizer cannot drop the work behind it.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double median_seconds(Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) runs.push_back(time_s(fn));
  return median(runs);
}

std::vector<epiagg::ExchangePair> seq_like_pairs(std::size_t n,
                                                 InputRng& rng) {
  std::vector<epiagg::ExchangePair> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto j = static_cast<NodeId>(rng.below(n - 1));
    if (j >= i) ++j;
    pairs.emplace_back(static_cast<NodeId>(i), j);
  }
  return pairs;
}

/// The event shape a replay uses: the workload's own, or event-avg's when
/// the workload never enters the event engine.
struct EventShape {
  std::size_t n;
  double latency_hi;
  /// Pending entries: one wake per node plus the messages in flight (two
  /// per node per Δt, each for latency_hi / 2 on average).
  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(static_cast<double>(n) *
                                    (1.0 + latency_hi));
  }
};

EventShape event_shape(const LayerShape& shape) {
  if (shape.event_engine) return {shape.n, shape.latency_hi};
  return {std::min(shape.n, kReferenceEventNodes), kReferenceLatencyHi};
}

/// Time increments of the hold model: one wake (+1 Δt) per two messages
/// (+U(0, latency_hi)), the event mix of a push–pull round.
std::vector<double> hold_increments(const EventShape& shape, InputRng& rng) {
  std::vector<double> incs(4096);
  for (std::size_t i = 0; i < incs.size(); ++i)
    incs[i] = i % 3 == 0 ? 1.0 : rng.uniform() * shape.latency_hi;
  return incs;
}

epiagg::InstanceSet instance_set(double instances) {
  epiagg::InstanceSet set;
  const auto k = static_cast<std::uint64_t>(std::max(1.0, instances + 0.5));
  for (std::uint64_t id = 0; id < k; ++id) set.lead(id * 7919);
  return set;
}

}  // namespace

void run_layer_replays(const LayerShape& shape, const CycleWork& work,
                       std::uint64_t seed, Tracer& tracer, Metrics& out) {
  InputRng rng(seed);
  const std::size_t n = shape.n;
  const std::size_t planes = shape.combiners.size();

  // ---- core: one SEQ next_pair over the complete overlay ----
  double pair_draw_ns = 0.0;
  {
    const ScopedSpan span(tracer, "replay.core.pair_selector");
    auto topology =
        std::make_shared<epiagg::CompleteTopology>(static_cast<NodeId>(n));
    epiagg::SequentialSelector selector(topology, false);
    epiagg::Rng draws(seed);
    pair_draw_ns = median_seconds([&] {
                     selector.begin_cycle(draws);
                     std::uint64_t acc = 0;
                     for (std::size_t i = 0; i < n; ++i) {
                       const auto [a, b] = selector.next_pair(draws);
                       acc += a ^ b;
                     }
                     g_sink = acc;
                   }) * 1e9 / static_cast<double>(n);
  }

  // ---- common: one raw draw ----
  double rng_draw_ns = 0.0;
  {
    const ScopedSpan span(tracer, "replay.common.rng");
    constexpr std::size_t kDraws = 10'000'000;
    epiagg::Rng draws(seed);
    rng_draw_ns = median_seconds([&] {
                    std::uint64_t acc = 0;
                    for (std::size_t i = 0; i < kDraws; ++i) acc ^= draws.next_u64();
                    g_sink = acc;
                  }) * 1e9 / static_cast<double>(kDraws);
  }

  // ---- sim.node_store: exchange and delivery kernels ----
  double exchange_ns = 0.0;
  double delivery_ns = 0.0;
  {
    const ScopedSpan span(tracer, "replay.sim.node_store");
    const std::vector<double> values = normal_values(n, rng.next());
    epiagg::NodeStateStore store(planes, values);
    const auto pairs = seq_like_pairs(n, rng);
    exchange_ns = median_seconds([&] {
                    store.apply_exchanges(shape.combiners, pairs);
                  }) * 1e9 / static_cast<double>(n * planes);
    // Continuous latency puts every delivery on its own timestamp, so the
    // engine folds them one target at a time.
    std::vector<NodeId> targets(n);
    for (NodeId& t : targets) t = static_cast<NodeId>(rng.below(n));
    const std::vector<double> payload = normal_values(n * planes, rng.next());
    delivery_ns = median_seconds([&] {
                    for (std::size_t d = 0; d < n; ++d)
                      store.apply_deliveries(
                          shape.combiners, std::span(&targets[d], 1),
                          std::span(&payload[d * planes], planes));
                  }) * 1e9 / static_cast<double>(n);
  }

  // ---- sim.calendar_queue: hold model at the workload's pending count ----
  const EventShape events = event_shape(shape);
  const std::vector<double> incs = hold_increments(events, rng);
  double hold_ns = 0.0;
  {
    const ScopedSpan span(tracer, "replay.sim.calendar_queue");
    release_free_heap();
    const double rss_before = current_rss_mib();
    epiagg::CalendarQueue<epiagg::SimEventRecord> queue;
    std::uint64_t sequence = 0;
    const std::size_t pending = events.pending();
    for (std::size_t i = 0; i < pending; ++i) {
      epiagg::SimEventRecord record;
      record.a = static_cast<NodeId>(i);
      const double t = i < events.n ? rng.uniform()
                                     : rng.uniform() * events.latency_hi;
      queue.push(t, sequence++, record);
    }
    epiagg::CalendarQueue<epiagg::SimEventRecord>::Entry entry{};
    const std::size_t holds = 2 * pending;
    hold_ns = time_s([&] {
                for (std::size_t h = 0; h < holds; ++h) {
                  queue.pop_min_if(std::numeric_limits<double>::infinity(), entry);
                  queue.push(entry.time + incs[h % incs.size()], sequence++,
                             entry.payload);
                }
              }) * 1e9 / static_cast<double>(holds);
    out["sim.calendar_queue.peak_rss_mib"] = {current_rss_mib() - rss_before, "MiB"};
    out["sim.calendar_queue.lanes"] = {
        static_cast<double>(queue.bucket_count()), "count"};
  }

  // ---- sim.event_engine: schedule + typed dispatch, no-op handler ----
  double dispatch_ns = 0.0;
  {
    const ScopedSpan span(tracer, "replay.sim.event_engine");
    epiagg::SimEventEngine engine;
    for (std::size_t i = 0; i < events.pending(); ++i) {
      epiagg::SimEventRecord record;
      record.a = static_cast<NodeId>(i);
      engine.schedule_at(i < events.n ? rng.uniform()
                                      : rng.uniform() * events.latency_hi,
                         record);
    }
    std::size_t h = 0;
    const double seconds = time_s([&] {
      engine.run_until(2.0, [&](epiagg::SimEventRecord& record) {
        engine.schedule_after(incs[h++ % incs.size()], record);
      });
    });
    dispatch_ns = seconds * 1e9 / static_cast<double>(engine.events_processed());
  }

  // ---- sim.payload_arena + protocol: InstanceSet staging and merging ----
  double object_ns = 0.0;
  double merge_ns = 0.0;
  {
    const ScopedSpan span(tracer, "replay.sim.payload_arena");
    constexpr std::size_t kOps = 1'000'000;
    constexpr std::size_t kInFlight = 64;
    const epiagg::InstanceSet source = instance_set(shape.instances);
    epiagg::ObjectArena<epiagg::InstanceSet> arena;
    std::vector<std::uint32_t> ring(kInFlight, epiagg::kNoSlab);
    object_ns = time_s([&] {
                  for (std::size_t op = 0; op < kOps; ++op) {
                    std::uint32_t& slot = ring[op % kInFlight];
                    if (slot != epiagg::kNoSlab) arena.release(slot);
                    slot = arena.acquire();
                    arena.at(slot) = source;
                  }
                }) * 1e9 / static_cast<double>(kOps);
  }
  {
    const ScopedSpan span(tracer, "replay.protocol.instance_set");
    constexpr std::size_t kMerges = 1'000'000;
    epiagg::InstanceSet target = instance_set(shape.instances);
    const epiagg::InstanceSet other = instance_set(shape.instances);
    merge_ns = time_s([&] {
                 for (std::size_t m = 0; m < kMerges; ++m) target.merge_from(other);
               }) * 1e9 / static_cast<double>(kMerges);
    g_sink = target.instance_count();
  }

  // ---- membership.newscast: construction + warm-up, cycles, gossips ----
  double newscast_cycle_ms = 0.0;
  {
    const ScopedSpan span(tracer, "replay.membership.newscast");
    const std::size_t overlay_n = shape.membership ? n : kReferenceOverlayNodes;
    epiagg::NewscastConfig config;
    config.view_size = shape.view;
    std::unique_ptr<epiagg::NewscastNetwork> overlay;
    const double warmup_s = time_s([&] {
      overlay = std::make_unique<epiagg::NewscastNetwork>(overlay_n, config,
                                                          rng.next());
      for (std::size_t c = 0; c < shape.warmup; ++c) overlay->run_cycle();
    });
    newscast_cycle_ms = median_seconds([&] { overlay->run_cycle(); }) * 1e3;
    const std::size_t gossips = overlay_n;
    std::vector<NodeId> initiators(gossips);
    for (NodeId& id : initiators) id = static_cast<NodeId>(rng.below(overlay_n));
    const double gossip_ns = time_s([&] {
                               for (const NodeId id : initiators)
                                 overlay->initiate_gossip(id);
                             }) * 1e9 / static_cast<double>(gossips);
    out["membership.newscast.warmup_s"] = {warmup_s, "s"};
    out["membership.newscast.cycle_ms"] = {newscast_cycle_ms, "ms"};
    out["membership.newscast.gossip_ns"] = {gossip_ns, "ns"};
  }

  // ---- aggregate: the combine() kernel of every value plane ----
  {
    const ScopedSpan span(tracer, "replay.aggregate.combine");
    constexpr std::size_t kLen = 1'000'000;
    std::vector<double> x = normal_values(kLen, rng.next());
    const std::vector<double> y = normal_values(kLen, rng.next());
    double total = 0.0;
    for (const epiagg::Combiner c : shape.combiners) {
      total += median_seconds([&] {
                 for (std::size_t i = 0; i < kLen; ++i)
                   x[i] = epiagg::combine(c, x[i], y[i]);
               }) * 1e9 / static_cast<double>(kLen);
    }
    g_sink = static_cast<std::uint64_t>(std::fabs(x[kLen / 2]) * 1e6);
    out["aggregate.combine_ns"] = {total / static_cast<double>(planes), "ns"};
  }

  // ---- the gap the replays leave in the measured cycle time ----
  double explained_ns = work.draws_per_cycle * rng_draw_ns;
  if (shape.event_engine) {
    // Every message and every wake is one scheduled + dispatched record.
    explained_ns += (work.messages_per_cycle + work.population) * dispatch_ns;
    explained_ns += shape.counting
                        ? work.messages_per_cycle * (object_ns + merge_ns)
                        : work.messages_per_cycle * delivery_ns;
  } else if (shape.membership) {
    explained_ns += newscast_cycle_ms * 1e6 +
                    work.messages_per_cycle / 2.0 * planes * exchange_ns;
  } else {
    // A SEQ pair draw carries its own RNG draw; do not count it twice.
    explained_ns = work.population * (pair_draw_ns + planes * exchange_ns);
  }

  out["core.pair_draw_ns"] = {pair_draw_ns, "ns"};
  out["common.rng_draw_ns"] = {rng_draw_ns, "ns"};
  out["sim.node_store.exchange_ns"] = {exchange_ns, "ns"};
  out["sim.node_store.delivery_ns"] = {delivery_ns, "ns"};
  out["sim.calendar_queue.hold_ns"] = {hold_ns, "ns"};
  out["sim.event_engine.dispatch_ns"] = {dispatch_ns, "ns"};
  out["sim.payload_arena.object_ns"] = {object_ns, "ns"};
  out["protocol.instance_set.merge_ns"] = {merge_ns, "ns"};
  out["sim.run.self_ms_per_cycle"] = {
      work.cycle_ms_mean - explained_ns * 1e-6, "ms"};
}

}  // namespace perfbench
