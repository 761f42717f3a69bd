// The simulator workloads: churn_md5, churn_sharded and stat_scale.
//
// Each rep builds a ScenarioRunner in-process and times the three calls a
// user of the harness makes: construction (setup), run(), and
// collectMetrics(). Untraced reps call the stock "avmon" protocol. Traced
// reps run the same scenario under "avmon_traced", a Protocol registered
// here that wraps AvmonProtocol and reaches the layers through public
// seams only:
//   * selector: each shard's MemoizedMonitorSelector wraps a timing
//     MonitorSelector around the runner's hash selector, so every memo
//     miss (one real hash evaluation) is counted and timed;
//   * handlers: a timing sim::Endpoint is re-attached over every node
//     (Network::attach only swaps the endpoint pointer);
//   * lifecycle: join/leave are timed in the wrapper's onJoin/onLeave.
// Spans record self time, so nested spans (a memo miss inside a NOTIFY
// handler) are counted once, and the traced run's spans plus
// experiments.unattributed_s add up to its run_s.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "avmon/monitor_selector.hpp"
#include "avmon/node.hpp"
#include "bench_util.hpp"
#include "experiments/metrics.hpp"
#include "experiments/protocol.hpp"
#include "experiments/protocol_registry.hpp"
#include "experiments/protocols/avmon_protocol.hpp"
#include "experiments/scenario.hpp"
#include "golden_hash.hpp"
#include "workloads.hpp"

namespace avbench {

using avmon::AvmonNode;
using avmon::MemoizedMonitorSelector;
using avmon::MonitorSelector;
using avmon::NodeId;
namespace exp = avmon::experiments;
namespace sim = avmon::sim;

namespace {

// ---------------------------------------------------------------- tracing

class TimingSelector final : public MonitorSelector {
 public:
  explicit TimingSelector(const MonitorSelector& inner) : inner_(inner) {}
  bool isMonitor(const NodeId& observer, const NodeId& target) const override {
    ScopedSpan span(stat_);
    return inner_.isMonitor(observer, target);
  }
  std::string describe() const override { return inner_.describe(); }
  const SpanStat& stat() const { return stat_; }

 private:
  const MonitorSelector& inner_;
  mutable SpanStat stat_;  // one selector per shard: single-threaded
};

constexpr std::size_t kMessageKinds = std::variant_size_v<sim::Message>;
constexpr std::size_t kRpcKinds = std::variant_size_v<sim::RpcRequest>;

/// Per-node handler and lifecycle accumulators (touched only by the
/// node's home shard).
class TimingEndpoint final : public sim::Endpoint {
 public:
  explicit TimingEndpoint(AvmonNode& inner) : inner_(inner) {}

  void onMessage(const NodeId& from, const sim::Message& message) override {
    ScopedSpan span(message_[message.index()]);
    inner_.onMessage(from, message);
  }
  sim::RpcResponse onRpc(const NodeId& from,
                         const sim::RpcRequest& request) override {
    ScopedSpan span(rpc_[request.index()]);
    return inner_.onRpc(from, request);
  }

  SpanStat message_[kMessageKinds];
  SpanStat rpc_[kRpcKinds];
  SpanStat join_;
  SpanStat leave_;

 private:
  AvmonNode& inner_;
};

class TracedAvmonProtocol final : public exp::Protocol {
 public:
  std::string name() const override { return "avmon_traced"; }

  void build(const exp::ProtocolContext& ctx) override {
    world_ = &ctx.world;
    for (std::size_t s = 0; s < ctx.memoSelectors.size(); ++s) {
      timers_.push_back(std::make_unique<TimingSelector>(ctx.selector));
      memos_.push_back(std::make_unique<MemoizedMonitorSelector>(*timers_.back()));
    }
    const exp::ProtocolContext traced{ctx.scenario, ctx.effectiveN, ctx.config,
                                      ctx.world,    ctx.trace,      ctx.hashFn,
                                      ctx.selector, memos_,         ctx.rootRng,
                                      ctx.adversary};
    const auto start = Clock::now();
    inner_.build(traced);
    buildSeconds_ = secondsSince(start);

    // Trace nodes are registered first, so global index == trace position.
    endpoints_.reserve(ctx.trace.nodes().size());
    for (const auto& nt : ctx.trace.nodes()) {
      endpoints_.push_back(
          std::make_unique<TimingEndpoint>(*inner_.mutableAvmonNode(nt.id)));
      ctx.world.netFor(nt.id).attach(nt.id, *endpoints_.back());
    }
  }

  void onJoin(const NodeId& id, bool firstJoin) override {
    ScopedSpan span(endpointOf(id).join_);
    inner_.onJoin(id, firstJoin);
  }
  void onLeave(const NodeId& id) override {
    ScopedSpan span(endpointOf(id).leave_);
    inner_.onLeave(id);
  }
  void onDeath(const NodeId& id) override { inner_.onDeath(id); }

  void forEachNode(const std::function<void(const NodeId&)>& fn) const override {
    inner_.forEachNode(fn);
  }
  std::optional<avmon::SimDuration> discoveryDelay(const NodeId& id,
                                                   std::size_t k) const override {
    return inner_.discoveryDelay(id, k);
  }
  std::size_t memoryEntries(const NodeId& id) const override {
    return inner_.memoryEntries(id);
  }
  std::uint64_t hashChecks(const NodeId& id) const override {
    return inner_.hashChecks(id);
  }
  std::uint64_t uselessPings(const NodeId& id) const override {
    return inner_.uselessPings(id);
  }
  bool isMonitoring(const NodeId& id) const override {
    return inner_.isMonitoring(id);
  }
  std::vector<NodeId> monitorsOf(const NodeId& id) const override {
    return inner_.monitorsOf(id);
  }
  void visitMonitorsOf(const NodeId& id,
                       const std::function<void(const NodeId&)>& fn) const override {
    inner_.visitMonitorsOf(id, fn);
  }
  std::optional<exp::EstimateSample> estimate(const NodeId& monitor,
                                              const NodeId& target) const override {
    return inner_.estimate(monitor, target);
  }
  const AvmonNode* avmonNode(const NodeId& id) const override {
    return inner_.avmonNode(id);
  }
  AvmonNode* mutableAvmonNode(const NodeId& id) override {
    return inner_.mutableAvmonNode(id);
  }

  double buildSeconds() const { return buildSeconds_; }
  const std::vector<std::unique_ptr<TimingSelector>>& timers() const { return timers_; }
  const std::vector<std::unique_ptr<MemoizedMonitorSelector>>& memos() const {
    return memos_;
  }
  const std::vector<std::unique_ptr<TimingEndpoint>>& endpoints() const {
    return endpoints_;
  }

 private:
  TimingEndpoint& endpointOf(const NodeId& id) {
    return *endpoints_[world_->globalIndexOf(id)];
  }

  exp::AvmonProtocol inner_;
  sim::ShardedSimulator* world_ = nullptr;
  std::vector<std::unique_ptr<TimingSelector>> timers_;
  std::vector<std::unique_ptr<MemoizedMonitorSelector>> memos_;
  std::vector<std::unique_ptr<TimingEndpoint>> endpoints_;
  double buildSeconds_ = 0.0;
};

void registerTracedProtocol() {
  static const bool registered = [] {
    exp::ProtocolRegistry::instance().add(
        {"avmon_traced", "AVMON with benchmark timing wrappers", /*maxShards=*/0,
         [] { return std::make_unique<TracedAvmonProtocol>(); }});
    return true;
  }();
  (void)registered;
}

// -------------------------------------------------------------- workloads

constexpr std::size_t kExtraSetups = 2;
constexpr double kCheapSetupShare = 0.01;  // of a full rep
constexpr std::uint64_t kSeedStride = 1'000'003;

std::string scenarioSpec(const std::string& workload, bool tiny,
                         std::uint64_t seed) {
  std::string spec;
  if (workload == "churn_md5" || workload == "churn_sharded") {
    spec = "model = SYNTH\n";
    spec += tiny ? "n = 200\n" : "n = 2000\n";
    spec += "warmup_min = 5\nhorizon_min = 10\n";
    spec += workload == "churn_md5" ? "hash = md5\nshards = 1\n"
                                    : "hash = splitmix64\nshards = 4\n";
  } else if (workload == "stat_scale") {
    // examples/specs/million_node_smoke.spec at n = 200000.
    spec = "model = STAT\n";
    spec += tiny ? "n = 2000\n" : "n = 200000\n";
    spec +=
        "horizon_min = 3\nwarmup_min = 1\nhash = splitmix64\ncvs = 4\nk = 1\n"
        "shards = 4\nhistory = compact\nmetrics.window = 60\n"
        "metrics.reducers = summary\n";
  } else {
    throw std::invalid_argument("unknown sim workload '" + workload + "'");
  }
  return spec + "seed = " + std::to_string(seed) + "\n";
}

exp::Scenario makeScenario(const Options& opt, bool tiny, std::uint64_t seed) {
  exp::Scenario scenario = exp::Scenario::fromSpec(scenarioSpec(opt.workload, tiny, seed));
  if (opt.shards != 0) scenario.shards = opt.shards;
  return scenario;
}

double meanOf(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Rep {
  std::uint64_t seed = 0;
  bool traced = false;
  double setupS = 0.0;
  double runS = 0.0;
  double cpuS = 0.0;
  double collectS = 0.0;
  double runCpuS = 0.0;
  std::uint64_t fingerprint = 0;
  JsonObject outputs;  // deterministic simulated results
  JsonObject layers;   // traced reps only
};

void addOutputs(const exp::ScenarioRunner& runner, const exp::MetricSet& set,
                JsonObject& out) {
  std::vector<double> delays = runner.discoveryDelaysSeconds(1);
  std::sort(delays.begin(), delays.end());
  out.num("measured", static_cast<double>(runner.measuredIds().size()))
      .num("discovery_p50_s", percentileSorted(delays, 0.50))
      .num("discovery_p95_s", percentileSorted(delays, 0.95))
      .num("discovered_fraction", runner.discoveredFraction(1))
      .num("accuracy_abs_error", set.accuracyMeanAbsError().value_or(0.0))
      .num("memory_entries_mean", meanOf(runner.memoryEntries(false)))
      .num("outgoing_bps_mean", meanOf(runner.outgoingBytesPerSecond()))
      .num("events", static_cast<double>(runner.world().executedEvents()));
}

void addLayers(const exp::ScenarioRunner& runner, const Rep& rep,
               double protocolBuildS, JsonObject& out) {
  const auto& traced = dynamic_cast<const TracedAvmonProtocol&>(runner.protocol());

  SpanStat hash;
  std::uint64_t memoEntries = 0;
  for (const auto& t : traced.timers()) hash.add(t->stat());
  for (const auto& m : traced.memos()) memoEntries += m->cacheSize();

  SpanStat message[kMessageKinds], rpc[kRpcKinds], join, leave;
  for (const auto& e : traced.endpoints()) {
    for (std::size_t i = 0; i < kMessageKinds; ++i) message[i].add(e->message_[i]);
    for (std::size_t i = 0; i < kRpcKinds; ++i) rpc[i].add(e->rpc_[i]);
    join.add(e->join_);
    leave.add(e->leave_);
  }

  std::uint64_t checks = 0;
  avmon::NodeMetrics sums;
  runner.protocol().forEachNode([&](const NodeId& id) {
    checks += runner.protocol().hashChecks(id);
    const avmon::NodeMetrics& m = runner.node(id).metrics();
    sums.notifiesSent += m.notifiesSent;
    sums.cvFetches += m.cvFetches;
    sums.monitoringPingsSent += m.monitoringPingsSent;
    sums.uselessPings += m.uselessPings;
    sums.forgetfulSuppressed += m.forgetfulSuppressed;
  });

  double spans = rep.collectS + hash.seconds() + join.seconds() + leave.seconds();
  for (const auto& s : message) spans += s.seconds();
  for (const auto& s : rpc) spans += s.seconds();

  const auto& world = runner.world();
  std::uint64_t bytesSent = 0;
  for (std::size_t s = 0; s < world.shardCount(); ++s)
    bytesSent += world.netOf(s).totalTraffic().bytesSent;

  out.num("experiments.protocol_build_s", protocolBuildS)
      .num("experiments.world_build_s", rep.setupS - protocolBuildS)
      .num("experiments.collect_s", rep.collectS)
      .num("experiments.unattributed_s", rep.runS - spans);

  out.num("avmon.selector.checks", static_cast<double>(checks))
      .num("avmon.selector.hash_calls", static_cast<double>(hash.calls))
      .num("avmon.selector.hash_s", hash.seconds())
      .num("avmon.selector.memo_hit_ratio",
           checks == 0 ? 0.0
                       : 1.0 - static_cast<double>(hash.calls) /
                                   static_cast<double>(checks))
      .num("avmon.selector.memo_entries", static_cast<double>(memoEntries));

  const auto span = [&out](const std::string& name, const SpanStat& s) {
    out.num(name + ".calls", static_cast<double>(s.calls)).num(name + ".s", s.seconds());
  };
  span("avmon.on_message.join", message[0]);
  span("avmon.on_message.notify", message[1]);
  span("avmon.on_message.force_add", message[2]);
  span("avmon.on_rpc.ping", rpc[0]);
  span("avmon.on_rpc.cv_fetch", rpc[1]);
  span("avmon.on_rpc.swap", rpc[2]);
  span("avmon.on_rpc.monitor_ping", rpc[3]);
  span("avmon.join", join);
  span("avmon.leave", leave);
  out.num("avmon.notifies_sent", static_cast<double>(sums.notifiesSent))
      .num("avmon.cv_fetches", static_cast<double>(sums.cvFetches))
      .num("avmon.monitoring_pings", static_cast<double>(sums.monitoringPingsSent))
      .num("avmon.useless_pings", static_cast<double>(sums.uselessPings))
      .num("avmon.forgetful_suppressed", static_cast<double>(sums.forgetfulSuppressed));

  const double events = static_cast<double>(world.executedEvents());
  out.num("sim.events", events)
      .num("sim.events_per_s", events / rep.runS)
      .num("sim.delivered", static_cast<double>(world.delivered()))
      .num("sim.lost", static_cast<double>(world.lost()))
      .num("sim.bytes_sent", static_cast<double>(bytesSent))
      .num("sim.windows", static_cast<double>(world.windowsRun()))
      .num("sim.handoffs", static_cast<double>(world.handoffsCarried()))
      .num("sim.cpu_per_wall", rep.runCpuS / rep.runS);
}

Rep runRep(exp::Scenario scenario, bool traced) {
  Rep rep;
  rep.seed = scenario.seed;
  rep.traced = traced;
  if (traced) scenario.protocol = "avmon_traced";

  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  exp::ScenarioRunner runner(std::move(scenario));
  rep.setupS = secondsSince(t0);

  const double cpu1 = processCpuSeconds();
  const auto t1 = Clock::now();
  runner.run();
  const auto t2 = Clock::now();
  {
    const exp::MetricSet set = exp::collectMetrics(runner);
    rep.collectS = secondsSince(t2);
    rep.runS = secondsSince(t1);
    const double cpu2 = processCpuSeconds();
    rep.cpuS = cpu2 - cpu0;
    rep.runCpuS = cpu2 - cpu1;
    addOutputs(runner, set, rep.outputs);
  }
  rep.fingerprint = exp::summaryHash(runner);
  if (traced) {
    const auto& protocol = dynamic_cast<const TracedAvmonProtocol&>(runner.protocol());
    addLayers(runner, rep, protocol.buildSeconds(), rep.layers);
  }
  return rep;
}

std::uint64_t fingerprintOf(exp::Scenario scenario) {
  exp::ScenarioRunner runner(std::move(scenario));
  runner.run();
  return exp::summaryHash(runner);
}

}  // namespace

std::string runSimWorkload(const Options& opt) {
  registerTracedProtocol();
  const bool tiny = opt.tiny;
  // Canary: the same configuration at the tiny size and its pinned seed,
  // run first on every invocation so a protocol change is caught whatever
  // --seed the caller passes.
  const std::uint64_t canary =
      fingerprintOf(makeScenario(opt, /*tiny=*/true, defaultSeed(opt.workload)));

  const auto start = Clock::now();
  std::vector<Rep> reps;
  std::size_t failed = 0;
  double slowest = 0.0;
  // Peak RSS as of the first scenario: later scenarios in the same process
  // only add allocator fragmentation, which varies from run to run.
  double peakRss = 0.0;
  // Rep j plays scenario seed opt.seed + j * kSeedStride, untraced, and at
  // --trace 1 traced as well. One world's cost moves by 10-15% with its
  // seed, so a run reports across several members of the family its seed
  // selects rather than repeating one world. Cheap set-ups are also timed
  // on their own before each rep, so setup_s is a median of many samples
  // spread over the whole run (a shared host's speed can shift within
  // seconds).
  std::vector<double> extraSetups;
  for (std::uint64_t j = 0;; ++j) {
    const auto repStart = Clock::now();
    const std::uint64_t seed = opt.seed + j * kSeedStride;
    const exp::Scenario scenario = makeScenario(opt, tiny, seed);
    if (j == 0 || median(extraSetups) < kCheapSetupShare * slowest) {
      for (std::size_t k = 0; k < kExtraSetups; ++k) {
        const auto t0 = Clock::now();
        exp::ScenarioRunner runner(scenario);
        extraSetups.push_back(secondsSince(t0));
      }
    }
    for (const bool traced : {false, true}) {
      if (traced && !opt.trace) continue;
      try {
        reps.push_back(runRep(scenario, traced));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "avbench: %s seed %llu failed: %s\n", opt.workload.c_str(),
                     static_cast<unsigned long long>(seed), e.what());
        ++failed;
      }
    }
    slowest = std::max(slowest, secondsSince(repStart));
    if (j == 0) peakRss = peakRssMb();
    if (failed > 0 || secondsSince(start) + slowest > opt.seconds) break;
  }

  std::vector<double> setups;
  for (const Rep& r : reps)
    if (!r.traced) setups.push_back(r.setupS);
  setups.insert(setups.end(), extraSetups.begin(), extraSetups.end());

  std::vector<std::string> repJson;
  for (const Rep& r : reps) {
    JsonObject o;
    o.str("seed", std::to_string(r.seed))
        .raw("traced", r.traced ? "true" : "false")
        .num("setup_s", r.setupS)
        .num("run_s", r.runS)
        .num("cpu_s", r.cpuS)
        .str("fingerprint", hex64(r.fingerprint))
        .raw("outputs", r.outputs.dump());
    if (r.traced) o.raw("layers", r.layers.dump());
    repJson.push_back(o.dump());
  }
  JsonObject report;
  report.str("lane", "sim")
      .str("canary", hex64(canary))
      .num("failed_reps", static_cast<double>(failed))
      .raw("setups", jsonNumbers(setups))
      .raw("reps", jsonArray(repJson))
      .num("peak_rss_mb", peakRss);
  return report.dump();
}

}  // namespace avbench
