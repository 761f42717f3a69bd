// The live-wire workload: live_loopback.
//
// Four net::LiveTransports bound to 127.0.0.1, driven by one thread. The
// generator is an open loop: exchange i is due at start + i / kRate
// whatever happened before it, and its latency is measured from that due
// time, so a stall shows as the wait it imposes on later exchanges. The
// exchange mix is the one churn_md5's nodes serve (66% MonitorPing, 18%
// CvFetch answered with a 27-entry view, 16% Ping), and every exchange is
// followed by two one-way messages (92% NOTIFY, 8% JOIN). Every response and
// message is checked against what its responder or sender must have put
// in it; a timeout or a message that never arrives counts as a failed
// operation.
//
// The untraced phase gives the end-to-end numbers. At --trace 1 a traced
// phase of the same length follows: spans around LiveTransport::send,
// exchangeAsync and poll, endpoint time inside poll, and a per-frame cost
// of the wire codec on the same frame mix.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "net/live_transport.hpp"
#include "net/wire_codec.hpp"
#include "workloads.hpp"

namespace avbench {

using avmon::NodeId;
using avmon::Rng;
namespace net = avmon::net;
namespace sim = avmon::sim;

namespace {

constexpr std::size_t kNodes = 4;
constexpr double kRate = 40000.0;  // offered exchanges per second
constexpr std::size_t kViewEntries = 27;
constexpr std::uint32_t kLoopback = 0x7F000001;
constexpr int kJoinWeight = 7;
constexpr double kNotifyShare = 0.92;  // churn_md5 handles ~11.5 NOTIFYs per JOIN
constexpr std::int64_t kDrainNs = 1'000'000'000;  // > the 750 ms retry ladder
constexpr std::int64_t kLateNs = 1'000'000;  // an exchange issued this late is late
constexpr double kBehindShare = 0.01;  // late share that marks a run behind
constexpr std::size_t kSetups = 25;
constexpr std::size_t kBurst = 4;

enum Kind { kMonitorPing, kCvFetch, kPing };

Kind drawKind(Rng& rng) {
  const double u = rng.uniform01();
  return u < 0.66 ? kMonitorPing : u < 0.84 ? kCvFetch : kPing;
}

/// Responder: answers the three exchanges and checks one-way payloads.
class Responder final : public sim::Endpoint {
 public:
  Responder(NodeId self, std::vector<NodeId> view, bool traced)
      : self_(self), view_(std::move(view)), traced_(traced) {}

  void onMessage(const NodeId& from, const sim::Message& message) override {
    std::optional<ScopedSpan> span;
    if (traced_) span.emplace(handler_);
    if (const auto* n = std::get_if<sim::NotifyMessage>(&message)) {
      if (n->monitor == from && n->target == self_) ++received_; else ++invalid_;
    } else if (const auto* j = std::get_if<sim::JoinMessage>(&message)) {
      if (j->origin == from && j->weight == kJoinWeight) ++received_; else ++invalid_;
    } else {
      ++invalid_;
    }
  }

  sim::RpcResponse onRpc(const NodeId&, const sim::RpcRequest& request) override {
    std::optional<ScopedSpan> span;
    if (traced_) span.emplace(handler_);
    if (std::holds_alternative<sim::CvFetchRequest>(request))
      return sim::CvFetchResponse{view_};
    if (std::holds_alternative<sim::MonitorPingRequest>(request))
      return sim::MonitorPingResponse{true};
    return sim::PingResponse{};
  }

  const std::vector<NodeId>& view() const { return view_; }
  std::uint64_t received_ = 0;
  std::uint64_t invalid_ = 0;
  SpanStat handler_;

 private:
  NodeId self_;
  std::vector<NodeId> view_;
  bool traced_;
};

struct Cluster {
  std::vector<std::unique_ptr<net::LiveTransport>> transports;
  std::vector<std::unique_ptr<Responder>> responders;
};

Cluster openCluster(Rng& rng, bool traced) {
  Cluster c;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto t = std::make_unique<net::LiveTransport>(net::LiveConfig{});
    if (!t->open(NodeId(kLoopback, 0)))
      throw std::runtime_error("cannot bind a UDP socket on 127.0.0.1");
    std::vector<NodeId> view;
    for (std::size_t e = 0; e < kViewEntries; ++e)
      view.push_back(NodeId::fromIndex(static_cast<std::uint32_t>(rng.below(1u << 20))));
    auto r = std::make_unique<Responder>(t->local(), std::move(view), traced);
    t->attach(t->local(), *r);
    t->setUp(t->local(), true);
    c.transports.push_back(std::move(t));
    c.responders.push_back(std::move(r));
  }
  return c;
}

struct Phase {
  std::uint64_t exchanges = 0;
  std::uint64_t oneWay = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t undelivered = 0;
  std::uint64_t invalid = 0;
  double busyS = 0.0;
  double scheduleS = 0.0;
  double cpuS = 0.0;
  double p50Us = 0.0;
  double p99Us = 0.0;
  double lagMaxUs = 0.0;
  std::uint64_t late = 0;
  double outgoingBpsMean = 0.0;
  SpanStat send, call, poll, handler;
  std::uint64_t idlePolls = 0;
  net::LiveCounters counters;
};

/// One open-loop phase of `seconds` over a freshly opened cluster.
Phase runPhase(Rng& rng, double seconds, bool traced) {
  const double cpu0 = processCpuSeconds();
  Cluster c = openCluster(rng, traced);
  Phase ph;
  const std::uint64_t total = static_cast<std::uint64_t>(seconds * kRate);
  ph.scheduleS = static_cast<double>(total) / kRate;
  std::vector<double> latUs;
  latUs.reserve(total);
  std::uint64_t settled = 0;

  const std::int64_t start = nowNs() + 1'000'000;
  const auto dueOf = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kRate);
  };
  const auto pickPair = [&](std::size_t& a, std::size_t& b) {
    a = rng.below(kNodes);
    b = (a + 1 + rng.below(kNodes - 1)) % kNodes;
  };

  std::uint64_t next = 0;
  std::int64_t lagMax = 0;
  std::int64_t busyNs = 0;
  const std::int64_t lastDue = dueOf(total == 0 ? 0 : total - 1);
  for (;;) {
    const std::int64_t passStart = nowNs();
    std::size_t work = 0;
    // Issue at most kBurst due exchanges between polls: after a stall the
    // generator catches up without overrunning the receive buffers.
    for (std::size_t burst = 0;
         burst < kBurst && next < total && dueOf(next) <= nowNs(); ++burst) {
      const std::int64_t due = dueOf(next);
      const std::int64_t lag = nowNs() - due;
      lagMax = std::max(lagMax, lag);
      if (lag > kLateNs) ++ph.late;
      std::size_t a, b;
      pickPair(a, b);
      net::LiveTransport& caller = *c.transports[a];
      const NodeId from = caller.local();
      const NodeId to = c.transports[b]->local();
      const Responder& callee = *c.responders[b];
      const auto done = [&, due](bool ok, bool valid) {
        ++settled;
        if (!ok) {
          ++ph.timeouts;
          return;
        }
        if (!valid) ++ph.invalid;
        latUs.push_back(static_cast<double>(nowNs() - due) / 1e3);
      };
      {
        std::optional<ScopedSpan> span;
        if (traced) span.emplace(ph.call);
        switch (drawKind(rng)) {
          case kMonitorPing:
            caller.exchangeAsync(from, to, sim::MonitorPingRequest{},
                                 [done](std::optional<sim::MonitorPingResponse> r) {
                                   done(r.has_value(), r && r->acknowledged);
                                 });
            break;
          case kCvFetch:
            caller.exchangeAsync(
                from, to, sim::CvFetchRequest{8, 8 * kViewEntries},
                [done, &callee](std::optional<sim::CvFetchResponse> r) {
                  done(r.has_value(), r && r->view == callee.view());
                });
            break;
          case kPing:
            caller.exchangeAsync(from, to, sim::PingRequest{},
                                 [done](std::optional<sim::PingResponse> r) {
                                   done(r.has_value(), true);
                                 });
            break;
        }
      }
      ++ph.exchanges;
      for (int m = 0; m < 2; ++m) {
        std::size_t s, d;
        pickPair(s, d);
        const NodeId src = c.transports[s]->local();
        const NodeId dst = c.transports[d]->local();
        sim::Message msg = rng.chance(kNotifyShare)
                               ? sim::Message(sim::NotifyMessage{src, dst})
                               : sim::Message(sim::JoinMessage{src, kJoinWeight});
        std::optional<ScopedSpan> span;
        if (traced) span.emplace(ph.send);
        c.transports[s]->send(src, dst, std::move(msg));
        ++ph.oneWay;
      }
      ++next;
      ++work;
    }
    for (auto& t : c.transports) {
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(ph.poll);
      const std::size_t n = t->poll(0);
      if (n == 0) ++ph.idlePolls;
      work += n;
    }
    const std::int64_t passEnd = nowNs();
    if (work > 0) busyNs += passEnd - passStart;
    if (next == total) {
      std::uint64_t received = 0;
      for (const auto& r : c.responders) received += r->received_ + r->invalid_;
      if ((settled == total && received == ph.oneWay) || passEnd > lastDue + kDrainNs)
        break;
    }
  }
  ph.cpuS = processCpuSeconds() - cpu0;

  std::uint64_t received = 0, badMessages = 0;
  double bytes = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    received += c.responders[i]->received_;
    badMessages += c.responders[i]->invalid_;
    ph.handler.add(c.responders[i]->handler_);
    const net::LiveCounters& k = c.transports[i]->counters();
    ph.counters.datagramsSent += k.datagramsSent;
    ph.counters.datagramsReceived += k.datagramsReceived;
    ph.counters.rpcRetries += k.rpcRetries;
    ph.counters.rpcTimeouts += k.rpcTimeouts;
    ph.counters.decodeFailures += k.decodeFailures;
    ph.counters.duplicateRequests += k.duplicateRequests;
    bytes += static_cast<double>(c.transports[i]->traffic().bytesSent);
  }
  ph.timeouts += total - settled;  // never settled within the drain
  ph.invalid += badMessages;
  ph.undelivered = ph.oneWay - std::min(ph.oneWay, received + badMessages);
  ph.busyS = static_cast<double>(busyNs) / 1e9;
  ph.lagMaxUs = static_cast<double>(lagMax) / 1e3;
  ph.outgoingBpsMean = bytes / static_cast<double>(kNodes) / ph.scheduleS;
  std::sort(latUs.begin(), latUs.end());
  ph.p50Us = percentileSorted(latUs, 0.50);
  ph.p99Us = percentileSorted(latUs, 0.99);
  return ph;
}

/// Per-frame encode and decode cost over the workload's frame mix.
void codecCost(Rng& rng, double& encodeNs, double& decodeNs) {
  const NodeId a(kLoopback, 40001), b(kLoopback, 40002);
  std::vector<NodeId> view;
  for (std::size_t e = 0; e < kViewEntries; ++e)
    view.push_back(NodeId::fromIndex(static_cast<std::uint32_t>(e)));
  constexpr std::size_t kFrames = 200000;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(kFrames);
  const std::int64_t e0 = nowNs();
  for (std::size_t i = 0; frames.size() < kFrames; ++i) {
    switch (drawKind(rng)) {
      case kMonitorPing:
        frames.push_back(net::encodeRequest(a, i, sim::MonitorPingRequest{}));
        frames.push_back(net::encodeResponse(b, i, sim::MonitorPingResponse{true}));
        break;
      case kCvFetch:
        frames.push_back(net::encodeRequest(a, i, sim::CvFetchRequest{8, 8 * kViewEntries}));
        frames.push_back(net::encodeResponse(b, i, sim::CvFetchResponse{view}));
        break;
      case kPing:
        frames.push_back(net::encodeRequest(a, i, sim::PingRequest{}));
        frames.push_back(net::encodeResponse(b, i, sim::PingResponse{}));
        break;
    }
    for (int m = 0; m < 2; ++m) {
      frames.push_back(rng.chance(kNotifyShare)
                           ? net::encodeMessage(a, sim::NotifyMessage{a, b})
                           : net::encodeMessage(a, sim::JoinMessage{a, kJoinWeight}));
    }
  }
  const std::int64_t e1 = nowNs();
  std::size_t ok = 0;
  for (const auto& f : frames) ok += net::decodeFrame(f.data(), f.size()).has_value();
  const std::int64_t e2 = nowNs();
  if (ok != frames.size()) throw std::runtime_error("codec round trip failed");
  encodeNs = static_cast<double>(e1 - e0) / static_cast<double>(frames.size());
  decodeNs = static_cast<double>(e2 - e1) / static_cast<double>(frames.size());
}

std::string phaseJson(const Phase& p) {
  JsonObject o;
  o.num("exchanges", static_cast<double>(p.exchanges))
      .num("one_way", static_cast<double>(p.oneWay))
      .num("timeouts", static_cast<double>(p.timeouts))
      .num("undelivered", static_cast<double>(p.undelivered))
      .num("invalid", static_cast<double>(p.invalid))
      .num("run_s", p.busyS)
      .num("schedule_s", p.scheduleS)
      .num("cpu_s", p.cpuS)
      .num("rpc_p50_us", p.p50Us)
      .num("rpc_p99_us", p.p99Us)
      .num("gen_lag_max_us", p.lagMaxUs)
      .num("late_share", static_cast<double>(p.late) / static_cast<double>(p.exchanges))
      .num("behind_schedule", static_cast<double>(p.late) >
                                      kBehindShare * static_cast<double>(p.exchanges)
                                  ? 1
                                  : 0)
      .num("outgoing_bps_mean", p.outgoingBpsMean);
  return o.dump();
}

}  // namespace

std::string runLiveWorkload(const Options& opt) {
  Rng rng(opt.seed);

  // Set-up is a few socket binds; take the median of several.
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    Cluster c = openCluster(rng, false);
    setups.push_back(secondsSince(t0));
  }

  const double phaseSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase untraced = runPhase(rng, phaseSeconds, false);
  JsonObject report;
  report.str("lane", "live")
      .raw("setups", jsonNumbers(setups))
      .raw("untraced", phaseJson(untraced));
  if (opt.trace) {
    const Phase traced = runPhase(rng, phaseSeconds, true);
    double encodeNs = 0.0, decodeNs = 0.0;
    codecCost(rng, encodeNs, decodeNs);
    JsonObject layers;
    const auto span = [&layers](const std::string& name, const SpanStat& s) {
      layers.num(name + ".calls", static_cast<double>(s.calls)).num(name + ".s", s.seconds());
    };
    span("net.send", traced.send);
    span("net.call", traced.call);
    span("net.poll", traced.poll);
    layers
        .num("net.poll.idle_ratio", traced.poll.calls == 0
                                        ? 0.0
                                        : static_cast<double>(traced.idlePolls) /
                                              static_cast<double>(traced.poll.calls))
        .num("net.handler_s", traced.handler.seconds())
        .num("net.datagrams_sent", static_cast<double>(traced.counters.datagramsSent))
        .num("net.datagrams_received", static_cast<double>(traced.counters.datagramsReceived))
        .num("net.rpc_retries", static_cast<double>(traced.counters.rpcRetries))
        .num("net.rpc_timeouts", static_cast<double>(traced.counters.rpcTimeouts))
        .num("net.decode_failures", static_cast<double>(traced.counters.decodeFailures))
        .num("net.duplicate_requests", static_cast<double>(traced.counters.duplicateRequests))
        .num("net.codec.encode_ns", encodeNs)
        .num("net.codec.decode_ns", decodeNs);
    report.raw("traced", phaseJson(traced)).raw("layers", layers.dump());
  }
  report.num("peak_rss_mb", peakRssMb());
  return report.dump();
}

}  // namespace avbench
