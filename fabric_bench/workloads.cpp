#include "workloads.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "flow/plane.hpp"
#include "health/monitor.hpp"
#include "obs/recorder.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/registry.hpp"
#include "trace.hpp"
#include "transport/vmtp.hpp"
#include "viper/host.hpp"

namespace fabric_bench {
namespace {

using namespace srp;

constexpr std::uint64_t kRunChunk = 256;  // events per Simulator::run_steps
constexpr sim::Time kSimTimeCap = 600 * sim::kSecond;
constexpr std::size_t kMaxErrors = 5;

/// Per-workload shape.  A timed round takes 80-170 ms on a 4-core x86 box,
/// so a 20 s run repeats every slice more than 100 times; a slice lasts 1-3
/// ms.  The simulated-time round holds enough operations for a p99 with at
/// least 20 samples beyond it.  The body
/// pools are small so the benchmark's own data stays out of the shared
/// last-level cache, where other tenants' traffic would slow it.
struct Shape {
  const char* name;
  std::size_t body_bytes;  ///< payload bytes after the 8-byte index
  std::size_t bodies;
  std::size_t sources;
  sim::Time max_start_offset;
  RoundShape round;
};

constexpr Shape kShapes[] = {
    {"line8_min", 56, 256, 1, 2 * sim::kMicrosecond, {25'000, 250, 100'000}},
    {"rpc_tokens", 1016, 32, 4, 20 * sim::kMicrosecond, {6'000, 100, 24'000}},
    {"fanin_observed", 16376, 8, 4, 200 * sim::kMicrosecond, {100, 2, 2'000}},
};

const Shape& shape_of(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t fnv(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void mix(std::uint64_t& digest, std::uint64_t v) {
  digest = (digest ^ v) * 0x100000001b3ULL;
  digest ^= digest >> 29;
}

void put_le64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

/// The server application's work: a 64-bit fold over the request body.
std::uint64_t fold(std::span<const std::uint8_t> body) {
  std::uint64_t h = 0x84222325cbf29ce4ULL;
  std::size_t i = 0;
  for (; i + 8 <= body.size(); i += 8) {
    h = (h ^ get_le64(body.data() + i)) * 0x100000001b3ULL;
  }
  for (; i < body.size(); ++i) h = (h ^ body[i]) * 0x100000001b3ULL;
  return h;
}

/// Response of the server application: the 8-byte index, then words
/// derived from the fold of the request body.
void fill_response(wire::Bytes& out, std::uint64_t index, std::uint64_t f,
                   std::size_t size) {
  out.resize(size);
  put_le64(out.data(), index);
  for (std::size_t j = 0; 8 + 8 * j + 8 <= size; ++j) {
    put_le64(out.data() + 8 + 8 * j, f ^ (j * 0x9E3779B97F4A7C15ULL));
  }
}

net::PacketPtr copy_packet(const net::Packet& p) {
  auto c = std::make_shared<net::Packet>();
  c->bytes = p.bytes;
  c->id = p.id;
  c->created = p.created;
  c->flow = p.flow;
  c->hops = p.hops;
  c->truncated = p.truncated;
  c->trace_id = p.trace_id;
  c->route_digest = p.route_digest;
  c->telemetry = p.telemetry;
  return c;
}

void add_port_stats(LayerCounts& c, const net::PortedNode& node) {
  for (int p = 1; p <= node.port_count(); ++p) {
    const auto& s = node.port(p).stats();
    c.port_sent += s.sent;
    c.port_drops += s.dropped_blocked + s.dropped_full + s.dropped_down +
                    s.dropped_injected;
  }
}

/// Shared round machinery: the fabric, the run loop, wall-clock marks,
/// counters and packet capture.
class FabricRound : public Workload {
 public:
  void capture(ReplayInputs& out, std::size_t per_hop) override {
    out.route = route0();
    out.link = net::LinkConfig{link_.rate_bps, link_.prop_delay, link_.mtu};
    if (fabric_.authority() != nullptr) out.authority = *fabric_.authority();
    fill_replay_shape(out);
    const auto& routers = fabric_.routers();
    const std::size_t hops = out.route.route.segments.size() - 1;
    out.images.assign(hops + 1, {});
    for (std::size_t k = 0; k <= hops; ++k) {
      net::TxPort& port =
          k == 0 ? source0().port(out.route.host_out_port)
                 : routers.at(k - 1)->port(out.route.route.segments[k - 1].port);
      auto* sink = &out.images[k];
      const int in_port = port.peer_in_port();
      auto prev = port.on_enqueue;
      port.on_enqueue = [prev, sink, in_port, per_hop](const net::Packet& p) {
        if (prev) prev(p);
        if (sink->size() < per_hop) sink->push_back({copy_packet(p), in_port});
      };
    }
  }

 protected:
  explicit FabricRound(const Inputs& in) : in_(in) {}

  virtual const dir::IssuedRoute& route0() const = 0;
  virtual viper::ViperHost& source0() = 0;
  virtual void fill_replay_shape(ReplayInputs& out) const = 0;
  virtual void collect_extra(LayerCounts& c) const { (void)c; }

  /// Timed directory query (the set-up span "directory.query").
  dir::IssuedRoute query(viper::ViperHost& from, const std::string& fqdn,
                         dir::QueryOptions options = {}) {
    std::vector<dir::IssuedRoute> routes;
    {
      ScopedSpan span("directory.query", 0);
      routes = fabric_.directory().query(fabric_.id_of(from), fqdn, options);
    }
    if (routes.empty()) throw std::runtime_error("no route to " + fqdn);
    return routes.front();
  }

  void begin_round(std::uint64_t ops, std::uint64_t slice_ops, bool traced) {
    ops_ = ops;
    slice_ops_ = slice_ops;
    traced_ = traced;
    result_ = RoundResult{};
    result_.attempted = ops;
    result_.latencies.assign(ops, 0);
    result_.sim_start = -1;
    result_.marks.reserve(ops / slice_ops + 2);
    if (traced) result_.samples.queue_depth.reserve(ops * 4);
  }

  /// Runs the simulator until every operation completed (or nothing is
  /// left to run), then gathers the round's counters.
  RoundResult finish_round() {
    mark();
    while (completed_ < ops_ && sim_.now() < kSimTimeCap) {
      std::uint64_t n = 0;
      {
        ScopedSpan span("sim.run", 0);
        n = sim_.run_steps(kRunChunk);
      }
      result_.events += n;
      if (n == 0) break;
    }
    result_.failed = result_.attempted - ok_;
    LayerCounts& c = result_.counts;
    for (const viper::ViperHost* h : fabric_.hosts()) {
      c.host_sends += h->stats().sent;
      result_.pkts += h->stats().delivered;
      add_port_stats(c, *h);
    }
    for (viper::ViperRouter* r : fabric_.routers()) {
      c.forwards += r->stats().forwarded;
      c.telemetry_stamped += r->stats().telemetry_stamped;
      const auto ts = r->token_cache().stats();
      c.token_hits += ts.hits;
      c.token_misses += ts.misses;
      add_port_stats(c, *r);
      if (const auto* cc = fabric_.controller_of(*r)) {
        c.cc_reports += cc->stats().reports_sent;
        c.cc_shaped += cc->stats().packets_shaped;
      }
    }
    collect_extra(c);
    for (const std::uint64_t v :
         {result_.events, c.host_sends, c.forwards, c.telemetry_stamped,
          c.token_hits, c.token_misses, c.port_sent, c.port_drops,
          c.data_packets_sent, c.retransmits, c.nacks, c.timeouts,
          c.cc_reports, c.cc_shaped, c.spans_recorded,
          static_cast<std::uint64_t>(c.bottleneck_busy), ok_}) {
      mix(result_.digest, v);
    }
    return std::move(result_);
  }

  /// Records one finished operation (ok or not) and takes a wall-clock
  /// mark every slice_ops completions.
  void complete_one(std::uint64_t index, bool ok, sim::Time latency,
                    std::uint64_t payload, std::uint64_t sink_payload) {
    ++completed_;
    if (ok) {
      ++ok_;
      result_.latencies[index] = latency;
      result_.payload += payload;
      result_.sink_payload += sink_payload;
    }
    result_.sim_end = sim_.now();
    mix(result_.digest, index);
    mix(result_.digest, static_cast<std::uint64_t>(latency));
    mix(result_.digest, ok ? 1 : 2);
    if (completed_ % slice_ops_ == 0) mark();
    if (completed_ == ops_ && bottleneck_ != nullptr) {
      result_.counts.bottleneck_busy = bottleneck_->stats().busy_time;
    }
    if (traced_) sample();
  }

  void note_send() {
    if (result_.sim_start < 0) result_.sim_start = sim_.now();
  }

  void fail(std::string what) {
    if (result_.errors.size() < kMaxErrors) result_.errors.push_back(std::move(what));
  }

  void sample() {
    auto& s = result_.samples;
    s.pending_peak =
        std::max<std::uint64_t>(s.pending_peak, sim_.pending_events());
    if (bottleneck_ != nullptr) {
      s.queue_depth.push_back(
          static_cast<std::uint32_t>(bottleneck_->queue_packets()));
    }
  }

  void mark() {
    Mark m;
    m.wall_ns = wall_ns();
    for (const viper::ViperHost* h : fabric_.hosts()) m.pkts += h->stats().delivered;
    m.ops = completed_;
    m.payload = result_.payload;
    m.allocs = AllocCounter::calls();
    m.alloc_bytes = AllocCounter::bytes();
    result_.marks.push_back(m);
  }

  const Inputs& in_;
  sim::Simulator sim_;
  // Observability sinks (fanin_observed only) outlive the fabric wired to
  // them.
  std::unique_ptr<stats::Registry> registry_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<flow::FlowPlane> flow_plane_;
  dir::Fabric fabric_{sim_};
  stats::Registry fault_stats_;
  std::unique_ptr<fault::FaultEngine> faults_;
  net::TxPort* bottleneck_ = nullptr;
  dir::LinkParams link_;  ///< every link: 1 Gb/s, 10 us unless overridden

  std::uint64_t ops_ = 0;
  std::uint64_t slice_ops_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t ok_ = 0;
  bool traced_ = false;
  RoundResult result_;
};

// --- line8_min --------------------------------------------------------------

/// Open loop: one host sends 64 B payloads with exponential gaps of mean
/// 1.5 us (sim time) across eight routers to one sink.  Each send schedules
/// the next from inside its own event, so the generator never pre-fills
/// the event heap.
class Line8 final : public FabricRound {
 public:
  static constexpr int kRouters = 8;
  /// Mean send gap.  At ~0.8 us per packet on the first link this loads it
  /// to ~54%, so more than half the packets queue behind another and the
  /// latency median depends on the seed's send instants.
  static constexpr sim::Time kMeanGap = 1500 * sim::kNanosecond;

  explicit Line8(const Inputs& in) : FabricRound(in), gaps_(in.gap_seed) {
    src_ = &fabric_.add_host("src.bench");
    net::PortedNode* prev = src_;
    for (int i = 1; i <= kRouters; ++i) {
      auto& r = fabric_.add_router(std::string("r") + std::to_string(i));
      fabric_.connect(*prev, r, link_);
      prev = &r;
    }
    sink_ = &fabric_.add_host("sink.bench");
    fabric_.connect(*prev, *sink_, link_);
    if (in.corrupt) {
      fault::FaultPlan plan;
      plan.seed = in.seed;
      plan.lane("r4:p2").corrupt_rate = 0.01;
      faults_ = std::make_unique<fault::FaultEngine>(sim_, plan, fault_stats_);
      faults_->attach(fabric_.routers()[3]->port(2));
    }
    route_ = query(*src_, "sink.bench");
    for (const auto& seg : query(*sink_, "src.bench").route.segments) {
      return_ports_.push_back(seg.port);
    }
    options_.out_port = route_.host_out_port;
    sink_->set_default_handler(
        [this](const viper::Delivery& d) { on_delivery(d); });
    bottleneck_ = &src_->port(route_.host_out_port);
  }

  RoundResult run(std::uint64_t ops, std::uint64_t slice_ops,
                  bool traced) override {
    begin_round(ops, slice_ops, traced);
    seen_.assign(ops, 0);
    sim_.at(in_.start_offsets.at(0), [this] { send_next(); });
    return finish_round();
  }

 private:
  const dir::IssuedRoute& route0() const override { return route_; }
  viper::ViperHost& source0() override { return *src_; }
  void fill_replay_shape(ReplayInputs& out) const override {
    out.request_bytes = 8 + in_.bodies.front().size();
  }

  void send_next() {
    const std::uint64_t seq = sent_;
    ScopedSpan span("bench.send", seq);
    note_send();
    const wire::Bytes& body = in_.bodies[seq % in_.bodies.size()];
    put_le64(payload_.data(), seq);
    std::memcpy(payload_.data() + 8, body.data(), body.size());
    {
      ScopedSpan send("viper.host_send", seq);
      src_->send(route_.route, std::span(payload_.data(), 8 + body.size()),
                 options_);
    }
    ++sent_;
    if (sent_ < ops_) sim_.after(gaps_.exp_interval(kMeanGap), [this] { send_next(); });
    if (traced_) sample();
  }

  void on_delivery(const viper::Delivery& d) {
    const std::size_t size = 8 + in_.bodies.front().size();
    std::uint64_t seq = ~0ULL;
    if (!d.truncated && d.data.size() == size) seq = get_le64(d.data.data());
    ScopedSpan span("bench.deliver", seq);
    bool ok = seq < sent_ && seen_[seq] == 0;
    if (ok) {
      const wire::Bytes& body = in_.bodies[seq % in_.bodies.size()];
      ok = std::memcmp(d.data.data() + 8, body.data(), body.size()) == 0;
      if (!ok) fail(std::string("payload of packet ") + std::to_string(seq) + " differs");
    } else {
      fail(std::string("undeliverable or duplicate packet (size ") +
           std::to_string(d.data.size()) + ")");
    }
    if (ok) {
      const auto& segs = d.return_route.segments;
      ok = segs.size() == return_ports_.size();
      for (std::size_t i = 0; ok && i < segs.size(); ++i) {
        ok = segs[i].port == return_ports_[i];
      }
      if (!ok) fail(std::string("return route of packet ") + std::to_string(seq) +
                    " does not reverse the sender's route");
    }
    // Only an intact delivery claims its sequence number, so a corrupted
    // copy cannot make the intact packet look like a duplicate.
    if (ok) seen_[seq] = 1;
    complete_one(ok ? seq : 0, ok, d.delivered_at - d.sent_at, size, size);
  }

  sim::Rng gaps_;
  viper::ViperHost* src_ = nullptr;
  viper::ViperHost* sink_ = nullptr;
  dir::IssuedRoute route_;
  viper::SendOptions options_;
  std::vector<std::uint8_t> return_ports_;
  std::array<std::uint8_t, 64> payload_{};
  std::vector<std::uint8_t> seen_;
  std::uint64_t sent_ = 0;
};

// --- VMTP closed loops ----------------------------------------------------

/// Closed loop: four VMTP clients each keep at most one transaction
/// outstanding to one server at the far end of a router line.  The server checks every
/// request byte for byte and answers with a digest of it; each client
/// checks the digest.
class VmtpRound : public FabricRound {
 public:
  struct Params {
    int bottleneck_hop = 1;  ///< router (1-based) whose egress toward the
                             ///< sink is the bottleneck
    double bottleneck_bps = 1e9;
    std::size_t response_bytes = 64;
    bool observed = false;  ///< congestion control + every obs plane
    /// Mean of the seeded exponential think time a client waits between a
    /// completion and its next request; 0 issues at once.  Without it the
    /// rpc_tokens clients settle into a collision-free lock step in which
    /// every transaction takes the same simulated time, whatever the seed.
    srp::sim::Time mean_think = 0;
    srp::sim::Time prop_delay = 10 * srp::sim::kMicrosecond;
  };

  static constexpr std::uint64_t kServer = 0x5E;
  static constexpr int kRouters = 4;

  VmtpRound(const Inputs& in, Params params)
      : FabricRound(in), params_(params) {
    link_.prop_delay = params.prop_delay;
    for (std::size_t c = 0; c < in.start_offsets.size(); ++c) {
      Client client;
      client.host = &fabric_.add_host(std::string("c") + std::to_string(c) + ".bench");
      clients_.push_back(std::move(client));
    }
    server_host_ = &fabric_.add_host("srv.bench");
    std::vector<viper::ViperRouter*> line;
    for (int i = 1; i <= kRouters; ++i) {
      line.push_back(&fabric_.add_router(std::string("r") + std::to_string(i)));
    }
    for (Client& c : clients_) fabric_.connect(*c.host, *line.front(), link_);
    for (int i = 0; i + 1 < kRouters; ++i) {
      dir::LinkParams link = link_;
      if (i == params.bottleneck_hop - 1) {
        link.rate_bps = params.bottleneck_bps;
      }
      fabric_.connect(*line[i], *line[i + 1], link);
    }
    fabric_.connect(*line.back(), *server_host_, link_);

    fabric_.enable_tokens(0x70CE25EC ^ in.seed, /*enforce=*/true,
                          tokens::UncachedPolicy::kOptimistic);
    if (params.observed) {
      registry_ = std::make_unique<stats::Registry>();
      recorder_ = std::make_unique<obs::FlightRecorder>();
      flow_plane_ = std::make_unique<flow::FlowPlane>(
          flow::FlowConfig{}, registry_.get(), recorder_.get());
      fabric_.enable_congestion_control();
      fabric_.enable_observability(
          {registry_.get(), recorder_.get(), flow_plane_.get()});
      dir::PathTelemetryConfig telemetry;
      telemetry.sample_period = 16;
      fabric_.enable_path_telemetry(telemetry);
      fabric_.enable_health();
    }

    server_ = std::make_unique<vmtp::VmtpEndpoint>(sim_, *server_host_, kServer);
    server_->serve([this](std::span<const std::uint8_t> req,
                          const viper::Delivery&) { return serve(req); });
    if (params.observed) server_->set_observer(fabric_.observer());
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      Client& cl = clients_[c];
      cl.endpoint =
          std::make_unique<vmtp::VmtpEndpoint>(sim_, *cl.host, 0xC0 + c);
      if (params.observed) {
        cl.endpoint->set_throttle(fabric_.throttle_of(*cl.host));
        cl.endpoint->set_observer(fabric_.observer());
      }
      dir::QueryOptions q;
      q.dest_endpoint = kServer;
      q.account = static_cast<std::uint32_t>(c + 1);
      cl.route = query(*cl.host, "srv.bench", q);
      cl.request.resize(8 + in.bodies.front().size());
    }
    const auto& r0 = clients_.front().route;
    bottleneck_ = &line.at(params.bottleneck_hop - 1)
                       ->port(r0.route.segments.at(params.bottleneck_hop - 1).port);
  }

  RoundResult run(std::uint64_t ops, std::uint64_t slice_ops,
                  bool traced) override {
    begin_round(ops, slice_ops, traced);
    started_.assign(ops, 0);
    think_ = sim::Rng(in_.gap_seed);
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      sim_.at(in_.start_offsets[c], [this, c] { issue(c); });
    }
    return finish_round();
  }

 private:
  struct Client {
    viper::ViperHost* host = nullptr;
    std::unique_ptr<vmtp::VmtpEndpoint> endpoint;
    dir::IssuedRoute route;
    wire::Bytes request;
  };

  const dir::IssuedRoute& route0() const override {
    return clients_.front().route;
  }
  viper::ViperHost& source0() override { return *clients_.front().host; }
  void fill_replay_shape(ReplayInputs& out) const override {
    out.tokens = true;
    out.observed = params_.observed;
    out.request_bytes = clients_.front().request.size();
    out.response_bytes = params_.response_bytes;
    out.max_data_per_packet = vmtp::VmtpConfig{}.max_data_per_packet;
  }
  void collect_extra(LayerCounts& c) const override {
    auto add = [&c](const vmtp::VmtpEndpoint& e) {
      c.data_packets_sent += e.stats().data_packets_sent;
      c.retransmits += e.stats().retransmitted_packets;
      c.nacks += e.stats().nacks_sent;
      c.timeouts += e.stats().timeouts;
    };
    add(*server_);
    for (const Client& cl : clients_) add(*cl.endpoint);
    if (recorder_) c.spans_recorded = recorder_->recorded();
  }

  void issue(std::size_t c) {
    if (issued_ >= ops_) return;
    const std::uint64_t index = issued_++;
    Client& cl = clients_[c];
    const wire::Bytes& body = in_.bodies[index % in_.bodies.size()];
    put_le64(cl.request.data(), index);
    std::memcpy(cl.request.data() + 8, body.data(), body.size());
    note_send();
    started_[index] = sim_.now();
    // (client, index) packed into one word keeps the callback within
    // std::function's small-object buffer.
    const std::uint64_t tag = (index << 8) | c;
    ScopedSpan span("transport.invoke", index);
    cl.endpoint->invoke(cl.route, kServer, cl.request,
                        [this, tag](vmtp::Result r) { on_complete(tag, r); });
  }

  void on_complete(std::uint64_t tag, const vmtp::Result& r) {
    const std::uint64_t index = tag >> 8;
    const std::size_t c = tag & 0xFF;
    ScopedSpan span("bench.complete", index);
    bool ok = r.ok;
    if (!ok) {
      fail(std::string("transaction ") + std::to_string(index) + " failed: " + r.error);
    } else {
      fill_response(expected_, index,
                    in_.body_folds[index % in_.body_folds.size()],
                    params_.response_bytes);
      ok = r.response == expected_;
      if (!ok) fail(std::string("response of transaction ") + std::to_string(index) +
                    " does not match its request");
    }
    const std::size_t request = clients_[c].request.size();
    complete_one(index, ok, sim_.now() - started_[index],
                 request + params_.response_bytes, request);
    if (params_.mean_think == 0) {
      issue(c);
    } else if (issued_ < ops_) {
      sim_.after(think_.exp_interval(params_.mean_think),
                 [this, c] { issue(c); });
    }
  }

  wire::Bytes serve(std::span<const std::uint8_t> req) {
    const std::uint64_t index =
        req.size() >= 8 ? get_le64(req.data()) : ~0ULL;
    ScopedSpan span("bench.serve", index);
    if (traced_) sample();
    const std::size_t body_size = in_.bodies.front().size();
    if (index >= issued_ || req.size() != 8 + body_size ||
        std::memcmp(req.data() + 8,
                    in_.bodies[index % in_.bodies.size()].data(),
                    body_size) != 0) {
      fail("server received a damaged request");
      return {};
    }
    wire::Bytes response;
    fill_response(response, index, fold(req.subspan(8)),
                  params_.response_bytes);
    return response;
  }

  Params params_;
  std::vector<Client> clients_;
  viper::ViperHost* server_host_ = nullptr;
  std::unique_ptr<vmtp::VmtpEndpoint> server_;
  std::vector<sim::Time> started_;
  wire::Bytes expected_;
  sim::Rng think_{0};
  std::uint64_t issued_ = 0;
};

}  // namespace

RoundShape round_shape(const std::string& workload) {
  return shape_of(workload).round;
}

bool known_workload(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return true;
  }
  return false;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   bool corrupt) {
  const Shape& shape = shape_of(workload);
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.corrupt = corrupt;
  sim::Rng rng(seed ^ fnv(workload));
  in.bodies.resize(shape.bodies);
  for (auto& b : in.bodies) {
    b.resize(shape.body_bytes);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    in.body_folds.push_back(fold(b));
  }
  for (std::size_t s = 0; s < shape.sources; ++s) {
    in.start_offsets.push_back(static_cast<sim::Time>(
        rng.uniform_int(0, static_cast<std::uint64_t>(shape.max_start_offset))));
  }
  in.gap_seed = rng.next_u64();
  return in;
}

std::unique_ptr<Workload> make_workload(const Inputs& in) {
  if (in.workload == "line8_min") return std::make_unique<Line8>(in);
  if (in.workload == "rpc_tokens") {
    VmtpRound::Params p;
    // Machine-room links and a short think time load the shared first link
    // enough that most requests queue behind another client's.
    p.prop_delay = sim::kMicrosecond;
    p.mean_think = 5 * sim::kMicrosecond;
    return std::make_unique<VmtpRound>(in, p);
  }
  VmtpRound::Params p;
  p.bottleneck_hop = 2;
  p.bottleneck_bps = 100e6;
  p.response_bytes = 16;
  p.observed = true;
  return std::make_unique<VmtpRound>(in, p);
}

}  // namespace fabric_bench
