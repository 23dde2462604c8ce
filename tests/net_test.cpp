// Unit tests for the link / output-port model — the timing foundation the
// cut-through results rest on.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "net/ethernet.hpp"
#include "net/lan.hpp"
#include "net/network.hpp"
#include "net/port.hpp"
#include "test_util.hpp"

namespace srp::net {
namespace {

using test::SinkNode;

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  Network net{sim};
  PacketFactory packets;

  PacketPtr make_packet(std::size_t size) {
    return packets.make(wire::Bytes(size, 0x77), sim.now());
  }
};

TEST_F(NetFixture, SerializationAndPropagationTiming) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  // 1 Gb/s, 5 us propagation.
  const auto [pa, pb] = net.duplex(a, b,
                                   LinkConfig{1e9, 5 * sim::kMicrosecond,
                                              1500});
  (void)pb;
  a.port(pa).enqueue(make_packet(1250), TxMeta{}, 0);  // 10 us on the wire
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  const Arrival& arrival = b.arrivals[0];
  EXPECT_EQ(arrival.head, 5 * sim::kMicrosecond);
  EXPECT_EQ(arrival.tail, 15 * sim::kMicrosecond);
  EXPECT_EQ(arrival.in_port, pb);
  EXPECT_EQ(arrival.rate_bps, 1e9);
}

TEST_F(NetFixture, BackToBackPacketsQueue) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).enqueue(make_packet(1250), TxMeta{}, 0);
  a.port(pa).enqueue(make_packet(1250), TxMeta{}, 0);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].head, 0);
  EXPECT_EQ(b.arrivals[1].head, 10 * sim::kMicrosecond);
  EXPECT_EQ(a.port(pa).stats().sent, 2u);
  EXPECT_EQ(a.port(pa).stats().bytes_sent, 2500u);
}

TEST_F(NetFixture, HigherRankServedFirst) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  // First packet occupies the wire; then low before high is enqueued —
  // the high-rank one must still come out ahead of the low-rank one.
  auto first = make_packet(1250);
  auto low = make_packet(100);
  auto high = make_packet(100);
  a.port(pa).enqueue(first, TxMeta{0, false, false}, 0);
  a.port(pa).enqueue(low, TxMeta{0, false, false}, 0);
  a.port(pa).enqueue(high, TxMeta{5, false, false}, 0);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(b.arrivals[1].packet->id, high->id);
  EXPECT_EQ(b.arrivals[2].packet->id, low->id);
}

TEST_F(NetFixture, FifoWithinRank) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  std::vector<std::uint64_t> ids;
  a.port(pa).enqueue(make_packet(1000), TxMeta{}, 0);
  for (int i = 0; i < 3; ++i) {
    auto p = make_packet(100);
    ids.push_back(p->id);
    a.port(pa).enqueue(std::move(p), TxMeta{2, false, false}, 0);
  }
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(b.arrivals[static_cast<std::size_t>(i + 1)].packet->id,
              ids[static_cast<std::size_t>(i)]);
  }
}

TEST_F(NetFixture, DropIfBlockedWhileBusy) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).enqueue(make_packet(1250), TxMeta{}, 0);
  a.port(pa).enqueue(make_packet(100), TxMeta{0, false, true}, 0);
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.port(pa).stats().dropped_blocked, 1u);
}

TEST_F(NetFixture, DropIfBlockedSendsWhenIdle) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).enqueue(make_packet(100), TxMeta{0, false, true}, 0);
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.port(pa).stats().dropped_blocked, 0u);
}

TEST_F(NetFixture, PreemptionAbortsAndTruncates) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  auto victim = make_packet(1250);
  a.port(pa).enqueue(victim, TxMeta{0, false, false}, 0);
  // Let 2 us of the victim go out, then preempt.
  sim.run_until(2 * sim::kMicrosecond);
  auto vip = make_packet(100);
  a.port(pa).enqueue(vip, TxMeta{7, true, false}, 0);
  sim.run();
  EXPECT_TRUE(victim->truncated);
  EXPECT_EQ(a.port(pa).stats().preempt_aborts, 1u);
  // The preemptor got the wire immediately after the abort.
  bool vip_arrived = false;
  for (const auto& arr : b.arrivals) {
    if (arr.packet->id == vip->id) {
      vip_arrived = true;
      EXPECT_LT(arr.tail, 5 * sim::kMicrosecond);
    }
  }
  EXPECT_TRUE(vip_arrived);
}

TEST_F(NetFixture, PreemptorDoesNotAbortPreemptor) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  auto first = make_packet(1250);
  a.port(pa).enqueue(first, TxMeta{7, true, false}, 0);
  a.port(pa).enqueue(make_packet(100), TxMeta{7, true, false}, 0);
  sim.run();
  EXPECT_FALSE(first->truncated);
  EXPECT_EQ(a.port(pa).stats().preempt_aborts, 0u);
  EXPECT_EQ(b.arrivals.size(), 2u);
}

TEST_F(NetFixture, BufferLimitDropsExcess) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).set_buffer_limit(300);
  a.port(pa).enqueue(make_packet(1250), TxMeta{}, 0);  // transmitting
  a.port(pa).enqueue(make_packet(200), TxMeta{}, 0);   // queued (200)
  a.port(pa).enqueue(make_packet(200), TxMeta{}, 0);   // would exceed
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(a.port(pa).stats().dropped_full, 1u);
}

TEST_F(NetFixture, LinkDownDropsAndAborts) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  auto victim = make_packet(1250);
  a.port(pa).enqueue(victim, TxMeta{}, 0);
  a.port(pa).enqueue(make_packet(100), TxMeta{}, 0);
  sim.run_until(sim::kMicrosecond);
  a.port(pa).set_up(false);
  a.port(pa).enqueue(make_packet(100), TxMeta{}, 0);
  sim.run();
  EXPECT_TRUE(victim->truncated);
  EXPECT_EQ(a.port(pa).stats().dropped_down, 2u);  // queued + new
  a.port(pa).set_up(true);
  a.port(pa).enqueue(make_packet(100), TxMeta{}, 0);
  sim.run();
  EXPECT_EQ(a.port(pa).stats().sent, 1u);
}

TEST_F(NetFixture, EarliestStartHonored) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).enqueue(make_packet(100), TxMeta{}, 7 * sim::kMicrosecond);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].head, 7 * sim::kMicrosecond);
}

TEST_F(NetFixture, FaultHookInjectsLoss) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  int count = 0;
  a.port(pa).fault_hook =
      drop_when([&count](const Packet&) { return ++count % 2 == 0; });
  for (int i = 0; i < 4; ++i) {
    a.port(pa).enqueue(make_packet(100), TxMeta{}, 0);
  }
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(a.port(pa).stats().dropped_injected, 2u);
}

TEST_F(NetFixture, FaultHookMayMutateAndDelay) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).fault_hook = [](PacketPtr& packet, TxMeta&,
                             sim::Time& earliest_start) {
    packet->bytes[0] ^= 0xFF;                  // corrupt in place
    earliest_start = 5 * sim::kMicrosecond;    // and add delay
    return FaultVerdict::kPass;
  };
  a.port(pa).enqueue(make_packet(100), TxMeta{}, 0);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].packet->bytes[0], 0x77 ^ 0xFF);
  EXPECT_EQ(b.arrivals[0].head, 5 * sim::kMicrosecond);
}

TEST_F(NetFixture, EnqueueUnfilteredBypassesFaultHook) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).fault_hook = drop_when([](const Packet&) { return true; });
  a.port(pa).enqueue(make_packet(100), TxMeta{}, 0);
  a.port(pa).enqueue_unfiltered(make_packet(100), TxMeta{}, 0);
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.port(pa).stats().dropped_injected, 1u);
}

TEST_F(NetFixture, BusyTimeAccounting) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  a.port(pa).enqueue(make_packet(1250), TxMeta{}, 0);
  a.port(pa).enqueue(make_packet(625), TxMeta{}, 0);
  sim.run();
  EXPECT_EQ(a.port(pa).stats().busy_time, 15 * sim::kMicrosecond);
}

/// One waiting packet in the reference models below.
struct ModelEntry {
  std::uint64_t id = 0;
  int rank = 0;
};

/// Descending rank, FIFO within a rank — the order both models keep.
void model_insert(std::deque<ModelEntry>& queue, ModelEntry entry) {
  auto it = queue.end();
  while (it != queue.begin() && std::prev(it)->rank < entry.rank) --it;
  queue.insert(it, entry);
}

/// Packet ids of a port queue, front to back.
template <class Queue>
std::vector<std::uint64_t> packet_ids(const Queue& queue) {
  std::vector<std::uint64_t> ids;
  for (const auto& q : queue) ids.push_back(q.packet->id);
  return ids;
}

std::vector<std::uint64_t> model_ids(const std::deque<ModelEntry>& queue) {
  std::vector<std::uint64_t> ids;
  for (const ModelEntry& e : queue) ids.push_back(e.id);
  return ids;
}

// The ring against a std::deque model: random rank inserts, pops and
// clears keep the same order, and the ring's capacity only ever grows, and
// only when a backlog outgrows it.
TEST(TxQueueProperty, RingMatchesDequeModel) {
  sim::Rng rng(0x516);
  PacketFactory packets;
  TxQueue ring;
  std::deque<ModelEntry> model;
  for (int op = 0; op < 20000; ++op) {
    SCOPED_TRACE(op);
    const std::size_t capacity = ring.capacity();
    const int what = static_cast<int>(rng.uniform_int(0, 99));
    if (what < 55) {
      QueuedPacket item;
      item.packet = packets.make(wire::Bytes(8), 0);
      item.meta.rank = static_cast<int>(rng.uniform_int(0, 4)) - 1;
      model_insert(model, {item.packet->id, item.meta.rank});
      ring.insert_by_rank(std::move(item));
    } else if (what < 98) {
      if (model.empty()) continue;
      const QueuedPacket popped = ring.pop_front();
      EXPECT_EQ(popped.packet->id, model.front().id);
      model.pop_front();
    } else {
      ring.clear();
      model.clear();
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(packet_ids(ring), model_ids(model));
    EXPECT_GE(ring.capacity(), capacity);
    if (ring.capacity() != capacity) {
      EXPECT_GT(ring.size(), capacity);
    }
  }
}

// The port against a model of its queue discipline: random enqueues (any
// rank, preempting, drop-if-blocked), completions, preempt-aborts and
// link flaps keep the port's queue, counters and transmission order
// exactly where a std::deque model of the paper's rules puts them.
TEST_F(NetFixture, CommittedStartReadsAsQueuedUntilItsInstant) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] =
      net.duplex(a, b, LinkConfig{1e9, sim::kMicrosecond, 1500});
  TxPort& port = a.port(pa);
  // An idle port whose lone packet may not start before 2 us commits the
  // start: the one event is b's arrival at 3 us, with no wakeup.
  port.enqueue(make_packet(1250), TxMeta{}, 2 * sim::kMicrosecond);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(sim::kMicrosecond);
  EXPECT_FALSE(port.busy());
  EXPECT_EQ(port.queue_packets(), 1u);
  EXPECT_EQ(port.queue_bytes(), 1250u);
  sim.run_until(2 * sim::kMicrosecond);
  EXPECT_TRUE(port.busy());
  EXPECT_EQ(port.queue_packets(), 0u);
  EXPECT_EQ(port.queue_bytes(), 0u);
  EXPECT_EQ(port.stats().sent, 0u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.now(), 12 * sim::kMicrosecond);
  EXPECT_EQ(port.stats().sent, 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].head, 3 * sim::kMicrosecond);
}

TEST_F(NetFixture, EnqueueBeforeACommittedStartFallsBackToTheWakeup) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] =
      net.duplex(a, b, LinkConfig{1e9, sim::kMicrosecond, 1500});
  TxPort& port = a.port(pa);
  port.enqueue(make_packet(1250), TxMeta{}, 2 * sim::kMicrosecond);
  sim.at(sim::kMicrosecond, [&] { port.enqueue(make_packet(1250), TxMeta{}); });
  // The second enqueue undoes the commit: the wakeup at 2 us starts the
  // first packet, whose completion at 12 us starts the second.
  EXPECT_EQ(sim.run(), 5u);  // enqueue, wakeup, completion, 2 arrivals
  EXPECT_EQ(sim.now(), 22 * sim::kMicrosecond);
  EXPECT_EQ(port.stats().sent, 2u);
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].head, 3 * sim::kMicrosecond);
  EXPECT_EQ(b.arrivals[1].head, 13 * sim::kMicrosecond);
}

TEST_F(NetFixture, PortQueueMatchesDequeModel) {
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, _] = net.duplex(a, b, LinkConfig{1e9, 0, 1500});
  TxPort& port = a.port(pa);

  sim::Rng rng(0x517);
  std::deque<ModelEntry> queue;
  std::optional<ModelEntry> current;
  bool current_preempts = false;
  bool up = true;
  std::vector<std::uint64_t> started;
  TxPort::Stats expect;
  const auto start_next = [&] {
    if (current || queue.empty() || !up) return;
    current = queue.front();
    current_preempts = current->rank == 7;
    queue.pop_front();
    started.push_back(current->id);
  };

  for (int op = 0; op < 5000; ++op) {
    SCOPED_TRACE(op);
    const int what = static_cast<int>(rng.uniform_int(0, 99));
    if (what < 60) {
      // Rank 7 stands for the preempting priorities.
      const int rank = static_cast<int>(rng.uniform_int(0, 7));
      const TxMeta meta{rank, rank == 7, rng.chance(0.15)};
      PacketPtr packet = make_packet(rng.uniform_int(64, 1500));
      const std::uint64_t id = packet->id;
      port.enqueue(std::move(packet), meta, 0);
      ++expect.enqueued;
      if (!up) {
        ++expect.dropped_down;
      } else {
        if (current && meta.preempting && !current_preempts) {
          ++expect.preempt_aborts;
          current.reset();
        }
        if ((current || !queue.empty()) && meta.drop_if_blocked) {
          ++expect.dropped_blocked;
        } else {
          model_insert(queue, {id, rank});
          start_next();
        }
      }
    } else if (what < 92) {
      // Run the clock until the transmission in progress completes.  A
      // completion with nothing behind it settles without an event, so
      // the clock advances in steps no longer than the shortest packet's
      // transmission: each step crosses at most one completion.
      if (!current) continue;
      const std::uint64_t sent = port.stats().sent;
      const sim::Time step = port.tx_time(64);
      for (int steps = 0; port.stats().sent == sent; ++steps) {
        ASSERT_LT(steps, 100) << "the transmission never completed";
        sim.run_until(sim.now() + step);
      }
      ASSERT_EQ(port.stats().sent, sent + 1);
      ++expect.sent;
      current.reset();
      start_next();
    } else if (up) {
      port.set_up(false);
      up = false;
      // A link going down aborts the transmission in progress.
      if (current) ++expect.preempt_aborts;
      expect.dropped_down += queue.size();
      queue.clear();
      current.reset();
    } else {
      port.set_up(true);
      up = true;
      start_next();
    }
    ASSERT_EQ(packet_ids(port.queue()), model_ids(queue));
    ASSERT_EQ(port.queue_packets(), queue.size());
    ASSERT_EQ(port.busy(), current.has_value());
    std::size_t bytes = 0;
    for (const auto& q : port.queue()) bytes += q.packet->size();
    ASSERT_EQ(port.queue_bytes(), bytes);
    ASSERT_EQ(port.stats().enqueued, expect.enqueued);
    ASSERT_EQ(port.stats().sent, expect.sent);
    ASSERT_EQ(port.stats().dropped_blocked, expect.dropped_blocked);
    ASSERT_EQ(port.stats().dropped_down, expect.dropped_down);
    ASSERT_EQ(port.stats().preempt_aborts, expect.preempt_aborts);
  }
  sim.run();
  // Every transmission the model started reached the peer, in order.
  std::vector<std::uint64_t> arrived;
  for (const Arrival& arrival : b.arrivals) arrived.push_back(arrival.packet->id);
  EXPECT_EQ(arrived, started);
  EXPECT_GT(expect.preempt_aborts, 10u);
  EXPECT_GT(expect.dropped_blocked, 10u);
  EXPECT_GT(expect.dropped_down, 10u);
}

TEST(MacAddr, FormattingAndBroadcast) {
  EXPECT_EQ(MacAddr::from_index(0x0102).to_string(), "02:00:00:00:01:02");
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddr::from_index(1).is_broadcast());
}

TEST(EthernetHeader, RoundTripAndReverse) {
  EthernetHeader h{MacAddr::from_index(1), MacAddr::from_index(2),
                   kEtherTypeSirpent};
  wire::Writer w;
  h.encode(w);
  EXPECT_EQ(w.size(), EthernetHeader::kWireSize);
  wire::Reader r(w.view());
  EXPECT_EQ(EthernetHeader::decode(r), h);
  const EthernetHeader rev = h.reversed();
  EXPECT_EQ(rev.dst, h.src);
  EXPECT_EQ(rev.src, h.dst);
  EXPECT_EQ(rev.reversed(), h);
}

TEST(LanSegment, DeliversByMacAndFloodsBroadcast) {
  sim::Simulator sim;
  Network net(sim);
  PacketFactory packets;
  auto& lan = net.add<LanSegment>("lan0");
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  auto& c = net.add<SinkNode>("c");
  const LinkConfig cfg{1e9, sim::kMicrosecond, 1500};
  const auto [ap, al] = net.duplex(a, lan, cfg);
  const auto [bp, bl] = net.duplex(b, lan, cfg);
  const auto [cp, cl] = net.duplex(c, lan, cfg);
  (void)bp;
  (void)cp;
  const auto mac_a = MacAddr::from_index(1);
  const auto mac_b = MacAddr::from_index(2);
  const auto mac_c = MacAddr::from_index(3);
  lan.register_mac(mac_a, al);
  lan.register_mac(mac_b, bl);
  lan.register_mac(mac_c, cl);

  auto frame = [&](MacAddr dst) {
    wire::Writer w;
    EthernetHeader{dst, mac_a, kEtherTypeSirpent}.encode(w);
    w.bytes(wire::Bytes(50, 0xEE));
    return packets.make(std::move(w).take(), sim.now());
  };

  a.port(ap).enqueue(frame(mac_b), TxMeta{}, 0);
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 0u);

  a.port(ap).enqueue(frame(MacAddr::broadcast()), TxMeta{}, 0);
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(c.arrivals.size(), 1u);
  // Broadcast must not come back to the sender's own port.
  EXPECT_EQ(a.arrivals.size(), 0u);

  a.port(ap).enqueue(frame(MacAddr::from_index(99)), TxMeta{}, 0);
  sim.run();
  EXPECT_EQ(lan.unknown_mac_drops(), 1u);
}

}  // namespace
}  // namespace srp::net
