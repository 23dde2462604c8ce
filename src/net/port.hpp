// Output port: the transmitter end of a simplex link.
//
// Implements the paper's blocked-packet semantics: a packet that finds the
// port busy is *saved* on a priority queue, *dropped* (drop-if-blocked type
// of service), or — for VIPER priorities 6/7 — *preempts* the transmission
// in progress, which is aborted mid-packet and arrives truncated at the
// peer.  Queue order is by priority rank, FIFO within a rank.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/registry.hpp"

namespace srp::net {

/// Static parameters of a simplex link.
struct LinkConfig {
  double rate_bps = 1e9;                   ///< serialization rate
  sim::Time prop_delay = sim::kMicrosecond;  ///< one-way propagation
  std::size_t mtu_bytes = 1500;            ///< maximum transmission unit
};

/// Per-transmission scheduling directives, distilled from the packet's
/// type-of-service by the owning router (protocol-agnostic here).
struct TxMeta {
  int rank = 0;                  ///< higher rank is served first
  bool preempting = false;       ///< may abort a lower-rank transmission
  bool drop_if_blocked = false;  ///< paper's "drop" blocked-packet policy
};

/// Verdict returned by a TxPort fault hook.
enum class FaultVerdict : std::uint8_t {
  kPass,     ///< transmit (the hook may have mutated packet/meta/start)
  kDrop,     ///< discard silently; counted as dropped_injected
  kConsume,  ///< hook took custody; it re-injects via enqueue_unfiltered()
};

/// Generalized fault-injection hook (see src/fault): consulted once per
/// enqueue().  It may mutate the packet, its scheduling metadata and its
/// earliest-start bound in place (corruption, delay jitter), drop the
/// packet, or take custody of it for later re-injection (reordering,
/// duplication).  Exactly one injection path: this hook subsumes the old
/// ad-hoc drop_filter predicate.
using FaultHook = std::function<FaultVerdict(
    PacketPtr& packet, TxMeta& meta, sim::Time& earliest_start)>;

/// Adapts a boolean predicate into a FaultHook dropping matching packets —
/// the old drop_filter semantics, for targeted loss in tests.
FaultHook drop_when(std::function<bool(const Packet&)> predicate);

/// A packet waiting at an output port, with its scheduling directives.
struct QueuedPacket {
  PacketPtr packet;
  TxMeta meta;
  sim::Time enqueue_time = 0;
  sim::Time earliest_start = 0;  ///< cut-through causality bound
};

/// The output port's priority queue: descending rank, FIFO within a rank,
/// held in a ring buffer.  The ring keeps its capacity when it drains and
/// grows (doubling) only past its high-water mark, so a warm port queues
/// and dequeues without allocating.
class TxQueue {
 public:
  /// Front-to-back iteration (congestion control scans waiting packets).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = QueuedPacket;
    using difference_type = std::ptrdiff_t;
    using pointer = const QueuedPacket*;
    using reference = const QueuedPacket&;

    const_iterator() = default;
    const_iterator(const TxQueue* queue, std::size_t index)
        : queue_(queue), index_(index) {}
    reference operator*() const { return (*queue_)[index_]; }
    pointer operator->() const { return &(*queue_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const TxQueue* queue_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated; never shrinks.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The @p i-th waiting packet from the front (0 = next to transmit).
  [[nodiscard]] const QueuedPacket& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] const QueuedPacket& front() const { return (*this)[0]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  /// Inserts behind every packet of equal or higher rank.
  void insert_by_rank(QueuedPacket item);
  /// Removes and returns the front packet.  Requires !empty().
  QueuedPacket pop_front();
  /// Drops every waiting packet; the capacity stays.
  void clear();

 private:
  QueuedPacket& slot(std::size_t i) {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  void grow();

  std::vector<QueuedPacket> slots_;  ///< size() is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Transmitter of one simplex channel, with a bounded priority queue.
///
/// Events per packet.  A transmission's head and tail instants are fixed
/// when it starts (paper §6.1), so the port runs an event only where a
/// decision can change:
/// - the peer's arrival, at the instant the peer hears (Node::hears());
/// - a completion, only when a packet waits behind the transmission or
///   on_depart is set; otherwise the completion settles lazily, when the
///   port is next used or read after it;
/// - no wakeup for a lone packet that may not start yet (a router's
///   decision delay, or the end of the transmission ahead of it): the port
///   commits its start and schedules its arrival at once.  An enqueue or
///   set_up() before that start undoes the commit and schedules the
///   wakeup; a port whose start instants are observed (on_depart,
///   on_queue_change, or an observer's gauge or spans) never commits.
/// Each settled instant keeps the place in the event order its event would
/// have had (Simulator::reserve_id()), so busy(), queue(), queue_packets(),
/// queue_bytes() and stats() read exactly what the events would have left,
/// at every instant.  Readers settle what has happened and never change
/// what will.
class TxPort final : public sim::Simulator::Debtor {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t sent = 0;              ///< completed transmissions
    std::uint64_t bytes_sent = 0;
    std::uint64_t dropped_blocked = 0;   ///< drop-if-blocked while busy
    std::uint64_t dropped_full = 0;      ///< buffer exhausted
    std::uint64_t deflected = 0;         ///< taken by the overflow handler
    std::uint64_t dropped_down = 0;      ///< link was down
    std::uint64_t dropped_injected = 0;  ///< loss injection (tests/benches)
    std::uint64_t preempt_aborts = 0;    ///< transmissions we aborted
    sim::Time busy_time = 0;             ///< cumulative transmitting time

    bool operator==(const Stats&) const = default;
  };

  using Queued = QueuedPacket;

  TxPort(sim::Simulator& sim, std::string name, LinkConfig config);

  /// Points this transmitter at its receiver.
  void connect(Node* peer, int peer_in_port);

  /// Hands a packet to the port.  `earliest_start` lets a cut-through
  /// router forbid transmission before the header has actually arrived.
  void enqueue(PacketPtr packet, TxMeta meta, sim::Time earliest_start = 0);

  /// Hands a packet to the port bypassing the fault hook — the re-injection
  /// path for delayed/duplicated packets, which must not be perturbed a
  /// second time.
  void enqueue_unfiltered(PacketPtr packet, TxMeta meta,
                          sim::Time earliest_start = 0);

  /// Bounds the queue in bytes (the paper's "output buffer space").
  /// Unlimited by default.
  void set_buffer_limit(std::size_t bytes);

  /// Link failure injection: a down link drops everything handed to it and
  /// aborts the transmission in progress.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  [[nodiscard]] bool busy() const {
    settle();
    return transmitting_;
  }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const {
    settle();
    return stats_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Node* peer() const { return peer_; }
  [[nodiscard]] int peer_in_port() const { return peer_in_port_; }

  /// Queue introspection — congestion control reads the source routes of
  /// waiting packets to identify upstream feeders (paper §2.2).
  [[nodiscard]] const TxQueue& queue() const {
    settle();
    return queue_;
  }
  [[nodiscard]] std::size_t queue_bytes() const {
    settle();
    return queue_bytes_;
  }
  [[nodiscard]] std::size_t queue_packets() const {
    settle();
    return queue_.size();
  }

  /// Fault-injection hook; empty (one untaken branch) in normal operation.
  FaultHook fault_hook;

  /// Alternative to dropping on buffer exhaustion (the paper's Blazenet-
  /// style deferral: "looping it back to a previous node ... or entering
  /// it into a local delay line").  Return true if the packet was taken;
  /// false falls through to the normal drop.
  std::function<bool(PacketPtr, TxMeta)> overflow_handler;

  /// Observation hooks for the congestion controller / stats collectors.
  /// Called after a packet is accepted, and after each departure.  Set
  /// them before traffic: on_depart and on_queue_change make the port run
  /// the completion and wakeup events they observe.
  std::function<void(const Packet&)> on_enqueue;
  std::function<void(const Packet&)> on_depart;
  /// Called when the queue length changes (for time-weighted averages).
  std::function<void(sim::Time, std::size_t queued_packets)> on_queue_change;

  /// Serialization time of @p bytes on this link.
  [[nodiscard]] sim::Time tx_time(std::size_t bytes) const {
    return sim::byte_time(bytes, config_.rate_bps);
  }

  /// Wires this port to an observability sink: a `port.<name>.queue_depth`
  /// gauge and a `port.<name>.queue_wait_ps` histogram in the registry,
  /// plus a kTx span per traced-packet transmission in the recorder.  The
  /// metric handles are resolved once here; with no observer every data
  /// path pays exactly one untaken branch.
  void set_observer(const obs::Observer& observer);

  /// The end of the transmission in progress or committed, when it
  /// settles without an event; 0 otherwise.
  [[nodiscard]] sim::Time owed_until() const override;

 private:
  void try_start();
  void start_transmission(Queued item, sim::Time start);
  /// Schedules the peer's arrival of @p item; returns its id (0: no peer).
  sim::EventId schedule_arrival(const Queued& item, sim::Time start,
                                sim::Time end);
  /// Schedules the completion event of the transmission in progress in its
  /// reserved place, if it has none.
  void schedule_completion();
  void complete_transmission();
  void abort_transmission();
  void notify_queue_change();
  /// True when nothing observes the instant a transmission starts or ends.
  [[nodiscard]] bool unobserved() const;
  /// Commits the queue's lone packet to start at (@p start, @p start_id).
  void commit(sim::Time start, sim::EventId start_id);
  /// Returns a commit whose start has not run to the event path.
  void undo_commit();
  /// Applies the lazy completion and committed start the clock has passed.
  void settle() const {
    if ((transmitting_ && completion_event_ == 0) || committed_) {
      const_cast<TxPort*>(this)->settle_now();
    }
  }
  void settle_now();

  sim::Simulator& sim_;
  std::string name_;
  LinkConfig config_;
  Node* peer_ = nullptr;
  int peer_in_port_ = 0;
  bool up_ = true;

  TxQueue queue_;
  std::size_t queue_bytes_ = 0;
  std::size_t buffer_limit_ = std::numeric_limits<std::size_t>::max();

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Gauge* obs_queue_depth_ = nullptr;
  stats::Histogram* obs_queue_wait_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;

  Hears peer_hears_ = Hears::kFirstBit;

  bool transmitting_ = false;
  Queued current_;
  sim::Time current_start_ = 0;
  sim::Time current_end_ = 0;
  sim::EventId current_end_id_ = 0;    ///< the completion's reserved place
  sim::EventId completion_event_ = 0;  ///< 0: the completion settles lazily
  sim::EventId wakeup_event_ = 0;

  // A committed start: queue_.front() begins transmitting at
  // (commit_start_, commit_start_id_); its arrival is already scheduled.
  bool committed_ = false;
  sim::Time commit_start_ = 0;
  sim::EventId commit_start_id_ = 0;
  sim::EventId commit_end_id_ = 0;
  sim::EventId commit_arrival_ = 0;

  Stats stats_;
};

}  // namespace srp::net
