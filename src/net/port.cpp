#include "net/port.hpp"

#include <algorithm>
#include <utility>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::net {

FaultHook drop_when(std::function<bool(const Packet&)> predicate) {
  return [pred = std::move(predicate)](PacketPtr& packet, TxMeta&,
                                       sim::Time&) {
    return pred(*packet) ? FaultVerdict::kDrop : FaultVerdict::kPass;
  };
}

SRP_HOT_PATH void TxQueue::insert_by_rank(QueuedPacket item) {
  if (size_ == slots_.size()) {
    // The output queue is the paper's "output buffer space": the ring
    // allocates only when a backlog exceeds every earlier one.
    SRP_ALLOC_OK(grow());
  }
  // Descending rank, FIFO within a rank: scan from the back, shifting each
  // lower-rank packet one slot back to open the gap.
  std::size_t pos = size_;
  while (pos > 0 && slot(pos - 1).meta.rank < item.meta.rank) {
    slot(pos) = std::move(slot(pos - 1));
    --pos;
  }
  slot(pos) = std::move(item);
  ++size_;
}

SRP_HOT_PATH QueuedPacket TxQueue::pop_front() {
  SIRPENT_EXPECTS(size_ > 0);
  QueuedPacket item = std::move(slot(0));
  head_ = (head_ + 1) & (slots_.size() - 1);
  --size_;
  return item;
}

void TxQueue::clear() {
  for (std::size_t i = 0; i < size_; ++i) slot(i).packet.reset();
  head_ = 0;
  size_ = 0;
}

void TxQueue::grow() {
  std::vector<QueuedPacket> grown(std::max<std::size_t>(8, 2 * slots_.size()));
  for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move(slot(i));
  slots_.swap(grown);
  head_ = 0;
}

TxPort::TxPort(sim::Simulator& sim, std::string name, LinkConfig config)
    : sim::Simulator::Debtor(sim),
      sim_(sim),
      name_(std::move(name)),
      config_(config) {}

void TxPort::connect(Node* peer, int peer_in_port) {
  peer_ = peer;
  peer_in_port_ = peer_in_port;
  peer_hears_ = peer != nullptr ? peer->hears() : Hears::kFirstBit;
}

void TxPort::set_buffer_limit(std::size_t bytes) { buffer_limit_ = bytes; }

void TxPort::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    const auto instance = stats::metric_component(name_);
    obs_queue_depth_ =
        &observer.registry->gauge("port." + instance + ".queue_depth");
    obs_queue_wait_ =
        &observer.registry->histogram("port." + instance + ".queue_wait_ps");
  } else {
    obs_queue_depth_ = nullptr;
    obs_queue_wait_ = nullptr;
  }
  obs_recorder_ = observer.recorder;
}

void TxPort::notify_queue_change() {
  if (on_queue_change) on_queue_change(sim_.now(), queue_.size());
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
}

SRP_HOT_PATH void TxPort::enqueue(PacketPtr packet, TxMeta meta,
                                  sim::Time earliest_start) {
  if (fault_hook) {
    switch (fault_hook(packet, meta, earliest_start)) {
      case FaultVerdict::kPass:
        break;
      case FaultVerdict::kDrop:
        ++stats_.enqueued;
        ++stats_.dropped_injected;
        return;
      case FaultVerdict::kConsume:
        // The hook re-injects (or drops and counts) the packet itself; it
        // is accounted when it re-enters through enqueue_unfiltered().
        return;
    }
  }
  enqueue_unfiltered(std::move(packet), meta, earliest_start);
}

SRP_HOT_PATH void TxPort::enqueue_unfiltered(PacketPtr packet, TxMeta meta,
                                             sim::Time earliest_start) {
  ++stats_.enqueued;
  if (!up_) {
    ++stats_.dropped_down;
    return;
  }
  settle();
  if (committed_) undo_commit();

  Queued item{std::move(packet), meta, sim_.now(), earliest_start};

  if (transmitting_ && meta.preempting && !current_.meta.preempting) {
    // Paper §2.1: a preemptive-priority packet aborts a non-preemptive
    // transmission in progress; the victim arrives truncated at the peer.
    abort_transmission();
  }

  // "Blocked" per the paper: the packet cannot go straight onto the wire —
  // a transmission is in progress or others are already waiting.
  const bool blocked = transmitting_ || !queue_.empty();
  if (blocked && meta.drop_if_blocked) {
    ++stats_.dropped_blocked;
    return;
  }
  if (queue_bytes_ + item.packet->size() > buffer_limit_) {
    if (overflow_handler && overflow_handler(item.packet, item.meta)) {
      ++stats_.deflected;
      return;
    }
    ++stats_.dropped_full;
    return;
  }
  if (on_enqueue) on_enqueue(*item.packet);
  queue_bytes_ += item.packet->size();
  queue_.insert_by_rank(std::move(item));
  notify_queue_change();
  if (!transmitting_) {
    // If idle, the packet still waits for its cut-through bound via the
    // queue head; try_start() decides when it may actually go.
    try_start();
  } else if (completion_event_ == 0) {
    if (queue_.size() == 1 && unobserved()) {
      // Back to back: the lone packet behind an unobserved transmission
      // starts where that one ends (its completion's place), or at its
      // own bound if that is later.
      const sim::Time bound = queue_.front().earliest_start;
      if (bound <= current_end_) {
        commit(current_end_, current_end_id_);
      } else {
        commit(bound, sim_.reserve_id());
      }
    } else {
      schedule_completion();
    }
  }
}

bool TxPort::unobserved() const {
  return !on_depart && !on_queue_change && obs_queue_depth_ == nullptr &&
         obs_recorder_ == nullptr;
}

SRP_HOT_PATH void TxPort::try_start() {
  if (transmitting_ || queue_.empty() || !up_) return;

  const Queued& front = queue_.front();
  const sim::Time start = std::max(sim_.now(), front.earliest_start);
  if (start > sim_.now()) {
    if (wakeup_event_ != 0) sim_.cancel(wakeup_event_);
    if (queue_.size() == 1 && unobserved()) {
      wakeup_event_ = 0;
      // The wakeup's place in the event order, without the event.
      commit(start, sim_.reserve_id());
      return;
    }
    // SRP_ALLOC_OK(cut-through wakeup event; capture stored inline, so
    // allocation-free once the event queue is warm)
    wakeup_event_ = sim_.at(start, [this] {
      wakeup_event_ = 0;
      try_start();
    });
    return;
  }

  Queued item = queue_.pop_front();
  SIRPENT_INVARIANT(queue_bytes_ >= item.packet->size());
  queue_bytes_ -= item.packet->size();
  // Start first, notify after: observers of the queue change must see the
  // port already busy (time-weighted "in system" statistics depend on it).
  start_transmission(std::move(item), start);
  notify_queue_change();
}

SRP_HOT_PATH void TxPort::start_transmission(Queued item, sim::Time start) {
  SIRPENT_EXPECTS(!transmitting_ && !committed_);
  SIRPENT_EXPECTS(start >= item.earliest_start);
  transmitting_ = true;
  current_ = std::move(item);
  current_start_ = start;
  current_end_ = start + tx_time(current_.packet->size());
  current_end_id_ = sim_.reserve_id();
  completion_event_ = 0;
  // A completion decides something only for a packet waiting behind, or
  // for an on_depart observer; otherwise it settles lazily.
  if (on_depart || !queue_.empty()) schedule_completion();

  const sim::Time queue_wait = start - current_.enqueue_time;
  if (obs_queue_wait_ != nullptr) {
    obs_queue_wait_->record(static_cast<std::uint64_t>(queue_wait));
  }
  if (obs_recorder_ != nullptr && current_.packet->trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = current_.packet->trace_id;
    span.hop = current_.packet->hops;
    span.kind = obs::SpanKind::kTx;
    span.out_port = static_cast<std::uint16_t>(peer_in_port_);
    span.start = current_.enqueue_time;
    span.decision = start;
    span.end = current_end_;
    span.queue_delay = queue_wait;
    span.set_component(name_);
    obs_recorder_->record(span);
  }
  schedule_arrival(current_, start, current_end_);
}

SRP_HOT_PATH sim::EventId TxPort::schedule_arrival(const Queued& item,
                                                  sim::Time start,
                                                  sim::Time end) {
  if (peer_ == nullptr) return 0;
  const sim::Time head = start + config_.prop_delay;
  const sim::Time tail = end + config_.prop_delay;
  Arrival arrival{item.packet, peer_in_port_, head, tail, config_.rate_bps};
  const sim::Time when = peer_hears_ == Hears::kLastBit ? tail : head;
  // SRP_ALLOC_OK(arrival event, one per transmission; the 56-byte capture
  // fits the event queue's inline buffer, so no allocation once warm)
  return sim_.at(when,
                 [peer = peer_, arrival] { peer->on_arrival(arrival); });
}

SRP_HOT_PATH void TxPort::schedule_completion() {
  if (!transmitting_ || completion_event_ != 0) return;
  // SRP_ALLOC_OK(completion event, only with a packet waiting behind or an
  // on_depart observer; capture stored inline, so allocation-free once
  // the event queue is warm)
  completion_event_ = sim_.at(current_end_, current_end_id_,
                              [this] { complete_transmission(); });
}

SRP_HOT_PATH void TxPort::complete_transmission() {
  SIRPENT_EXPECTS(transmitting_);
  ++stats_.sent;
  stats_.bytes_sent += current_.packet->size();
  stats_.busy_time += current_end_ - current_start_;
  completion_event_ = 0;
  transmitting_ = false;
  if (on_depart) on_depart(*current_.packet);
  current_ = Queued{};
  try_start();
}

SRP_HOT_PATH void TxPort::commit(sim::Time start, sim::EventId start_id) {
  SIRPENT_EXPECTS(!committed_ && queue_.size() == 1);
  committed_ = true;
  commit_start_ = start;
  commit_start_id_ = start_id;
  commit_end_id_ = sim_.reserve_id();
  const Queued& front = queue_.front();
  commit_arrival_ =
      schedule_arrival(front, start, start + tx_time(front.packet->size()));
}

void TxPort::undo_commit() {
  SIRPENT_EXPECTS(committed_);
  committed_ = false;
  if (commit_arrival_ != 0) sim_.cancel(commit_arrival_);
  commit_arrival_ = 0;
  if (transmitting_) {
    // Back to back: the packet waits behind the transmission in progress,
    // whose completion starts it.
    schedule_completion();
  } else {
    // SRP_ALLOC_OK(cut-through wakeup event, only when a commit is undone;
    // capture stored inline)
    wakeup_event_ = sim_.at(commit_start_, commit_start_id_, [this] {
      wakeup_event_ = 0;
      try_start();
    });
  }
}

SRP_HOT_PATH void TxPort::settle_now() {
  for (;;) {
    if (transmitting_) {
      if (completion_event_ != 0 ||
          !sim_.ran(current_end_, current_end_id_)) {
        return;
      }
      ++stats_.sent;
      stats_.bytes_sent += current_.packet->size();
      stats_.busy_time += current_end_ - current_start_;
      transmitting_ = false;
      current_ = Queued{};
    }
    if (!committed_ || !sim_.ran(commit_start_, commit_start_id_)) return;
    committed_ = false;
    Queued item = queue_.pop_front();
    queue_bytes_ -= item.packet->size();
    transmitting_ = true;
    current_ = std::move(item);
    current_start_ = commit_start_;
    current_end_ = commit_start_ + tx_time(current_.packet->size());
    current_end_id_ = commit_end_id_;
  }
}

sim::Time TxPort::owed_until() const {
  if (committed_) {
    return commit_start_ + tx_time(queue_.front().packet->size());
  }
  return transmitting_ && completion_event_ == 0 ? current_end_ : 0;
}

void TxPort::abort_transmission() {
  SIRPENT_EXPECTS(transmitting_);
  ++stats_.preempt_aborts;
  stats_.busy_time += sim_.now() - current_start_;
  if (completion_event_ != 0) sim_.cancel(completion_event_);
  completion_event_ = 0;
  // The truncated tail reaches the peer early, but we leave the already
  // scheduled arrival in place and flag the shared packet: receivers check
  // effectively_truncated() when they act on the packet.
  current_.packet->truncated = true;
  transmitting_ = false;
  current_ = Queued{};
}

void TxPort::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    settle();
    if (committed_) undo_commit();
    if (transmitting_) abort_transmission();
    stats_.dropped_down += queue_.size();
    queue_.clear();
    queue_bytes_ = 0;
    notify_queue_change();
    if (wakeup_event_ != 0) {
      sim_.cancel(wakeup_event_);
      wakeup_event_ = 0;
    }
  } else {
    try_start();
  }
}

}  // namespace srp::net
