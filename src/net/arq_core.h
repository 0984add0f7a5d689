// ArqCore: the one ARQ state machine behind every reliable FIFO channel in
// the repo (docs/FAULTS.md "Recovery invariants"). Theorem 1 needs a
// reliable FIFO channel between the two IS-processes of a link; this class
// is the sequence discipline that provides it, written once and driven two
// ways:
//
//  * net::ReliableTransport (the simulator) adds a send window, a holdback
//    map for frames that arrive ahead, RTO/delayed-ack timers and crash
//    windows;
//  * mesh::LinkSession (the TCP mesh) adds a byte bound with blocking
//    senders, the crash spill, heartbeats and re-dialing.
//
// The core is sans-IO: no clock, no locks, no sockets, no observability. It
// owns exactly
//
//  * the send cursor (next sequence number to stamp),
//  * the journal of unacknowledged entries, seq ascending and contiguous —
//    it always holds exactly the seqs [acked(), send_next()),
//  * cumulative-ack trimming of that journal,
//  * the wire cursor: the next journal entry to put on the wire. rewind()
//    points it back at the oldest unacked entry, which is both the
//    simulator's go-back-N retransmission and the mesh's rejoin replay,
//  * the receive cursor and the classification of an inbound seq as a
//    duplicate, the next one, or ahead of a gap,
//  * snapshot()/restore() of the cursors and journal (what the mesh's spill
//    journal persists across a kill -9).
//
// `Payload` is whatever a driver needs to (re)transmit an entry: a message
// plus an attempt counter in the simulator, the encoded frame bytes in the
// mesh.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/vec_queue.h"

namespace cim::net {

/// Classification of an inbound data frame's sequence number.
enum class ArqRx {
  kDuplicate,  // below the receive cursor: already delivered
  kNext,       // exactly the receive cursor: deliver (the cursor advanced)
  kAhead,      // past the receive cursor: a gap precedes it
};

/// Persistent image of one ArqCore: the journal holds the seqs
/// [send_next - unacked.size(), send_next).
template <typename Payload>
struct ArqSnapshot {
  std::uint64_t send_next = 0;
  std::uint64_t recv_next = 0;
  std::vector<Payload> unacked;
};

template <typename Payload>
class ArqCore {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    Payload payload{};
  };

  // ---- send side -----------------------------------------------------------

  /// Stamp the next sequence number on a fresh journal entry and return it
  /// for the driver to fill in. The entry is not on the wire yet: the wire
  /// cursor reaches it through next_to_wire().
  Entry& stamp() {
    journal_.push_back(Entry{send_next_++, Payload{}});
    return journal_.back();
  }

  /// Apply a cumulative ACK (every seq < `cumulative` was received): drop the
  /// covered journal entries, passing each to `on_trim` first. Returns
  /// whether the ACK made progress; stale ACKs change nothing. An ACK beyond
  /// the send cursor covers only what was actually sent.
  template <typename OnTrim>
  bool ack(std::uint64_t cumulative, OnTrim&& on_trim) {
    cumulative = std::min(cumulative, send_next_);
    if (cumulative <= acked()) return false;
    while (!journal_.empty() && journal_.front().seq < cumulative) {
      on_trim(journal_.front());
      journal_.pop_front();
    }
    return true;
  }
  bool ack(std::uint64_t cumulative) {
    return ack(cumulative, [](const Entry&) {});
  }

  /// The next journal entry this wire incarnation has not carried yet, with
  /// the wire cursor advanced past it; null when the wire is caught up.
  Entry* next_to_wire() {
    wire_next_ = std::max(wire_next_, acked());  // acked under the cursor
    if (wire_next_ >= send_next_) return nullptr;
    return &journal_[wire_next_++ - acked()];
  }

  /// Point the wire cursor back at the oldest unacked entry: the following
  /// next_to_wire() drain resends the whole journal in seq order.
  void rewind() { wire_next_ = acked(); }

  std::uint64_t send_next() const { return send_next_; }
  /// The peer's cumulative ACK: every seq below it left the journal.
  std::uint64_t acked() const { return send_next_ - journal_.size(); }
  std::size_t unacked() const { return journal_.size(); }

  // ---- receive side --------------------------------------------------------

  /// Classify an inbound data seq; kNext advances the receive cursor (the
  /// caller must deliver that payload, exactly once).
  ArqRx receive(std::uint64_t seq) {
    if (seq < recv_next_) return ArqRx::kDuplicate;
    if (seq > recv_next_) return ArqRx::kAhead;
    ++recv_next_;
    return ArqRx::kNext;
  }

  /// Next inbound seq to deliver; doubles as the cumulative ACK to send.
  std::uint64_t recv_next() const { return recv_next_; }

  // ---- persistence ---------------------------------------------------------

  ArqSnapshot<Payload> snapshot() const {
    ArqSnapshot<Payload> s;
    s.send_next = send_next_;
    s.recv_next = recv_next_;
    for (const Entry& e : journal_) s.unacked.push_back(e.payload);
    return s;
  }

  /// Replace all state with `s`. The wire cursor starts rewound: nothing in
  /// the restored journal is known to be on any wire.
  void restore(ArqSnapshot<Payload> s) {
    send_next_ = s.send_next;
    recv_next_ = s.recv_next;
    journal_.clear();
    std::uint64_t seq = s.send_next - s.unacked.size();
    for (Payload& p : s.unacked) journal_.push_back(Entry{seq++, std::move(p)});
    rewind();
  }

 private:
  VecQueue<Entry> journal_;      // exactly [acked(), send_next_)
  std::uint64_t send_next_ = 0;  // next seq to stamp
  std::uint64_t wire_next_ = 0;  // next seq to put on the wire
  std::uint64_t recv_next_ = 0;  // next inbound seq to deliver
};

}  // namespace cim::net
