// Causally ordered broadcast (CBCAST-style) — a message-passing substrate.
//
// Section 1.2 of the paper discusses the related pathway of building large
// causal systems at the message-passing level (Rodrigues & Verissimo; Adly &
// Nagi; Baldoni et al.) and notes that "a causal DSM system can be easily
// implemented on a causally ordered message-passing system [8]". This module
// provides that substrate: a broadcast group whose deliveries respect the
// causal order of broadcasts, implemented with vector clocks (ISIS CBCAST
// discipline). protocols/cbcast_dsm.h layers a causal DSM on top of it,
// demonstrating the pathway inside this repository.
//
// The member is transport-agnostic: it hands outgoing messages to a
// CbTransport (one per member) and is fed incoming messages through
// on_network(); the DSM layer adapts this to the MCS channel mesh.
#pragma once

#include <cstdint>
#include <functional>

#include "common/causal_queue.h"
#include "common/ids.h"
#include "common/value.h"
#include "common/vector_clock.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace cim::mp {

/// Application payload of one broadcast. (Kept concrete — a variable/value
/// pair — because the only in-repo consumer is the DSM layer; a production
/// library would make this a template parameter.)
struct CbPayload {
  VarId var;
  Value value = kInitValue;
  // Instrumentation only, not wire data: the originating write's id.
  WriteId wid;
};

struct CbcastMsg final : net::Message {
  CbPayload payload;
  VectorClock clock;
  std::uint16_t writer = 0;  // the broadcasting member

  const char* type_name() const override { return "cbcast.msg"; }
  std::size_t wire_size() const override {
    return 24 + 4 + 8 + 2 + 8 * clock.size();
  }
  WriteId wid() const override { return payload.wid; }
};

/// Outgoing fan-out, provided by the embedding layer.
class CbTransport {
 public:
  virtual ~CbTransport() = default;
  /// Send `msg` to group member `member` (never the local index).
  virtual void send_to_member(std::uint16_t member, net::MessagePtr msg) = 0;
};

class CbcastMember {
 public:
  /// `deliver` is invoked for every broadcast (own broadcasts deliver
  /// immediately; remote ones when causally ready), in causal order.
  using DeliverFn =
      std::function<void(std::uint16_t sender, const CbPayload& payload)>;

  CbcastMember(std::uint16_t index, std::uint16_t group_size,
               CbTransport& transport, DeliverFn deliver);

  /// Causally broadcast `payload` to the group (self-delivery included).
  void broadcast(const CbPayload& payload);

  /// Feed a message received from the network.
  void on_network(net::MessagePtr msg);

  const VectorClock& clock() const { return clock_; }
  std::size_t buffered() const { return pending_.size(); }
  std::uint64_t delivered() const { return delivered_; }

 private:
  std::uint16_t index_;
  std::uint16_t group_size_;
  CbTransport& transport_;
  DeliverFn deliver_;
  VectorClock clock_;
  CausalQueue<CbcastMsg> pending_;
  std::uint64_t delivered_ = 0;
};

}  // namespace cim::mp
