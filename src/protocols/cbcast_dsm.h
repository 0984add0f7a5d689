// Causal DSM layered over the causal-broadcast substrate — the pathway the
// paper's related-work section describes: "a causal DSM system can be easily
// implemented on a causally ordered message-passing system [8]".
//
//  * write(x, v): causally broadcast ⟨x, v⟩ to the group; the self-delivery
//    applies it locally; acknowledge immediately;
//  * read(x): local replica;
//  * remote deliveries (arriving in causal order by the substrate's
//    guarantee) apply in delivery order: they queue for the apply chain
//    (apply_next), which resumes inline, so a delivery burst applies within
//    the event that delivered it — unless its IS-process crashes, when the
//    parked upcall holds the rest of the burst until the restart.
//
// Functionally this coincides with ANBKH — which is the point: the DSM
// layer shrinks to a dozen lines once causal ordering lives in the
// message-passing substrate. Causal Updating holds (deliveries are causally
// ordered), so interconnection uses IS-protocol 1. The paper's Section-1.2
// argument is reproduced in tests: systems built this way interconnect with
// the IS-protocols exactly like the natively implemented ones, *without*
// having to build a message-passing hierarchy spanning the systems.
#pragma once

#include "common/vec_queue.h"
#include "mcs/mcs_process.h"
#include "msgpass/cbcast.h"

namespace cim::proto {

class CbcastDsmProcess final : public mcs::McsProcess,
                               private mp::CbTransport {
 public:
  explicit CbcastDsmProcess(const mcs::McsContext& ctx);

  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return "cbcast-dsm"; }

  const mp::CbcastMember& member() const { return member_; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;
  bool apply_next() override;

 private:
  // mp::CbTransport — group member indices coincide with local indices.
  void send_to_member(std::uint16_t member, net::MessagePtr msg) override;

  struct Delivery {
    bool own = false;
    mp::CbPayload payload;
  };

  mp::CbcastMember member_;
  VecQueue<Delivery> delivered_;  // delivered, not yet applied
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory cbcast_dsm_protocol();

}  // namespace cim::proto
