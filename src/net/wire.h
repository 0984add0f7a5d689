// Versioned binary wire format for the messages that cross a link.
//
// The paper's interconnection theorem assumes only "a reliable FIFO channel"
// between the two IS-processes — an opaque byte stream. This codec makes that
// channel realizable: every message that can cross a link (inter-IS pairs,
// transport ARQ frames, the mesh's control and stats frames) has a canonical
// little-endian, length-prefixed byte encoding, so a federation can run over
// loopback byte buffers or real sockets instead of in-process pointer
// handoffs. Intra-system protocol payloads (vector-clock updates, sequencer
// messages) never cross a link, so the codec does not know them.
// docs/WIRE.md is the normative layout description; the golden vectors in
// tests/data/wire_golden_v1.bin pin the format bit-for-bit.
//
// Framing:  [u32 LE body_len][u8 wire_type][u8 version][payload ...]
// where body_len counts everything after the length field (type + version +
// payload). Integers use LEB128 varints, signed values zigzag varints, and
// identifiers/timestamps fixed u64 LE.
//
// Versioning: each wire type carries its own version byte (currently 1
// everywhere). A decoder must accept every version it knows and reject
// unknown ones with a clean DecodeResult error — never UB. Adding fields
// means bumping that type's version and keeping the old branch decodable so
// captured byte streams stay readable.
//
// Instrumentation fields (write ids, send/origin timestamps) ARE encoded,
// as a trailing "trace context" section per type: the paper's wire format is
// just ⟨x, v⟩, but dropping the trace context at a serializing link would
// silently degrade wid-stamped tracing and the propagation-latency metrics
// the rest of the repo promises. docs/WIRE.md marks these fields explicitly.
//
// Errors: decode() never throws on malformed input — truncated, oversized,
// or mutated buffers yield DecodeResult{.error != nullptr}. encode() of an
// unsupported message type is a caller bug and CIM_CHECKs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"

namespace cim::net::wire {

/// Current encoder version, stamped into every frame's version byte.
inline constexpr std::uint8_t kWireVersion = 1;

/// Control-frame version that carries the trailing `c` varint (the rejoin
/// handshake's last-delivered seq). Stamped only when c != 0, so every
/// pre-existing control frame — and every ControlMsg that doesn't use the
/// field — still encodes as version 1, bit-identical to the golden vectors.
inline constexpr std::uint8_t kControlVersion2 = 2;

/// Transport-frame version that carries the trailing heartbeat timestamp
/// triple (ts_orig/ts_rx/ts_tx — the NTP-style four-timestamp exchange,
/// docs/OBSERVABILITY.md "RTT and clock offset"). Stamped only when at least
/// one timestamp is nonzero, so every data frame — and every pure ACK that
/// predates the field — still encodes as version 1, bit-identical to the
/// golden vectors.
inline constexpr std::uint8_t kTransportVersion2 = 2;

/// Upper bound on a frame body (type + version + payload). Guards decoders
/// against absurd length prefixes from corrupt or hostile inputs.
inline constexpr std::size_t kMaxBodyBytes = std::size_t{1} << 20;

/// Nested-frame depth accepted on decode (a TransportFrame carries one
/// nested payload frame; deeper nesting is not produced by any encoder).
inline constexpr int kMaxNestingDepth = 4;

/// Upper bound on StatsFrame entries accepted on decode. A node snapshot is
/// a few dozen gauges; the bound caps attacker-driven allocation.
inline constexpr std::size_t kMaxStatsEntries = 512;

/// Upper bound on one StatsFrame entry key, in bytes.
inline constexpr std::size_t kMaxStatsKeyBytes = 96;

/// Wire type tags, one per encodable message type. Values are the on-wire
/// bytes and must never be renumbered — only appended to. Tags 2–6 are
/// reserved and never reused (intra-system protocol payloads never cross a
/// link); a frame carrying one decodes to the "unknown wire type" error.
enum class WireType : std::uint8_t {
  kControl = 0,         // wire.ctrl     (bridge handshake / teardown)
  kPair = 1,            // is.pair       (isc::PairMsg)
  kTransportFrame = 7,  // tr.data/tr.ack (net::TransportFrame)
  kStats = 8,           // wire.stats    (net::wire::StatsFrame)
};

/// Stable label for a wire type (bench rows, error messages).
const char* wire_type_label(WireType t);

/// Out-of-band control message used by tools/cim_bridge for its handshake
/// and two-phase teardown. Defined here (not in the bridge) so the codec,
/// the golden vectors, and the fuzz tests cover it like any other type.
struct ControlMsg final : Message {
  enum Code : std::uint8_t {
    kHello = 1,
    kDone = 2,
    kBye = 3,
    kJoin = 4,        // mesh join (docs/BRIDGE.md): a=node id, b=topology hash
    kJoinReject = 5,  // join refused: a=rejecting node id, b=reason code
    kRejoin = 6,      // session resume: a=node id, b=session id,
                      // c=last-delivered seq (docs/BRIDGE.md "Failure
                      // behavior")
  };
  std::uint8_t code = kHello;
  std::uint64_t a = 0;  // hello: local system id;  done: pairs sent
  std::uint64_t b = 0;  // hello: wire version;     done: ops completed
  // v2 field (kControlVersion2): the rejoin handshake's last-delivered seq.
  // Encoded only when nonzero — a ControlMsg with c == 0 still produces a
  // bit-identical v1 frame, which is what keeps the golden vectors stable
  // and lets v1 decoders read every frame that predates the field.
  std::uint64_t c = 0;

  const char* type_name() const override { return "wire.ctrl"; }
};

/// Compact metrics snapshot carried up the tree by the stats plane
/// (docs/BRIDGE.md "Stats aggregation"): one frame per node per cadence
/// tick, folded by node 0 into the federation-wide metrics.json. Defined
/// here (not in the mesh) so the codec, decode limits, and fuzz tests cover
/// it like any other type. Keys are short metric names relative to the
/// originating node (e.g. "pairs_sent", "peer.2.rtt_ns"); values are raw
/// gauge/counter readings.
struct StatsFrame final : Message {
  std::uint64_t origin = 0;  // originating node id
  std::uint64_t t_ns = 0;    // steady-clock sample time at the origin
  std::vector<std::pair<std::string, std::int64_t>> entries;

  const char* type_name() const override { return "wire.stats"; }
};

/// Result of decode(): either a message plus the bytes consumed, or a
/// static-string error. Never both.
struct DecodeResult {
  MessagePtr msg;
  std::size_t consumed = 0;
  const char* error = nullptr;

  bool ok() const { return error == nullptr; }
};

/// Append one complete frame encoding `msg` to `out`; returns the number of
/// bytes appended. CIM_CHECKs that the message has a wire type. The buffer is
/// appended to (not cleared) so callers can batch frames or reuse scratch
/// storage across calls without reallocation in steady state.
std::size_t encode(const Message& msg, std::vector<std::uint8_t>& out);

/// Decode one frame from the front of [data, data+size). On success,
/// `consumed` is the full frame length (length prefix included) so callers
/// can iterate a concatenated stream. On failure `msg` is null, `consumed`
/// is 0, and `error` points to a static description; the input is never
/// read out of bounds.
DecodeResult decode(const std::uint8_t* data, std::size_t size);

}  // namespace cim::net::wire
