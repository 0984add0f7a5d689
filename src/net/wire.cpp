#include "net/wire.h"

#include <cstring>
#include <memory>

#include "common/check.h"
#include "interconnect/pair_msg.h"

namespace cim::net::wire {
namespace {

using Buf = std::vector<std::uint8_t>;

// ---- primitive writers -----------------------------------------------------

void put_u8(Buf& out, std::uint8_t v) { out.push_back(v); }

void put_u64le(Buf& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_varint(Buf& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_zigzag(Buf& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

void put_time(Buf& out, sim::Time t) {
  put_u64le(out, static_cast<std::uint64_t>(t.ns));
}

// ---- primitive reader ------------------------------------------------------

// Bounds-checked cursor over the frame body. Every getter degrades to a
// sticky fail bit on overrun, so decoders can read a whole payload straight
// through and check fail() once at the end — no partial-object UB.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool fail() const { return fail_; }
  std::size_t remaining() const { return size_ - pos_; }
  const std::uint8_t* cursor() const { return data_ + pos_; }
  void advance(std::size_t n) {
    if (n > remaining()) {
      fail_ = true;
      pos_ = size_;
    } else {
      pos_ += n;
    }
  }

  std::uint8_t u8() {
    if (remaining() < 1) {
      fail_ = true;
      return 0;
    }
    return data_[pos_++];
  }

  std::uint64_t u64le() {
    if (remaining() < 8) {
      fail_ = true;
      pos_ = size_;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) {
        fail_ = true;
        return 0;
      }
      const std::uint8_t byte = data_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    fail_ = true;  // > 10 bytes: not a valid varint
    return 0;
  }

  std::int64_t zigzag() {
    const std::uint64_t raw = varint();
    return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  sim::Time time() { return sim::Time{static_cast<std::int64_t>(u64le())}; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

// ---- per-type payload encoders (layouts documented in docs/WIRE.md) --------

void encode_pair(Buf& out, const isc::PairMsg& m) {
  put_varint(out, m.var.value);
  put_zigzag(out, m.value);
  // Trace context.
  put_time(out, m.sent_at);
  put_time(out, m.origin_time);
  put_u64le(out, m.write_id.value);
}

void encode_control(Buf& out, const ControlMsg& m) {
  put_u8(out, m.code);
  put_varint(out, m.a);
  put_varint(out, m.b);
  if (m.c != 0) put_varint(out, m.c);  // v2 tail (see encode_body)
}

void encode_stats(Buf& out, const StatsFrame& m) {
  put_varint(out, m.origin);
  put_u64le(out, m.t_ns);
  put_varint(out, m.entries.size());
  for (const auto& e : m.entries) {
    put_varint(out, e.first.size());
    out.insert(out.end(), e.first.begin(), e.first.end());
    put_zigzag(out, e.second);
  }
}

// True when the frame carries the v2 heartbeat timestamp tail (see
// kTransportVersion2): only heartbeats stamp these, so data frames stay v1.
bool transport_has_timestamps(const TransportFrame& m) {
  return m.ts_orig != 0 || m.ts_rx != 0 || m.ts_tx != 0;
}

bool encode_body(const Message& msg, Buf& out);

void encode_transport_frame(Buf& out, const TransportFrame& m) {
  put_varint(out, m.seq);
  put_varint(out, m.ack);
  put_u8(out, m.payload ? 1 : 0);
  if (m.payload) {
    const bool ok = [&] {
      const std::size_t len_pos = out.size();
      out.insert(out.end(), 4, 0);
      const std::size_t body_pos = out.size();
      if (!encode_body(*m.payload, out)) return false;
      const std::size_t body_len = out.size() - body_pos;
      for (int i = 0; i < 4; ++i)
        out[len_pos + i] = static_cast<std::uint8_t>(body_len >> (8 * i));
      return true;
    }();
    CIM_CHECK_MSG(ok, "wire: transport frame payload is not encodable");
  }
  if (transport_has_timestamps(m)) {  // v2 tail (see encode_body)
    put_u64le(out, m.ts_orig);
    put_u64le(out, m.ts_rx);
    put_u64le(out, m.ts_tx);
  }
}

// Writes [type][version][payload] for `msg`; false if the type is unknown.
bool encode_body(const Message& msg, Buf& out) {
  const char* tn = msg.type_name();
  const auto tagged = [&](WireType t) {
    put_u8(out, static_cast<std::uint8_t>(t));
    put_u8(out, kWireVersion);
  };
  if (std::strcmp(tn, "is.pair") == 0) {
    tagged(WireType::kPair);
    encode_pair(out, static_cast<const isc::PairMsg&>(msg));
  } else if (std::strcmp(tn, "tr.data") == 0 || std::strcmp(tn, "tr.ack") == 0) {
    // Transport frames are v1 unless the heartbeat timestamp tail is in use
    // (same nonzero-only discipline as the control v2 field below).
    const auto& frame = static_cast<const TransportFrame&>(msg);
    put_u8(out, static_cast<std::uint8_t>(WireType::kTransportFrame));
    put_u8(out,
           transport_has_timestamps(frame) ? kTransportVersion2 : kWireVersion);
    encode_transport_frame(out, frame);
  } else if (std::strcmp(tn, "wire.stats") == 0) {
    tagged(WireType::kStats);
    encode_stats(out, static_cast<const StatsFrame&>(msg));
  } else if (std::strcmp(tn, "wire.ctrl") == 0) {
    // Control frames are v1 unless the v2 field `c` is in use (rejoin
    // handshake), so historical byte streams re-encode bit-identically.
    const auto& ctrl = static_cast<const ControlMsg&>(msg);
    put_u8(out, static_cast<std::uint8_t>(WireType::kControl));
    put_u8(out, ctrl.c != 0 ? kControlVersion2 : kWireVersion);
    encode_control(out, ctrl);
  } else {
    return false;
  }
  return true;
}

// ---- per-type payload decoders ---------------------------------------------

DecodeResult fail_with(const char* error) {
  DecodeResult r;
  r.error = error;
  return r;
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size,
                          int depth);

// Decodes the payload for `type`. `version` has already been validated by
// decode_frame (1 everywhere; control frames may also be 2, which appends
// the varint `c`). Returns null + error message on malformed payloads and on
// unknown types, the reserved tags 2–6 included.
MessagePtr decode_payload(WireType type, std::uint8_t version, Reader& r,
                          int depth, const char*& error) {
  switch (type) {
    case WireType::kPair: {
      auto m = std::make_unique<isc::PairMsg>();
      m->var = VarId{static_cast<std::uint32_t>(r.varint())};
      m->value = r.zigzag();
      m->sent_at = r.time();
      m->origin_time = r.time();
      m->write_id = WriteId{r.u64le()};
      return m;
    }
    case WireType::kTransportFrame: {
      auto m = std::make_unique<TransportFrame>();
      m->seq = r.varint();
      m->ack = r.varint();
      const bool has_payload = r.u8() != 0;
      if (r.fail()) {
        error = "wire: truncated payload";
        return nullptr;
      }
      if (has_payload) {
        DecodeResult nested = decode_frame(r.cursor(), r.remaining(), depth + 1);
        if (!nested.ok()) {
          error = nested.error;
          return nullptr;
        }
        m->payload = std::move(nested.msg);
        r.advance(nested.consumed);
      }
      if (version >= kTransportVersion2) {
        m->ts_orig = r.u64le();
        m->ts_rx = r.u64le();
        m->ts_tx = r.u64le();
      }
      return m;
    }
    case WireType::kStats: {
      auto m = std::make_unique<StatsFrame>();
      m->origin = r.varint();
      m->t_ns = r.u64le();
      const std::uint64_t n = r.varint();
      if (r.fail() || n > kMaxStatsEntries) {
        error = "wire: too many stats entries";
        return nullptr;
      }
      m->entries.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key_len = r.varint();
        if (r.fail() || key_len > kMaxStatsKeyBytes ||
            key_len > r.remaining()) {
          error = "wire: bad stats key";
          return nullptr;
        }
        std::string key(reinterpret_cast<const char*>(r.cursor()),
                        static_cast<std::size_t>(key_len));
        r.advance(static_cast<std::size_t>(key_len));
        const std::int64_t value = r.zigzag();
        if (r.fail()) {
          error = "wire: truncated payload";
          return nullptr;
        }
        m->entries.emplace_back(std::move(key), value);
      }
      return m;
    }
    case WireType::kControl: {
      auto m = std::make_unique<ControlMsg>();
      m->code = r.u8();
      m->a = r.varint();
      m->b = r.varint();
      if (version >= kControlVersion2) m->c = r.varint();
      return m;
    }
  }
  error = "wire: unknown wire type";
  return nullptr;
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size,
                          int depth) {
  if (depth > kMaxNestingDepth) return fail_with("wire: nesting too deep");
  if (size < 4) return fail_with("wire: short frame header");
  std::uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i)
    body_len |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  if (body_len > kMaxBodyBytes) return fail_with("wire: body too large");
  if (body_len < 2) return fail_with("wire: body too small");
  if (size - 4 < body_len) return fail_with("wire: truncated frame");

  Reader r(data + 4, body_len);
  const std::uint8_t raw_type = r.u8();
  const std::uint8_t version = r.u8();
  const bool control_v2 =
      raw_type == static_cast<std::uint8_t>(WireType::kControl) &&
      version == kControlVersion2;
  const bool transport_v2 =
      raw_type == static_cast<std::uint8_t>(WireType::kTransportFrame) &&
      version == kTransportVersion2;
  if (version != kWireVersion && !control_v2 && !transport_v2)
    return fail_with("wire: unknown version");

  const char* error = nullptr;
  MessagePtr msg =
      decode_payload(static_cast<WireType>(raw_type), version, r, depth, error);
  if (!msg) return fail_with(error ? error : "wire: malformed payload");
  if (r.fail()) return fail_with("wire: truncated payload");
  if (r.remaining() != 0) return fail_with("wire: trailing bytes in frame");

  DecodeResult result;
  result.msg = std::move(msg);
  result.consumed = std::size_t{4} + body_len;
  return result;
}

}  // namespace

const char* wire_type_label(WireType t) {
  switch (t) {
    case WireType::kControl:
      return "control";
    case WireType::kPair:
      return "pair";
    case WireType::kTransportFrame:
      return "transport_frame";
    case WireType::kStats:
      return "stats";
  }
  return "unknown";
}

std::size_t encode(const Message& msg, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  out.insert(out.end(), 4, 0);
  const std::size_t body_pos = out.size();
  const bool ok = encode_body(msg, out);
  CIM_CHECK_MSG(ok, "wire: message type '" << msg.type_name()
                                           << "' has no wire encoding");
  const std::size_t body_len = out.size() - body_pos;
  CIM_CHECK_MSG(body_len <= kMaxBodyBytes, "wire: frame body too large");
  for (int i = 0; i < 4; ++i)
    out[start + i] = static_cast<std::uint8_t>(body_len >> (8 * i));
  return out.size() - start;
}

DecodeResult decode(const std::uint8_t* data, std::size_t size) {
  return decode_frame(data, size, 0);
}

}  // namespace cim::net::wire
