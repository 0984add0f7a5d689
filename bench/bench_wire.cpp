// Wire-codec throughput (supporting infrastructure): encode and decode rates
// plus frame sizes for every wire type (docs/WIRE.md). This is the budget a
// serializing link (loopback bytes mode, tools/cim_bridge's TCP stream) pays
// per pair that the default in-memory pointer handoff does not; the blessed
// baseline in bench/baseline/BENCH_wire.json keeps it from regressing
// unnoticed.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "interconnect/pair_msg.h"
#include "net/reliable_transport.h"
#include "net/wire.h"
#include "obs/table.h"

namespace {

using namespace cim;
namespace wire = net::wire;

constexpr int kIterations = 200'000;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WriteId wid(std::uint16_t system, std::uint16_t proc, std::uint32_t seq) {
  return WriteId::make(ProcId{SystemId{system}, proc}, seq);
}

// One representative instance per wire type, sized like the federation
// actually sends them (single-digit vars, real timestamps).
std::vector<net::MessagePtr> representative_messages() {
  std::vector<net::MessagePtr> out;

  auto ctrl = std::make_unique<wire::ControlMsg>();
  ctrl->code = wire::ControlMsg::kDone;
  ctrl->a = 100'000;
  ctrl->b = 250'000;
  out.push_back(std::move(ctrl));

  auto pair = std::make_unique<isc::PairMsg>();
  pair->var = VarId{5};
  pair->value = Value{123'456};
  pair->sent_at = sim::Time{5'000'000};
  pair->origin_time = sim::Time{4'800'000};
  pair->write_id = wid(1, 8, 42);
  out.push_back(std::move(pair));

  auto frame = std::make_unique<net::TransportFrame>();
  frame->seq = 1'000;
  frame->ack = 998;
  auto inner = std::make_unique<isc::PairMsg>();
  inner->var = VarId{5};
  inner->value = Value{123'456};
  inner->sent_at = sim::Time{5'000'000};
  inner->origin_time = sim::Time{4'800'000};
  inner->write_id = wid(1, 8, 42);
  frame->payload = std::move(inner);
  out.push_back(std::move(frame));

  return out;
}

const char* label_of(const net::Message& msg) {
  std::vector<std::uint8_t> buf;
  wire::encode(msg, buf);
  return wire::wire_type_label(static_cast<wire::WireType>(buf[4]));
}

}  // namespace

int main() {
  bench::JsonReport report("wire");
  report.meta("iterations", std::uint64_t{kIterations});
  obs::Table table({"type", "bytes/msg", "encode Mmsg/s", "decode Mmsg/s"});

  for (const net::MessagePtr& msg : representative_messages()) {
    std::vector<std::uint8_t> buf;
    const std::size_t frame_len = wire::encode(*msg, buf);

    // Encode: reuse the buffer like the loopback/TCP send paths do.
    std::uint64_t sink = 0;
    const double enc_t0 = now_s();
    for (int i = 0; i < kIterations; ++i) {
      buf.clear();
      sink += wire::encode(*msg, buf);
    }
    const double enc_dt = now_s() - enc_t0;

    const double dec_t0 = now_s();
    for (int i = 0; i < kIterations; ++i) {
      wire::DecodeResult res = wire::decode(buf.data(), buf.size());
      sink += res.consumed;
    }
    const double dec_dt = now_s() - dec_t0;
    if (sink == 0) return 1;  // keep the loops observable

    const double encode_rate = kIterations / enc_dt;
    const double decode_rate = kIterations / dec_dt;
    const char* label = label_of(*msg);
    report.row(label)
        .field("bytes_per_msg", static_cast<std::int64_t>(frame_len))
        .field("encode_msgs_per_sec", encode_rate)
        .field("decode_msgs_per_sec", decode_rate);
    char enc[32], dec[32];
    std::snprintf(enc, sizeof(enc), "%.1f", encode_rate / 1e6);
    std::snprintf(dec, sizeof(dec), "%.1f", decode_rate / 1e6);
    table.add_row(label, frame_len, enc, dec);
  }

  table.print();
  return 0;
}
