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
#include "msgpass/cbcast.h"
#include "net/reliable_transport.h"
#include "net/wire.h"
#include "obs/table.h"
#include "protocols/partial_rep.h"
#include "protocols/tob_sequencer.h"
#include "protocols/update_msg.h"

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
// actually sends them (single-digit vars, small clocks, real timestamps).
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

  auto vc = std::make_unique<proto::TimestampedUpdate>();
  vc->var = VarId{3};
  vc->value = Value{9'001};
  vc->clock = VectorClock{{12, 0, 7, 3, 1, 0, 2, 9}};
  vc->writer = 3;
  vc->write_id = wid(0, 3, 17);
  vc->received_at = sim::Time{6'000'000};
  out.push_back(std::move(vc));

  auto pub = std::make_unique<proto::TobPublish>();
  pub->var = VarId{2};
  pub->value = Value{55};
  pub->origin = 1;
  pub->write_id = wid(0, 1, 5);
  out.push_back(std::move(pub));

  auto del = std::make_unique<proto::TobDeliver>();
  del->var = VarId{2};
  del->value = Value{55};
  del->origin = 1;
  del->seq = 99;
  del->write_id = wid(0, 1, 5);
  del->received_at = sim::Time{7'000'000};
  out.push_back(std::move(del));

  auto partial = std::make_unique<proto::PartialUpdate>();
  partial->var = VarId{4};
  partial->value = Value{1'000};
  partial->has_value = true;
  partial->clock = VectorClock{{4, 4, 4, 4}};
  partial->writer = 2;
  partial->write_id = wid(1, 2, 3);
  partial->received_at = sim::Time{8'000'000};
  out.push_back(std::move(partial));

  auto cb = std::make_unique<mp::CbcastMsg>();
  cb->payload.var = VarId{1};
  cb->payload.value = Value{-42};
  cb->payload.wid = wid(2, 0, 6);
  cb->clock = VectorClock{{3, 1, 4, 1, 5}};
  cb->sender = 2;
  out.push_back(std::move(cb));

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
