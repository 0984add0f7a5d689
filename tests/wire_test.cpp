// Wire codec tests (src/net/wire.h, docs/WIRE.md).
//
//  * Golden vectors: tests/data/wire_golden_v1.bin pins the v1 byte format
//    bit-for-bit — a codec change that alters any byte fails here and must
//    come with a version bump, not a silent re-encode. Regenerate (after a
//    deliberate, versioned format change only) with
//      CIM_WRITE_GOLDEN=1 ./build/tests/cim_tests --gtest_filter='Wire*'
//  * Round trips: randomized messages of every type survive
//    encode -> decode -> re-encode byte-identically (the encoding is
//    canonical, so byte equality is field equality).
//  * Adversarial inputs: mutated and truncated frames decode to a clean
//    DecodeError — never a crash, never out-of-bounds reads (the sanitize CI
//    job runs this same suite under ASan/UBSan).
//  * Transparency: a federation run over byte-roundtripping links produces
//    the identical history as the default pointer-handoff run.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "checker/trace_io.h"
#include "common/rng.h"
#include "interconnect/federation.h"
#include "interconnect/pair_msg.h"
#include "net/wire.h"
#include "protocols/anbkh.h"
#include "workload/generator.h"

namespace cim {
namespace {

namespace wire = net::wire;

std::string golden_path() {
  return std::string(CIM_SOURCE_DIR) + "/tests/data/wire_golden_v1.bin";
}

sim::Time at(std::int64_t ns) { return sim::Time{ns}; }

WriteId wid_of(std::uint16_t system, std::uint16_t proc, std::uint32_t seq) {
  return WriteId::make(ProcId{SystemId{system}, proc}, seq);
}

// The canonical golden message list: at least one instance of every wire
// type, plus the structural variants (data frame vs standalone ACK, each
// control code). Append only — reordering or editing existing entries
// invalidates the golden file.
std::vector<net::MessagePtr> golden_messages() {
  std::vector<net::MessagePtr> out;

  auto hello = std::make_unique<wire::ControlMsg>();
  hello->code = wire::ControlMsg::kHello;
  hello->a = 1;
  hello->b = wire::kWireVersion;
  out.push_back(std::move(hello));

  auto done = std::make_unique<wire::ControlMsg>();
  done->code = wire::ControlMsg::kDone;
  done->a = 12345;
  done->b = 800;
  out.push_back(std::move(done));

  auto bye = std::make_unique<wire::ControlMsg>();
  bye->code = wire::ControlMsg::kBye;
  out.push_back(std::move(bye));

  auto pair = std::make_unique<isc::PairMsg>();
  pair->var = VarId{7};
  pair->value = Value{42};
  pair->sent_at = at(1'000'000);
  pair->origin_time = at(500'000);
  pair->write_id = wid_of(1, 3, 9);
  out.push_back(std::move(pair));

  auto neg = std::make_unique<isc::PairMsg>();
  neg->var = VarId{0};
  neg->value = Value{-17};  // zigzag path
  neg->sent_at = at(0);
  neg->origin_time = at(0);
  neg->write_id = WriteId{};
  out.push_back(std::move(neg));

  auto data = std::make_unique<net::TransportFrame>();
  data->seq = 17;
  data->ack = 15;
  auto inner = std::make_unique<isc::PairMsg>();
  inner->var = VarId{1};
  inner->value = Value{64};
  inner->sent_at = at(5'000'000);
  inner->origin_time = at(4'900'000);
  inner->write_id = wid_of(0, 8, 3);
  data->payload = std::move(inner);
  out.push_back(std::move(data));

  auto ack = std::make_unique<net::TransportFrame>();
  ack->seq = 0;
  ack->ack = 18;  // standalone cumulative ACK, no payload
  out.push_back(std::move(ack));

  return out;
}

std::vector<std::uint8_t> encode_all(
    const std::vector<net::MessagePtr>& msgs) {
  std::vector<std::uint8_t> buf;
  for (const net::MessagePtr& m : msgs) wire::encode(*m, buf);
  return buf;
}

TEST(WireGolden, VectorsAreBitIdentical) {
  const std::vector<std::uint8_t> encoded = encode_all(golden_messages());

  if (std::getenv("CIM_WRITE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path(), std::ios::binary);
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os.write(reinterpret_cast<const char*>(encoded.data()),
             static_cast<std::streamsize>(encoded.size()));
    GTEST_SKIP() << "golden vectors regenerated (" << encoded.size()
                 << " bytes); review the diff and drop CIM_WRITE_GOLDEN";
  }

  std::ifstream is(golden_path(), std::ios::binary);
  ASSERT_TRUE(is) << "missing " << golden_path()
                  << " (regenerate with CIM_WRITE_GOLDEN=1)";
  std::vector<std::uint8_t> golden(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());

  ASSERT_EQ(encoded.size(), golden.size())
      << "wire format size drifted from the golden vectors";
  EXPECT_EQ(encoded, golden)
      << "wire format bytes drifted from the golden vectors; a format "
         "change needs a version bump and new goldens";
}

TEST(WireGolden, DecodeThenReencodeIsBitIdentical) {
  std::ifstream is(golden_path(), std::ios::binary);
  ASSERT_TRUE(is) << "missing " << golden_path();
  std::vector<std::uint8_t> golden(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(golden.empty());

  std::vector<std::uint8_t> reencoded;
  std::size_t offset = 0;
  std::size_t frames = 0;
  while (offset < golden.size()) {
    wire::DecodeResult res =
        wire::decode(golden.data() + offset, golden.size() - offset);
    ASSERT_TRUE(res.ok()) << "frame " << frames << ": " << res.error;
    wire::encode(*res.msg, reencoded);
    offset += res.consumed;
    ++frames;
  }
  EXPECT_EQ(frames, golden_messages().size());
  EXPECT_EQ(reencoded, golden);
}

// ---- randomized round trips -----------------------------------------------

Value random_value(Rng& rng) {
  // Signed, full-range magnitudes to exercise every zigzag length.
  const auto raw = static_cast<std::int64_t>(rng.next());
  return raw >> rng.uniform(0, 63);
}

WriteId random_wid(Rng& rng) { return WriteId{rng.next()}; }

sim::Time random_time(Rng& rng) {
  return sim::Time{static_cast<std::int64_t>(rng.next() >> 1)};
}

// Every wire type, and the ones a transport frame nests. The reserved tags
// 2–6 have no message.
constexpr wire::WireType kTypes[] = {
    wire::WireType::kControl, wire::WireType::kPair,
    wire::WireType::kTransportFrame, wire::WireType::kStats};
constexpr wire::WireType kPayloadTypes[] = {
    wire::WireType::kControl, wire::WireType::kPair, wire::WireType::kStats};

net::MessagePtr random_message(Rng& rng, wire::WireType type,
                               bool allow_nested) {
  switch (type) {
    case wire::WireType::kControl: {
      auto m = std::make_unique<wire::ControlMsg>();
      m->code = static_cast<wire::ControlMsg::Code>(rng.uniform(1, 3));
      m->a = rng.next();
      m->b = rng.next();
      return m;
    }
    case wire::WireType::kPair: {
      auto m = std::make_unique<isc::PairMsg>();
      m->var = VarId{static_cast<std::uint32_t>(rng.next())};
      m->value = random_value(rng);
      m->sent_at = random_time(rng);
      m->origin_time = random_time(rng);
      m->write_id = random_wid(rng);
      return m;
    }
    case wire::WireType::kStats: {
      auto m = std::make_unique<wire::StatsFrame>();
      m->origin = rng.uniform(0, 4095);
      m->t_ns = rng.next() >> 1;
      const std::size_t n = rng.uniform(0, 24);
      for (std::size_t i = 0; i < n; ++i) {
        std::string key;
        const std::size_t len = rng.uniform(0, wire::kMaxStatsKeyBytes);
        for (std::size_t k = 0; k < len; ++k)
          key.push_back(static_cast<char>('a' + rng.uniform(0, 25)));
        m->entries.emplace_back(std::move(key),
                                static_cast<std::int64_t>(random_value(rng)));
      }
      return m;
    }
    default: {
      auto m = std::make_unique<net::TransportFrame>();
      m->seq = rng.next();
      m->ack = rng.next();
      if (allow_nested && rng.chance(0.7)) {
        m->payload =
            random_message(rng, kPayloadTypes[rng.uniform(0, 2)], false);
      }
      if (rng.chance(0.5)) {  // heartbeat timestamp tail (transport v2)
        m->ts_orig = rng.chance(0.8) ? (rng.next() >> 1) : 0;
        m->ts_rx = rng.next() >> 1;
        m->ts_tx = rng.next() >> 1;
      }
      return m;
    }
  }
}

TEST(WireFuzz, TenThousandRoundTripsPerType) {
  constexpr int kPerType = 10'000;
  Rng rng(0xC0DEC);
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> rebuf;
  for (const wire::WireType type : kTypes) {
    for (int i = 0; i < kPerType; ++i) {
      const net::MessagePtr msg = random_message(rng, type, true);
      buf.clear();
      const std::size_t n = wire::encode(*msg, buf);
      ASSERT_EQ(n, buf.size());

      const wire::DecodeResult res = wire::decode(buf.data(), buf.size());
      ASSERT_TRUE(res.ok()) << wire::wire_type_label(type) << " #" << i
                            << ": " << res.error;
      ASSERT_EQ(res.consumed, buf.size());
      EXPECT_STREQ(res.msg->type_name(), msg->type_name());

      // Canonical encoding: byte equality of the re-encode is field
      // equality of the round-tripped message.
      rebuf.clear();
      wire::encode(*res.msg, rebuf);
      ASSERT_EQ(rebuf, buf) << wire::wire_type_label(type) << " #" << i
                            << " did not survive the round trip";
    }
  }
}

TEST(WireFuzz, MutatedAndTruncatedBuffersFailCleanly) {
  constexpr int kPerType = 10'000;
  constexpr int kCases = kPerType * static_cast<int>(std::size(kTypes));
  Rng rng(0xBADF00D);
  std::vector<std::uint8_t> buf;
  int clean_errors = 0;
  for (int i = 0; i < kCases; ++i) {
    const net::MessagePtr msg = random_message(rng, kTypes[i / kPerType], true);
    buf.clear();
    wire::encode(*msg, buf);

    switch (rng.uniform(0, 2)) {
      case 0:  // truncate anywhere (possibly to zero)
        buf.resize(rng.uniform(0, buf.size() - 1));
        break;
      case 1: {  // flip bits somewhere
        const std::size_t pos = rng.uniform(0, buf.size() - 1);
        buf[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
        break;
      }
      default: {  // scribble over the length prefix
        for (std::size_t b = 0; b < 4 && b < buf.size(); ++b) {
          buf[b] = static_cast<std::uint8_t>(rng.next());
        }
        break;
      }
    }

    // Mutated input must either decode (a mutation can land in a don't-care
    // position or produce a different valid frame) or fail with a clean
    // static error — never crash, never read out of bounds (ASan enforces
    // the latter in the sanitize job).
    const wire::DecodeResult res = wire::decode(buf.data(), buf.size());
    if (!res.ok()) {
      ++clean_errors;
      EXPECT_EQ(res.msg, nullptr);
      EXPECT_EQ(res.consumed, 0u);
      ASSERT_NE(res.error, nullptr);
    } else {
      ASSERT_NE(res.msg, nullptr);
      ASSERT_GE(res.consumed, 6u);
    }
  }
  // Random damage overwhelmingly produces invalid frames; if it somehow
  // did not, the mutator is broken.
  EXPECT_GT(clean_errors, kCases / 2);
}

TEST(WireDecode, RejectsUnknownTypeAndVersion) {
  std::vector<std::uint8_t> buf;
  auto msg = std::make_unique<wire::ControlMsg>();
  wire::encode(*msg, buf);

  // The reserved tags 2–6 (retired intra-system payloads) and a tag past
  // the last type are unknown.
  for (const std::uint8_t type : {2, 3, 4, 5, 6, 0xEE}) {
    std::vector<std::uint8_t> bad_type = buf;
    bad_type[4] = type;  // type byte
    const wire::DecodeResult res =
        wire::decode(bad_type.data(), bad_type.size());
    ASSERT_FALSE(res.ok()) << "tag " << int{type};
    EXPECT_EQ(res.msg, nullptr);
    EXPECT_EQ(res.consumed, 0u);
    EXPECT_STREQ(res.error, "wire: unknown wire type");
  }

  std::vector<std::uint8_t> bad_version = buf;
  bad_version[5] = 0x7F;  // version byte
  const wire::DecodeResult res =
      wire::decode(bad_version.data(), bad_version.size());
  ASSERT_FALSE(res.ok());
  EXPECT_NE(std::string(res.error).find("version"), std::string::npos);
}

TEST(WireControlV2, RejoinCursorRoundTripsAndV1StaysBitIdentical) {
  // c == 0 encodes exactly as before the field existed: the version byte
  // stays v1 and no tail is appended, so old captures and the golden file
  // decode unchanged.
  wire::ControlMsg plain;
  plain.code = wire::ControlMsg::kDone;
  plain.a = 99;
  plain.b = 3;
  std::vector<std::uint8_t> buf;
  wire::encode(plain, buf);
  EXPECT_EQ(buf[5], wire::kWireVersion);

  // A rejoin carries the delivery cursor in c and flips to v2.
  wire::ControlMsg rejoin;
  rejoin.code = wire::ControlMsg::kRejoin;
  rejoin.a = 4;
  rejoin.b = 0xDEADBEEFCAFEULL;  // session id
  rejoin.c = 123'456'789;        // last-delivered seq
  std::vector<std::uint8_t> v2;
  wire::encode(rejoin, v2);
  EXPECT_EQ(v2[5], wire::kControlVersion2);

  const wire::DecodeResult res = wire::decode(v2.data(), v2.size());
  ASSERT_TRUE(res.ok()) << res.error;
  const auto* back = dynamic_cast<const wire::ControlMsg*>(res.msg.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->code, wire::ControlMsg::kRejoin);
  EXPECT_EQ(back->a, 4u);
  EXPECT_EQ(back->b, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(back->c, 123'456'789u);

  // And v1 decodes still default c to 0.
  const wire::DecodeResult res1 = wire::decode(buf.data(), buf.size());
  ASSERT_TRUE(res1.ok()) << res1.error;
  EXPECT_EQ(dynamic_cast<const wire::ControlMsg*>(res1.msg.get())->c, 0u);
}

TEST(WireTransportV2, HeartbeatTimestampsRoundTripAndV1StaysBitIdentical) {
  // A plain data frame or ACK (no timestamps) encodes exactly as before the
  // field existed: version byte v1, no tail — golden captures decode
  // unchanged and data-path bytes don't grow.
  net::TransportFrame plain;
  plain.ack = 41;
  std::vector<std::uint8_t> v1;
  wire::encode(plain, v1);
  EXPECT_EQ(v1[5], wire::kWireVersion);

  // A heartbeat stamps the NTP triple and flips to transport v2.
  net::TransportFrame hb;
  hb.ack = 41;
  hb.ts_orig = 1'000'000;
  hb.ts_rx = 1'000'900;
  hb.ts_tx = 2'500'000;
  std::vector<std::uint8_t> v2;
  wire::encode(hb, v2);
  EXPECT_EQ(v2[5], wire::kTransportVersion2);
  EXPECT_EQ(v2.size(), v1.size() + 24);  // exactly the three u64 tail

  const wire::DecodeResult res = wire::decode(v2.data(), v2.size());
  ASSERT_TRUE(res.ok()) << res.error;
  const auto* back = dynamic_cast<const net::TransportFrame*>(res.msg.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->ack, 41u);
  EXPECT_EQ(back->ts_orig, 1'000'000u);
  EXPECT_EQ(back->ts_rx, 1'000'900u);
  EXPECT_EQ(back->ts_tx, 2'500'000u);

  // v1 decodes default the triple to zero.
  const wire::DecodeResult res1 = wire::decode(v1.data(), v1.size());
  ASSERT_TRUE(res1.ok()) << res1.error;
  const auto* old = dynamic_cast<const net::TransportFrame*>(res1.msg.get());
  EXPECT_EQ(old->ts_orig, 0u);
  EXPECT_EQ(old->ts_tx, 0u);
}

TEST(WireStats, RoundTripsAndEnforcesDecodeLimits) {
  wire::StatsFrame stats;
  stats.origin = 3;
  stats.t_ns = 123'456'789;
  stats.entries = {{"pairs_sent", 120},
                   {"peer.1.rtt_ns", 830'000},
                   {"peer.1.offset_ns", -412}};
  std::vector<std::uint8_t> buf;
  wire::encode(stats, buf);

  const wire::DecodeResult res = wire::decode(buf.data(), buf.size());
  ASSERT_TRUE(res.ok()) << res.error;
  const auto* back = dynamic_cast<const wire::StatsFrame*>(res.msg.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->origin, 3u);
  EXPECT_EQ(back->t_ns, 123'456'789u);
  ASSERT_EQ(back->entries.size(), 3u);
  EXPECT_EQ(back->entries[1].first, "peer.1.rtt_ns");
  EXPECT_EQ(back->entries[2].second, -412);

  // An entry count past kMaxStatsEntries is rejected before any allocation
  // proportional to it.
  wire::StatsFrame huge;
  huge.entries.assign(wire::kMaxStatsEntries + 1, {"k", 1});
  std::vector<std::uint8_t> big;
  wire::encode(huge, big);
  const wire::DecodeResult too_many = wire::decode(big.data(), big.size());
  ASSERT_FALSE(too_many.ok());
  EXPECT_NE(std::string(too_many.error).find("stats"), std::string::npos);

  // So is an oversized key.
  wire::StatsFrame longkey;
  longkey.entries = {{std::string(wire::kMaxStatsKeyBytes + 1, 'x'), 7}};
  std::vector<std::uint8_t> bigkey;
  wire::encode(longkey, bigkey);
  const wire::DecodeResult bad_key = wire::decode(bigkey.data(), bigkey.size());
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(std::string(bad_key.error).find("stats"), std::string::npos);
}

// ---- transparency: bytes-mode federation == in-memory federation ----------

chk::History run_federation(isc::LinkWire wire_mode) {
  isc::FederationConfig cfg;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = 3;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = 7 + s;
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(std::move(link));
  cfg.link_wire = wire_mode;
  isc::Federation fed(std::move(cfg));

  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.seed = 23;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  return fed.federation_history();
}

TEST(WireLoopback, ByteRoundTrippedFederationHistoryIsIdentical) {
  const chk::History in_memory = run_federation(isc::LinkWire::kInMemory);
  const chk::History bytes = run_federation(isc::LinkWire::kLoopbackBytes);

  std::ostringstream a, b;
  chk::write_trace(in_memory, a);
  chk::write_trace(bytes, b);
  EXPECT_EQ(a.str(), b.str())
      << "the loopback byte round trip changed the execution";
  EXPECT_TRUE(chk::CausalChecker{}.check(bytes).ok());
}

}  // namespace
}  // namespace cim
