#include "mesh/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/wire.h"

namespace cim::mesh {

namespace {

constexpr char kMagic[4] = {'C', 'I', 'M', 'J'};
constexpr std::uint8_t kJournalVersion = 1;

using Buf = std::vector<std::uint8_t>;

void put_u8(Buf& b, std::uint8_t v) { b.push_back(v); }

void put_u32(Buf& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(Buf& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Cursor over the loaded file. Unlike the wire Reader this one must
// distinguish "clean EOF at a record boundary" from "torn mid-record".
struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool torn = false;

  std::size_t remaining() const { return size - pos; }
  bool u8(std::uint8_t& v) {
    if (remaining() < 1) { torn = true; return false; }
    v = data[pos++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (remaining() < 4) { torn = true; return false; }
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (remaining() < 8) { torn = true; return false; }
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return true;
  }
  bool bytes(std::uint8_t* dst, std::size_t n) {
    if (remaining() < n) { torn = true; return false; }
    std::memcpy(dst, data + pos, n);
    pos += n;
    return true;
  }
};

}  // namespace

SpillJournal::~SpillJournal() { close(); }

void SpillJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SpillJournal::append(const Buf& rec) {
  if (fd_ < 0) return;
  const std::uint8_t* p = rec.data();
  std::size_t left = rec.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd_);  // a dead journal must not wedge the data path
      fd_ = -1;
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

bool SpillJournal::create(const std::string& path, const SpillState& state) {
  close();
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  fd_ = fd;

  Buf b;
  b.insert(b.end(), kMagic, kMagic + 4);
  put_u8(b, kJournalVersion);
  put_u64(b, state.node_id);
  put_u64(b, state.topo_hash);
  put_u64(b, state.seed);
  put_u32(b, state.generation);
  put_u32(b, static_cast<std::uint32_t>(state.links.size()));
  append(b);

  // Compact the prior generation's state into synthetic records so a resumed
  // node's journal carries everything a *second* crash would need.
  for (std::size_t e = 0; e < state.links.size(); ++e) {
    const SpillLinkState& l = state.links[e];
    if (l.recv_expected != 0 || l.data_delivered != 0)
      record_delivered(e, l.recv_expected, l.data_delivered);
    // data_sent must be on disk even with an empty journal window, and
    // replayable frames re-enter as 'S' records (data_sent repeats; the
    // loader takes the max).
    if (l.data_sent != 0 && l.frames.empty())
      record_sent(e, l.data_sent, nullptr, 0);
    for (const auto& f : l.frames)
      record_sent(e, l.data_sent, f.data(), f.size());
    if (l.acked != 0) record_acked(e, l.acked);
    if (l.peer_done)
      record_ctrl_delivered(e, net::wire::ControlMsg::kDone, l.peer_pairs);
    if (l.peer_bye)
      record_ctrl_delivered(e, net::wire::ControlMsg::kBye, 0);
    if (l.done_sent) record_ctrl_sent(e, net::wire::ControlMsg::kDone);
    if (l.bye_sent) record_ctrl_sent(e, net::wire::ControlMsg::kBye);
  }
  return ok();
}

void SpillJournal::record_sent(std::size_t link, std::uint64_t data_sent,
                               const std::uint8_t* frame, std::size_t len) {
  Buf b;
  put_u8(b, 'S');
  put_u32(b, static_cast<std::uint32_t>(link));
  put_u64(b, data_sent);
  put_u32(b, static_cast<std::uint32_t>(len));
  if (len > 0) b.insert(b.end(), frame, frame + len);
  append(b);
}

void SpillJournal::record_acked(std::size_t link, std::uint64_t acked) {
  Buf b;
  put_u8(b, 'A');
  put_u32(b, static_cast<std::uint32_t>(link));
  put_u64(b, acked);
  append(b);
}

void SpillJournal::record_delivered(std::size_t link,
                                    std::uint64_t recv_expected,
                                    std::uint64_t data_delivered) {
  Buf b;
  put_u8(b, 'D');
  put_u32(b, static_cast<std::uint32_t>(link));
  put_u64(b, recv_expected);
  put_u64(b, data_delivered);
  append(b);
}

void SpillJournal::record_ctrl_delivered(std::size_t link, std::uint8_t code,
                                         std::uint64_t a) {
  Buf b;
  put_u8(b, 'K');
  put_u32(b, static_cast<std::uint32_t>(link));
  put_u8(b, code);
  put_u64(b, a);
  append(b);
}

void SpillJournal::record_ctrl_sent(std::size_t link, std::uint8_t code) {
  Buf b;
  put_u8(b, 'L');
  put_u32(b, static_cast<std::uint32_t>(link));
  put_u8(b, code);
  append(b);
}

bool SpillJournal::load(const std::string& path, SpillState& out,
                        std::string& error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    error = "cannot open journal '" + path + "': " + std::strerror(errno);
    return false;
  }
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
    data.insert(data.end(), chunk, chunk + n);
  ::close(fd);

  Cursor c{data.data(), data.size()};
  std::uint8_t magic[4], version = 0;
  std::uint32_t n_links = 0, generation = 0;
  if (!c.bytes(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    error = "journal '" + path + "': bad magic";
    return false;
  }
  if (!c.u8(version) || version != kJournalVersion) {
    error = "journal '" + path + "': unknown version";
    return false;
  }
  if (!c.u64(out.node_id) || !c.u64(out.topo_hash) || !c.u64(out.seed) ||
      !c.u32(generation) || !c.u32(n_links)) {
    error = "journal '" + path + "': truncated header";
    return false;
  }
  if (n_links > 4096) {
    error = "journal '" + path + "': absurd link count";
    return false;
  }
  out.generation = generation;
  out.links.assign(n_links, SpillLinkState{});

  // Sent frames keyed by seq (decoded from the frame bytes) so 'A' trimming
  // and replay ordering are exact even if records interleave oddly.
  std::vector<std::vector<std::pair<std::uint64_t, Buf>>> sent(n_links);

  while (c.remaining() > 0 && !c.torn) {
    std::uint8_t tag;
    std::uint32_t link;
    if (!c.u8(tag) || !c.u32(link)) break;
    if (link >= n_links) {
      error = "journal '" + path + "': record for unknown link";
      return false;
    }
    SpillLinkState& l = out.links[link];
    switch (tag) {
      case 'S': {
        std::uint64_t data_sent;
        std::uint32_t len;
        if (!c.u64(data_sent) || !c.u32(len)) break;
        if (len > (std::uint32_t{1} << 21)) {
          error = "journal '" + path + "': absurd frame length";
          return false;
        }
        Buf frame(len);
        if (len > 0 && !c.bytes(frame.data(), len)) break;
        l.data_sent = std::max(l.data_sent, data_sent);
        if (len > 0) {
          net::wire::DecodeResult res =
              net::wire::decode(frame.data(), frame.size());
          if (!res.ok()) {
            error = "journal '" + path + "': undecodable sent frame";
            return false;
          }
          auto* tf = dynamic_cast<net::TransportFrame*>(res.msg.get());
          if (tf == nullptr) {
            error = "journal '" + path + "': sent record is not a frame";
            return false;
          }
          const std::uint64_t seq = tf->seq;
          l.send_next = std::max(l.send_next, seq + 1);
          sent[link].emplace_back(seq, std::move(frame));
        }
        break;
      }
      case 'A': {
        std::uint64_t acked;
        if (!c.u64(acked)) break;
        l.acked = std::max(l.acked, acked);
        break;
      }
      case 'D': {
        std::uint64_t recv_expected, data_delivered;
        if (!c.u64(recv_expected) || !c.u64(data_delivered)) break;
        l.recv_expected = std::max(l.recv_expected, recv_expected);
        l.data_delivered = std::max(l.data_delivered, data_delivered);
        break;
      }
      case 'K': {
        std::uint8_t code;
        std::uint64_t a;
        if (!c.u8(code) || !c.u64(a)) break;
        if (code == net::wire::ControlMsg::kDone) {
          l.peer_done = true;
          l.peer_pairs = a;
        } else if (code == net::wire::ControlMsg::kBye) {
          l.peer_bye = true;
        }
        break;
      }
      case 'L': {
        std::uint8_t code;
        if (!c.u8(code)) break;
        if (code == net::wire::ControlMsg::kDone) l.done_sent = true;
        if (code == net::wire::ControlMsg::kBye) l.bye_sent = true;
        break;
      }
      default:
        // Unknown tag: cannot know its length — treat like a torn tail.
        c.torn = true;
        break;
    }
  }

  for (std::uint32_t e = 0; e < n_links; ++e) {
    SpillLinkState& l = out.links[e];
    // Replay window: unacked frames in seq order, acked ones dropped,
    // duplicate seqs (shouldn't occur, but a journal is an input) collapsed.
    std::sort(sent[e].begin(), sent[e].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::uint64_t prev_seq = ~std::uint64_t{0};
    for (auto& [seq, frame] : sent[e]) {
      if (seq < l.acked || seq == prev_seq) continue;
      prev_seq = seq;
      l.frames.push_back(std::move(frame));
    }
    l.send_next = std::max(l.send_next, l.acked);
  }
  return true;
}

}  // namespace cim::mesh
