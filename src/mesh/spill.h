// SpillJournal: the per-node crash journal behind `cim_bridge --resume`
// (docs/BRIDGE.md "Failure behavior", docs/FAULTS.md).
//
// A mesh node appends one small record per session event with a single
// ::write() each — the bytes land in the page cache immediately, which is
// exactly the durability kill -9 requires (the *process* dies, the kernel
// doesn't; no fsync needed for that fault model — a machine-level crash is
// out of scope, as is the paper's).
//
// Record stream (little-endian; varints as in docs/WIRE.md):
//
//   header  "CIMJ" u8 version u64 node_id u64 topo_hash u64 seed
//           u32 generation u32 n_links
//   'S' u32 link  u64 data_sent  u32 len  len bytes   sent frame (encoded)
//   'A' u32 link  u64 acked                           cumulative ack from peer
//   'D' u32 link  u64 recv_expected u64 data_delivered  frame delivered
//   'K' u32 link  u8 code  u64 a                      ctrl payload delivered
//   'L' u32 link  u8 code                             ctrl payload sent+acked
//   'G'                                               workload started
//
// 'S' records let a resumed node replay unacked frames ('A' trims them);
// 'D' records restore the receive cursor so replayed duplicates are dropped
// (zero-dup) and the generator knows how many pairs already applied; 'K'/'L'
// persist the done/bye convergecast flags, which live in atomics and would
// otherwise vanish with the process *without* being replayed (their frames
// were acked). 'G' marks the generation used: its system id and value range
// are in the merged history, so only a journal with the mark resumes as
// generation+1. Loading tolerates a torn final record — the tail of a
// mid-write crash is simply ignored, and the un-recorded event is either
// redelivered (peer's journal) or re-sent (ours).
//
// One file per node; resume rewrites it as a fresh journal (generation+1
// if the loaded one was used) with the loaded state compacted into
// synthetic records, so journals do not grow across restarts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cim::mesh {

struct SpillLinkState {
  /// Unacked sent frames, in seq order (encoded bytes, ready to replay).
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t acked = 0;          // peer's cumulative ack (frames < acked)
  std::uint64_t send_next = 0;      // next seq to stamp
  std::uint64_t data_sent = 0;      // non-ctrl payload frames sent (done.a)
  std::uint64_t recv_expected = 0;  // next seq we will accept
  std::uint64_t data_delivered = 0; // non-ctrl payload frames delivered
  bool peer_done = false;           // 'K' kDone seen
  std::uint64_t peer_pairs = 0;     // its announced count (ctrl.a)
  bool peer_bye = false;            // 'K' kBye seen
  bool done_sent = false;           // 'L' kDone seen — resume must refuse
  bool bye_sent = false;            // 'L' kBye seen
};

struct SpillState {
  std::uint64_t node_id = 0;
  std::uint64_t topo_hash = 0;
  std::uint64_t seed = 0;
  std::uint32_t generation = 0;
  std::vector<SpillLinkState> links;
  bool started = false;  // 'G' seen: this generation ran its workload
};

/// A single-thread object: create() runs before the node's loop does,
/// every appender on the loop thread, close() after the loop returned.
class SpillJournal {
 public:
  SpillJournal() = default;
  ~SpillJournal();
  SpillJournal(const SpillJournal&) = delete;
  SpillJournal& operator=(const SpillJournal&) = delete;

  /// Create/truncate the journal and write the header (+ compacted `prior`
  /// state as synthetic records, for a resume). False on I/O error.
  bool create(const std::string& path, const SpillState& state);

  /// Parse an existing journal. False (with error()) on a missing file or a
  /// corrupt header; a torn tail record is tolerated and ignored.
  static bool load(const std::string& path, SpillState& out,
                   std::string& error);

  // Appenders — one ::write each.
  void record_sent(std::size_t link, std::uint64_t data_sent,
                   const std::uint8_t* frame, std::size_t len);
  void record_acked(std::size_t link, std::uint64_t acked);
  void record_delivered(std::size_t link, std::uint64_t recv_expected,
                        std::uint64_t data_delivered);
  void record_ctrl_delivered(std::size_t link, std::uint8_t code,
                             std::uint64_t a);
  void record_ctrl_sent(std::size_t link, std::uint8_t code);
  void record_started();

  void close();
  bool ok() const { return fd_ >= 0; }

 private:
  void append(const std::vector<std::uint8_t>& rec);

  int fd_ = -1;
};

}  // namespace cim::mesh
