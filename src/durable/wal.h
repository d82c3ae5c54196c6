#ifndef TASTI_DURABLE_WAL_H_
#define TASTI_DURABLE_WAL_H_

/// \file wal.h
/// Write-ahead log for index mutations.
///
/// Every mutation that changes published index state — a crack (new
/// representatives placed from a query's oracle labels), a streaming
/// record append, a representative repair — is logged as one framed
/// record, followed by an epoch-publish marker that commits the batch:
///
///   frame   := u32 frame_len | payload | TCHK footer (util/checksum.h)
///   payload := u8 type | u64 lsn | body
///
/// The footer is the same 20-byte magic+length+FNV-1a discipline the index
/// serializer uses, so a torn or bit-flipped frame is detected before any
/// byte of it is interpreted. Records are buffered in memory by WalWriter
/// and reach the segment file only at Sync() — the fsync barrier the
/// server issues at each epoch publish. Replay applies a record's
/// mutations only when its epoch-publish marker made it to disk: a crash
/// mid-sync loses at most the unpublished tail, never a published epoch.
///
/// Segments are named wal-<seq>.log; the checkpointer rotates to a fresh
/// segment at every checkpoint so old segments can be garbage-collected
/// once the manifest's high-water mark passes them.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/schema.h"
#include "durable/file.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace tasti::durable {

enum class WalRecordType : uint8_t {
  kCrack = 1,         ///< new representatives from a query's oracle labels
  kRepair = 2,        ///< re-annotation of a degraded representative
  kAppend = 3,        ///< streaming record ingestion (raw features)
  kEpochPublish = 4,  ///< commit marker: the mutations above it are live
};

/// One log record. The members matching `type` carry the payload.
struct WalRecord {
  WalRecordType type = WalRecordType::kEpochPublish;
  uint64_t lsn = 0;  ///< assigned by WalWriter::Append

  // kCrack: record ids and their labels, parallel arrays (each id is
  // framed as a u64).
  std::vector<size_t> records;
  // kCrack (parallel to `records`) or kRepair (exactly one).
  std::vector<data::LabelerOutput> labels;
  // kRepair: position of the repaired representative.
  uint64_t rep_pos = 0;
  // kAppend: raw feature rows; replay re-embeds them through the index's
  // stored embedder, which is deterministic.
  nn::Matrix features;
  // kEpochPublish: the epoch the preceding mutations produced.
  uint64_t epoch = 0;
};

std::string SegmentFileName(uint64_t seq);
/// The sequence number encoded in a segment file name, if it is one.
std::optional<uint64_t> ParseSegmentFileName(const std::string& name);

/// One framed, checksummed record.
std::string EncodeWalRecord(const WalRecord& record);

/// A decoded segment. `offsets` has one entry per record plus a final
/// entry equal to `valid_bytes`, so offsets[i]..offsets[i+1] spans record
/// i's frame — recovery uses it to truncate an uncommitted tail in place.
struct WalSegment {
  std::vector<WalRecord> records;
  std::vector<size_t> offsets;
  size_t valid_bytes = 0;  ///< prefix covered by structurally whole frames
  size_t torn_bytes = 0;   ///< bytes past valid_bytes (frame ran off EOF)
  bool corrupt = false;    ///< a whole frame failed its checksum or parse
  std::string error;       ///< detail when corrupt
};

/// Decodes frames sequentially. A frame that runs past end-of-buffer is a
/// torn tail (the normal aftermath of a crash mid-sync); a structurally
/// whole frame whose checksum or body fails to parse marks the segment
/// corrupt (bit rot — recovery quarantines the file). Decoding stops at
/// the first bad frame either way.
WalSegment DecodeWalSegment(const std::string& buffer);

/// Buffers records for one segment and flushes them at explicit Sync()
/// barriers. Not thread-safe; the server serializes mutations under its
/// crack mutex.
class WalWriter {
 public:
  /// Appends into dir/wal-<seq>.log (created on first Sync), assigning
  /// LSNs from `next_lsn`.
  WalWriter(File* fs, std::string dir, uint64_t seq, uint64_t next_lsn);

  /// Frames the record, stamps it with the next LSN (returned), and
  /// buffers it. Nothing reaches disk until Sync().
  uint64_t Append(WalRecord record);

  /// Durability barrier: one appending write + fsync of everything
  /// buffered. No-op when the buffer is empty.
  Status Sync();

  uint64_t segment() const { return seq_; }
  uint64_t next_lsn() const { return next_lsn_; }
  size_t buffered_bytes() const { return buffer_.size(); }
  /// Bytes this writer has durably appended to its segment.
  size_t synced_bytes() const { return synced_bytes_; }
  const std::string& path() const { return path_; }

 private:
  File* fs_;
  std::string dir_;
  uint64_t seq_;
  uint64_t next_lsn_;
  std::string path_;
  std::string buffer_;
  size_t synced_bytes_ = 0;
};

}  // namespace tasti::durable

#endif  // TASTI_DURABLE_WAL_H_
