#include "durable/recovery.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace tasti::durable {

Applied& Applied::operator+=(const Applied& other) {
  if (appended == 0) first_record = other.first_record;
  cracked += other.cracked;
  repaired += other.repaired;
  appended += other.appended;
  return *this;
}

Result<Applied> Apply(core::TastiIndex* index, const WalRecord& record) {
  Applied applied;
  switch (record.type) {
    case WalRecordType::kCrack:
      for (size_t id : record.records) {
        if (id >= index->num_records()) {
          return Status::DataLoss("crack of record " + std::to_string(id) +
                                  " of " +
                                  std::to_string(index->num_records()));
        }
      }
      applied.cracked = index->CrackFromLabels(record.records, record.labels);
      break;
    case WalRecordType::kRepair:
      if (record.rep_pos >= index->num_representatives() ||
          record.labels.size() != 1) {
        return Status::DataLoss(
            "repair of representative " + std::to_string(record.rep_pos) +
            " of " + std::to_string(index->num_representatives()) + " with " +
            std::to_string(record.labels.size()) + " labels");
      }
      if (index->rep_label_valid()[record.rep_pos] != 0) break;
      index->RepairRepresentative(record.rep_pos, record.labels.front());
      applied.repaired = 1;
      break;
    case WalRecordType::kAppend:
      applied.first_record = index->AppendRecords(record.features);
      applied.appended = record.features.rows();
      break;
    case WalRecordType::kEpochPublish:
      break;
  }
  return applied;
}

Result<RecoveredState> Recover(File* fs, const std::string& dir) {
  if (fs == nullptr) fs = DefaultFile();
  if (!fs->Exists(dir)) {
    return Status::NotFound("no durable state at " + dir);
  }
  RecoveredState out;
  RecoveryStats& stats = out.stats;

  auto quarantine = [&](const std::string& name, const std::string& why) {
    (void)fs->MakeDir(dir + "/quarantine");
    Status moved = fs->Rename(dir + "/" + name, dir + "/quarantine/" + name);
    stats.quarantined_files.push_back(name);
    std::string fault = "quarantined " + name + ": " + why;
    if (!moved.ok()) fault += " (move failed: " + moved.message() + ")";
    stats.faults.push_back(fault);
  };

  // --- 1. Manifest (or fall back to the self-describing checkpoints) ---
  std::optional<Manifest> manifest;
  if (fs->Exists(dir + "/MANIFEST")) {
    Result<std::string> raw = fs->Read(dir + "/MANIFEST");
    Result<Manifest> decoded =
        raw.ok() ? DecodeManifest(*raw) : Result<Manifest>(raw.status());
    if (decoded.ok()) {
      manifest = *decoded;
    } else {
      stats.manifest_missing = true;
      quarantine("MANIFEST", decoded.status().message());
    }
  } else {
    stats.manifest_missing = true;
  }

  Result<std::vector<std::string>> names = fs->List(dir);
  TASTI_RETURN_NOT_OK(names.status());
  uint64_t max_checkpoint_seq = 0;
  for (const std::string& name : *names) {
    if (std::optional<uint64_t> seq = ParseCheckpointFileName(name)) {
      max_checkpoint_seq = std::max(max_checkpoint_seq, *seq);
    }
  }

  // --- 2. Latest loadable checkpoint ---
  std::optional<CheckpointContents> checkpoint;
  auto try_load = [&](const std::string& name) {
    Result<std::string> raw = fs->Read(dir + "/" + name);
    Result<CheckpointContents> decoded =
        raw.ok() ? DecodeCheckpoint(*raw)
                 : Result<CheckpointContents>(raw.status());
    if (decoded.ok()) {
      checkpoint = std::move(*decoded);
      return true;
    }
    quarantine(name, decoded.status().message());
    return false;
  };
  if (manifest.has_value() && !try_load(manifest->checkpoint_file)) {
    manifest.reset();
  }
  if (!checkpoint.has_value()) {
    std::vector<std::pair<uint64_t, std::string>> candidates;
    for (const std::string& name : *names) {
      if (std::optional<uint64_t> seq = ParseCheckpointFileName(name)) {
        candidates.emplace_back(*seq, name);
      }
    }
    std::sort(candidates.rbegin(), candidates.rend());
    for (const auto& [seq, name] : candidates) {
      if (!fs->Exists(dir + "/" + name)) continue;  // already quarantined
      if (try_load(name)) break;
    }
  }
  if (!checkpoint.has_value()) {
    return Status::NotFound("no usable checkpoint in " + dir);
  }
  const Manifest meta = checkpoint->meta;
  stats.checkpoint_seq = meta.checkpoint_seq;
  stats.checkpoint_epoch = meta.epoch;
  out.index = std::move(checkpoint->index);
  out.epoch = meta.epoch;
  out.checkpoint_seq = std::max(max_checkpoint_seq, meta.checkpoint_seq);

  // --- 3. Replay committed WAL records above the high-water mark ---
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    if (std::optional<uint64_t> seq = ParseSegmentFileName(name)) {
      if (*seq >= meta.wal_segment) segments.emplace_back(*seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());

  uint64_t expect_lsn = meta.next_lsn;
  uint64_t last_good_seq = meta.wal_segment - 1;
  bool stop = false;
  std::string stop_reason;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, name] = segments[i];
    if (stop) {
      // Anything past a bad segment is unreachable by contiguous replay; a
      // resumed writer must not find it either.
      quarantine(name, "follows " + stop_reason);
      continue;
    }
    if (seq != last_good_seq + 1) {
      stop = true;
      stop_reason = "a segment-sequence gap";
      quarantine(name, "segment sequence gap (expected " +
                           SegmentFileName(last_good_seq + 1) + ")");
      continue;
    }
    ++stats.segments_read;
    Result<std::string> raw = fs->Read(dir + "/" + name);
    if (!raw.ok()) {
      stop = true;
      stop_reason = "unreadable segment " + name;
      quarantine(name, raw.status().message());
      continue;
    }
    WalSegment segment = DecodeWalSegment(*raw);
    const bool last = i + 1 == segments.size();
    std::string bad;
    if (segment.corrupt) {
      bad = segment.error;
    } else if (segment.torn_bytes > 0 && !last) {
      // A tear is only plausible at the very end of the log; mid-log it
      // means the file was damaged after being written.
      bad = "torn bytes inside a non-final segment";
    }
    if (bad.empty()) {
      uint64_t lsn = expect_lsn;
      for (const WalRecord& record : segment.records) {
        if (record.lsn != lsn) {
          bad = "LSN discontinuity (expected " + std::to_string(lsn) +
                ", found " + std::to_string(record.lsn) + ")";
          break;
        }
        ++lsn;
      }
    }
    if (!bad.empty()) {
      stop = true;
      stop_reason = "corrupt segment " + name;
      quarantine(name, bad);
      continue;
    }
    // Apply mutations batch-wise at their epoch-publish markers; a batch
    // whose marker never hit the disk was never observable.
    size_t committed_end = 0;
    size_t committed_records = 0;
    for (size_t j = 0; j < segment.records.size(); ++j) {
      const WalRecord& marker = segment.records[j];
      if (marker.type != WalRecordType::kEpochPublish) continue;
      for (size_t p = committed_records; p < j; ++p) {
        const WalRecord& record = segment.records[p];
        Result<Applied> applied = Apply(&out.index, record);
        if (!applied.ok()) {
          return Status::DataLoss(name + " LSN " + std::to_string(record.lsn) +
                                  ": " + applied.status().message());
        }
        stats.cracks_replayed += record.type == WalRecordType::kCrack;
        stats.repairs_replayed += record.type == WalRecordType::kRepair;
        stats.appends_replayed += record.type == WalRecordType::kAppend;
      }
      stats.records_replayed += j - committed_records;
      out.epoch = marker.epoch;
      ++stats.epochs_replayed;
      committed_end = segment.offsets[j + 1];
      committed_records = j + 1;
    }
    expect_lsn += committed_records;  // truncated tail LSNs get reused
    stats.uncommitted_records_discarded +=
        segment.records.size() - committed_records;
    last_good_seq = seq;
    if (committed_end < raw->size()) {
      // Drop the uncommitted/torn tail physically too, so a second
      // recovery — and the writer that resumes appending — reads exactly
      // the state returned here.
      stats.torn_bytes_truncated += raw->size() - committed_end;
      Status truncated =
          fs->Write(dir + "/" + name, raw->substr(0, committed_end));
      if (!truncated.ok()) {
        stats.faults.push_back("could not truncate " + name + ": " +
                               truncated.message());
      }
    }
  }
  out.next_lsn = expect_lsn;
  out.wal_segment = last_good_seq + 1;
  return out;
}

}  // namespace tasti::durable
