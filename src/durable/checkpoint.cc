#include "durable/checkpoint.h"

#include <cstdio>
#include <utility>

#include "core/serialize.h"
#include "obs/trace.h"
#include "util/byte_codec.h"
#include "util/checksum.h"

namespace tasti::durable {

namespace {

constexpr uint32_t kManifestMagic = 0x4E4D5354;    // "TSMN"
constexpr uint32_t kCheckpointMagic = 0x50435354;  // "TSCP"

void PutMeta(std::string* out, const Manifest& meta) {
  Put<uint64_t>(out, meta.checkpoint_seq);
  Put<uint64_t>(out, meta.epoch);
  Put<uint64_t>(out, meta.wal_segment);
  Put<uint64_t>(out, meta.next_lsn);
  Put<uint64_t>(out, meta.checkpoint_file.size());
  out->append(meta.checkpoint_file);
}

bool GetMeta(const std::string& in, size_t* at, Manifest* meta) {
  uint64_t name_size = 0;
  if (!Get(in, at, &meta->checkpoint_seq) || !Get(in, at, &meta->epoch) ||
      !Get(in, at, &meta->wal_segment) || !Get(in, at, &meta->next_lsn) ||
      !Get(in, at, &name_size) || *at + name_size > in.size()) {
    return false;
  }
  meta->checkpoint_file = in.substr(*at, name_size);
  *at += name_size;
  return true;
}

}  // namespace

std::string CheckpointFileName(uint64_t seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "checkpoint-%06llu.ckpt",
                static_cast<unsigned long long>(seq));
  return name;
}

std::optional<uint64_t> ParseCheckpointFileName(const std::string& name) {
  unsigned long long seq = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "checkpoint-%llu.ckpt%n", &seq, &consumed) !=
          1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return std::nullopt;
  }
  return seq;
}

std::string EncodeManifest(const Manifest& manifest, uint32_t version) {
  std::string out;
  Put<uint32_t>(&out, kManifestMagic);
  Put<uint32_t>(&out, version);
  PutMeta(&out, manifest);
  AppendChecksumFooter(&out);
  return out;
}

Result<Manifest> DecodeManifest(const std::string& buffer) {
  Result<size_t> payload_size = VerifyChecksumFooter(buffer);
  TASTI_RETURN_NOT_OK(payload_size.status());
  const std::string payload = buffer.substr(0, *payload_size);
  size_t at = 0;
  uint32_t magic = 0, version = 0;
  if (!Get(payload, &at, &magic) || magic != kManifestMagic) {
    return Status::InvalidArgument("bad magic: not a TASTI manifest");
  }
  if (!Get(payload, &at, &version) || version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(version));
  }
  Manifest manifest;
  if (!GetMeta(payload, &at, &manifest) || at != payload.size()) {
    return Status::InvalidArgument("truncated manifest");
  }
  return manifest;
}

Result<std::string> EncodeCheckpoint(const core::TastiIndex& index,
                                     const Manifest& meta, uint32_t version) {
  Result<std::string> blob = core::IndexSerializer::SerializeToString(index);
  TASTI_RETURN_NOT_OK(blob.status());
  std::string out;
  Put<uint32_t>(&out, kCheckpointMagic);
  Put<uint32_t>(&out, version);
  PutMeta(&out, meta);
  Put<uint64_t>(&out, blob->size());
  out.append(*blob);
  AppendChecksumFooter(&out);
  return out;
}

Result<CheckpointContents> DecodeCheckpoint(const std::string& buffer) {
  Result<size_t> payload_size = VerifyChecksumFooter(buffer);
  TASTI_RETURN_NOT_OK(payload_size.status());
  const std::string payload = buffer.substr(0, *payload_size);
  size_t at = 0;
  uint32_t magic = 0, version = 0;
  if (!Get(payload, &at, &magic) || magic != kCheckpointMagic) {
    return Status::InvalidArgument("bad magic: not a TASTI checkpoint");
  }
  if (!Get(payload, &at, &version) || version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  CheckpointContents contents;
  uint64_t blob_size = 0;
  if (!GetMeta(payload, &at, &contents.meta) ||
      !Get(payload, &at, &blob_size) || at + blob_size != payload.size()) {
    return Status::InvalidArgument("truncated checkpoint");
  }
  Result<core::TastiIndex> index = core::IndexSerializer::DeserializeFromString(
      payload.substr(at, blob_size));
  TASTI_RETURN_NOT_OK(index.status());
  contents.index = std::move(*index);
  return contents;
}

DurabilityManager::DurabilityManager(const DurabilityOptions& options, File* fs)
    : options_(options), fs_(fs), dir_(options.dir) {}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options, const core::TastiIndex& index,
    uint64_t epoch, uint64_t next_lsn, uint64_t wal_segment,
    uint64_t checkpoint_seq) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions::dir is empty");
  }
  File* fs = options.fs != nullptr ? options.fs : DefaultFile();
  std::unique_ptr<DurabilityManager> manager(
      new DurabilityManager(options, fs));
  TASTI_RETURN_NOT_OK(fs->MakeDir(options.dir));
  manager->writer_ = std::make_unique<WalWriter>(fs, options.dir, wal_segment,
                                                 next_lsn);
  manager->checkpoint_seq_ = checkpoint_seq;
  // The immediate checkpoint makes the directory self-sufficient from op
  // one: recovery always has a base to replay onto, and — after a
  // recovery — it retires the segments replay already consumed.
  TASTI_RETURN_NOT_OK(manager->Checkpoint(index, epoch));
  return manager;
}

Status DurabilityManager::Fail(Status status) {
  stats_.failed = true;
  failure_ = status;
  return status;
}

Status DurabilityManager::Log(WalRecord record) {
  if (stats_.failed) return failure_;
  const size_t before = writer_->buffered_bytes();
  writer_->Append(std::move(record));
  ++stats_.records_logged;
  stats_.bytes_logged += writer_->buffered_bytes() - before;
  return Status::OK();
}

Status DurabilityManager::CommitEpoch(const core::TastiIndex& index,
                                      uint64_t epoch) {
  if (stats_.failed) return failure_;
  WalRecord marker;
  marker.type = WalRecordType::kEpochPublish;
  marker.epoch = epoch;
  const size_t before = writer_->buffered_bytes();
  writer_->Append(std::move(marker));
  ++stats_.records_logged;
  stats_.bytes_logged += writer_->buffered_bytes() - before;
  Status synced = writer_->Sync();
  if (!synced.ok()) return Fail(synced);
  ++stats_.syncs;
  ++stats_.epochs_published;
  dirty_since_checkpoint_ = true;
  if (++epochs_since_checkpoint_ >= options_.checkpoint_every_epochs) {
    return Checkpoint(index, epoch);
  }
  return Status::OK();
}

Status DurabilityManager::Checkpoint(const core::TastiIndex& index,
                                     uint64_t epoch) {
  TASTI_SPAN("durable.checkpoint");
  if (stats_.failed) return failure_;
  Status synced = writer_->Sync();
  if (!synced.ok()) return Fail(synced);
  if (writer_->synced_bytes() > 0) {
    // Rotate so the manifest's (wal_segment, next_lsn) mark cleanly bounds
    // replay: everything below it lives in the checkpoint, everything at or
    // above it in segments the GC keeps.
    writer_ = std::make_unique<WalWriter>(fs_, dir_, writer_->segment() + 1,
                                          writer_->next_lsn());
  }
  Manifest meta;
  meta.checkpoint_seq = ++checkpoint_seq_;
  meta.epoch = epoch;
  meta.wal_segment = writer_->segment();
  meta.next_lsn = writer_->next_lsn();
  meta.checkpoint_file = CheckpointFileName(meta.checkpoint_seq);
  Result<std::string> blob = EncodeCheckpoint(index, meta);
  if (!blob.ok()) return Fail(blob.status());
  Status written = fs_->WriteAtomic(dir_ + "/" + meta.checkpoint_file, *blob);
  if (!written.ok()) return Fail(written);
  written = fs_->WriteAtomic(dir_ + "/MANIFEST", EncodeManifest(meta));
  if (!written.ok()) return Fail(written);
  ++stats_.checkpoints_written;
  epochs_since_checkpoint_ = 0;
  dirty_since_checkpoint_ = false;
  CollectGarbage(meta);
  return Status::OK();
}

void DurabilityManager::CollectGarbage(const Manifest& meta) {
  Result<std::vector<std::string>> names = fs_->List(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    bool stale = false;
    if (std::optional<uint64_t> seq = ParseCheckpointFileName(name)) {
      stale = *seq < meta.checkpoint_seq;
    } else if (std::optional<uint64_t> seq = ParseSegmentFileName(name)) {
      stale = *seq < meta.wal_segment;
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale = true;  // stray from an interrupted atomic publish
    }
    // Failures are harmless — recovery never reads below the manifest's
    // high-water mark — and a dead injected filesystem rejects them anyway.
    if (stale && fs_->Remove(dir_ + "/" + name).ok()) {
      ++stats_.segments_deleted;
    }
  }
}

}  // namespace tasti::durable
