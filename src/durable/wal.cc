#include "durable/wal.h"

#include <cstdio>
#include <utility>

#include "labeler/label_codec.h"
#include "util/byte_codec.h"
#include "util/checksum.h"

namespace tasti::durable {

namespace {

// A frame_len beyond this is garbage even if the buffer could hold it
// (e.g. bit rot inside a length prefix that still lands in-bounds).
constexpr size_t kMaxFrameBytes = 1ull << 30;

bool DecodeBody(const std::string& payload, size_t at, WalRecord* record) {
  switch (record->type) {
    case WalRecordType::kCrack: {
      uint64_t count = 0;
      if (!Get(payload, &at, &count)) return false;
      record->records.reserve(count);
      record->labels.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t record_id = 0;
        data::LabelerOutput label;
        if (!Get(payload, &at, &record_id) ||
            !labeler::DecodeLabel(payload, &at, &label)) {
          return false;
        }
        record->records.push_back(record_id);
        record->labels.push_back(std::move(label));
      }
      return at == payload.size();
    }
    case WalRecordType::kRepair: {
      data::LabelerOutput label;
      if (!Get(payload, &at, &record->rep_pos) ||
          !labeler::DecodeLabel(payload, &at, &label)) {
        return false;
      }
      record->labels.push_back(std::move(label));
      return at == payload.size();
    }
    case WalRecordType::kAppend: {
      return GetMatrix(payload, &at, &record->features) &&
             at == payload.size();
    }
    case WalRecordType::kEpochPublish:
      return Get(payload, &at, &record->epoch) && at == payload.size();
  }
  return false;
}

}  // namespace

std::string SegmentFileName(uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return name;
}

std::optional<uint64_t> ParseSegmentFileName(const std::string& name) {
  unsigned long long seq = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%llu.log%n", &seq, &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return std::nullopt;
  }
  return seq;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  Put<uint8_t>(&payload, static_cast<uint8_t>(record.type));
  Put<uint64_t>(&payload, record.lsn);
  switch (record.type) {
    case WalRecordType::kCrack:
      Put<uint64_t>(&payload, record.records.size());
      for (size_t i = 0; i < record.records.size(); ++i) {
        Put<uint64_t>(&payload, record.records[i]);
        labeler::EncodeLabel(&payload, record.labels[i]);
      }
      break;
    case WalRecordType::kRepair:
      Put<uint64_t>(&payload, record.rep_pos);
      labeler::EncodeLabel(&payload, record.labels.front());
      break;
    case WalRecordType::kAppend:
      PutMatrix(&payload, record.features);
      break;
    case WalRecordType::kEpochPublish:
      Put<uint64_t>(&payload, record.epoch);
      break;
  }
  AppendChecksumFooter(&payload);
  std::string frame;
  frame.reserve(payload.size() + sizeof(uint32_t));
  Put<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

WalSegment DecodeWalSegment(const std::string& buffer) {
  WalSegment segment;
  size_t at = 0;
  segment.offsets.push_back(0);
  while (at < buffer.size()) {
    uint32_t frame_len = 0;
    size_t cursor = at;
    if (!Get(buffer, &cursor, &frame_len)) break;  // torn length prefix
    if (frame_len > kMaxFrameBytes) {
      segment.corrupt = true;
      segment.error = "implausible frame length " + std::to_string(frame_len);
      break;
    }
    if (cursor + frame_len > buffer.size()) break;  // frame runs off EOF
    const std::string frame = buffer.substr(cursor, frame_len);
    Result<size_t> payload_size = VerifyChecksumFooter(frame);
    if (!payload_size.ok()) {
      segment.corrupt = true;
      segment.error = "frame checksum: " + payload_size.status().message();
      break;
    }
    const std::string payload = frame.substr(0, *payload_size);
    WalRecord record;
    size_t body_at = 0;
    uint8_t type = 0;
    if (!Get(payload, &body_at, &type) ||
        !Get(payload, &body_at, &record.lsn)) {
      segment.corrupt = true;
      segment.error = "truncated frame header";
      break;
    }
    record.type = static_cast<WalRecordType>(type);
    if (type < static_cast<uint8_t>(WalRecordType::kCrack) ||
        type > static_cast<uint8_t>(WalRecordType::kEpochPublish) ||
        !DecodeBody(payload, body_at, &record)) {
      segment.corrupt = true;
      segment.error = "unparseable record body (type " + std::to_string(type) +
                      ", lsn " + std::to_string(record.lsn) + ")";
      break;
    }
    at = cursor + frame_len;
    segment.records.push_back(std::move(record));
    segment.offsets.push_back(at);
  }
  segment.valid_bytes = segment.offsets.back();
  if (!segment.corrupt) {
    segment.torn_bytes = buffer.size() - segment.valid_bytes;
  }
  return segment;
}

WalWriter::WalWriter(File* fs, std::string dir, uint64_t seq,
                     uint64_t next_lsn)
    : fs_(fs),
      dir_(std::move(dir)),
      seq_(seq),
      next_lsn_(next_lsn),
      path_(dir_ + "/" + SegmentFileName(seq)) {}

uint64_t WalWriter::Append(WalRecord record) {
  record.lsn = next_lsn_++;
  buffer_.append(EncodeWalRecord(record));
  return record.lsn;
}

Status WalWriter::Sync() {
  if (buffer_.empty()) return Status::OK();
  TASTI_RETURN_NOT_OK(fs_->Append(path_, buffer_));
  synced_bytes_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

}  // namespace tasti::durable
