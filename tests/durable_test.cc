// Tests for durable/: the crash-injecting File, WAL framing and torn/
// corrupt-tail detection, checkpoint + manifest atomicity and version
// skew, recovery (bit-identical replay, quarantine, idempotence), the
// atomic IndexSerializer::Save, and the score-cache invalidation the
// server performs on recovery. Run under ASan in check.sh's sanitize
// stage — the decode paths here parse attacker-shaped (corrupt) bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "durable/checkpoint.h"
#include "durable/file.h"
#include "durable/recovery.h"
#include "durable/wal.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "serve/server.h"
#include "util/checksum.h"
#include "util/random.h"

namespace tasti::durable {
namespace {

data::Dataset TestDataset(size_t n = 800, uint64_t seed = 91) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

core::IndexOptions FastIndexOptions() {
  core::IndexOptions opts;
  // Pretrained embedder: fast to build and deterministic to re-embed,
  // which is what kAppend replay relies on.
  opts.use_triplet_training = false;
  opts.num_representatives = 60;
  opts.embedding_dim = 16;
  opts.k = 3;
  return opts;
}

core::TastiIndex BuildSmallIndex(const data::Dataset& ds) {
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  return core::TastiIndex::Build(ds, &adapter, FastIndexOptions());
}

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  // Start from a clean slate: tests re-run in the same TempDir.
  File* fs = DefaultFile();
  if (fs->Exists(dir)) {
    Result<std::vector<std::string>> names = fs->List(dir);
    if (names.ok()) {
      for (const std::string& entry : *names) {
        if (fs->Exists(dir + "/" + entry + "/.")) {  // subdirectory
          Result<std::vector<std::string>> inner =
              fs->List(dir + "/" + entry);
          if (inner.ok()) {
            for (const std::string& f : *inner) {
              (void)fs->Remove(dir + "/" + entry + "/" + f);
            }
          }
          (void)fs->Remove(dir + "/" + entry);
        } else {
          (void)fs->Remove(dir + "/" + entry);
        }
      }
    }
  }
  return dir;
}

uint64_t IndexFingerprint(const core::TastiIndex& index) {
  Result<std::string> blob = core::IndexSerializer::SerializeToString(index);
  EXPECT_TRUE(blob.ok()) << blob.status().message();
  return Fnv1a64(blob->data(), blob->size());
}

// --- durable::File ---

TEST(FileTest, CountsMutationsAndReadsAreFree) {
  const std::string dir = TestDir("file_counts");
  File fs;
  ASSERT_TRUE(fs.MakeDir(dir).ok());
  EXPECT_EQ(fs.ops(), 1u);
  ASSERT_TRUE(fs.Write(dir + "/a", "hello").ok());
  ASSERT_TRUE(fs.Append(dir + "/a", " world").ok());
  EXPECT_EQ(fs.ops(), 3u);
  Result<std::string> read = fs.Read(dir + "/a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello world");
  EXPECT_TRUE(fs.Exists(dir + "/a"));
  EXPECT_EQ(fs.ops(), 3u);  // reads are uncounted
}

TEST(FileTest, CrashAtOpTearsThenStaysDead) {
  const std::string dir = TestDir("file_crash");
  ASSERT_TRUE(DefaultFile()->MakeDir(dir).ok());
  File fs(CrashPoint{/*crash_at_op=*/2, /*seed=*/7});
  ASSERT_TRUE(fs.Write(dir + "/a", "first").ok());  // op 1: admitted
  const std::string payload(64, 'x');
  Status torn = fs.Write(dir + "/b", payload);  // op 2: the crash point
  EXPECT_FALSE(torn.ok());
  EXPECT_TRUE(fs.crashed());
  if (fs.Exists(dir + "/b")) {
    // At most a seeded prefix of the payload may have landed.
    Result<std::string> b = fs.Read(dir + "/b");
    ASSERT_TRUE(b.ok());
    EXPECT_LE(b->size(), payload.size());
  }
  // Every later mutation fails without side effects.
  EXPECT_FALSE(fs.Write(dir + "/c", "late").ok());
  EXPECT_FALSE(fs.Rename(dir + "/a", dir + "/a2").ok());
  EXPECT_FALSE(fs.Exists(dir + "/c"));
  EXPECT_TRUE(fs.Exists(dir + "/a"));
}

TEST(FileTest, WriteAtomicNeverLeavesTornTarget) {
  const std::string dir = TestDir("file_atomic");
  File clean;
  ASSERT_TRUE(clean.MakeDir(dir).ok());
  ASSERT_TRUE(clean.WriteAtomic(dir + "/t", "old durable state").ok());

  File fs;
  fs.ArmCrash(/*ops_from_now=*/1, /*seed=*/3);
  EXPECT_FALSE(fs.WriteAtomic(dir + "/t", "replacement").ok());
  Result<std::string> after = clean.Read(dir + "/t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "old durable state");   // target untouched
  EXPECT_FALSE(clean.Exists(dir + "/t.tmp"));  // tmp cleaned up
}

// --- WAL framing ---

WalRecord CrackRecord(const data::Dataset& ds, uint64_t lsn,
                      std::vector<size_t> records) {
  WalRecord record;
  record.type = WalRecordType::kCrack;
  record.lsn = lsn;
  for (size_t id : records) {
    // An id past the dataset (a record that does not fit the index) gets
    // a placeholder label.
    record.labels.push_back(ds.ground_truth[id % ds.size()]);
  }
  record.records = std::move(records);
  return record;
}

TEST(WalTest, RecordRoundTripAllTypes) {
  data::Dataset ds = TestDataset(64);
  std::string buffer = EncodeWalRecord(CrackRecord(ds, 1, {3, 9, 12}));

  WalRecord repair;
  repair.type = WalRecordType::kRepair;
  repair.lsn = 2;
  repair.rep_pos = 5;
  repair.labels.push_back(ds.ground_truth[5]);
  buffer += EncodeWalRecord(repair);

  WalRecord append;
  append.type = WalRecordType::kAppend;
  append.lsn = 3;
  append.features = nn::Matrix(2, 4);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      append.features.At(r, c) = static_cast<float>(r * 4 + c) * 0.5f;
    }
  }
  buffer += EncodeWalRecord(append);

  WalRecord marker;
  marker.type = WalRecordType::kEpochPublish;
  marker.lsn = 4;
  marker.epoch = 17;
  buffer += EncodeWalRecord(marker);

  WalSegment segment = DecodeWalSegment(buffer);
  EXPECT_FALSE(segment.corrupt);
  EXPECT_EQ(segment.torn_bytes, 0u);
  EXPECT_EQ(segment.valid_bytes, buffer.size());
  ASSERT_EQ(segment.records.size(), 4u);
  ASSERT_EQ(segment.offsets.size(), 5u);
  EXPECT_EQ(segment.offsets.back(), buffer.size());

  EXPECT_EQ(segment.records[0].type, WalRecordType::kCrack);
  EXPECT_EQ(segment.records[0].lsn, 1u);
  EXPECT_EQ(segment.records[0].records, (std::vector<size_t>{3, 9, 12}));
  ASSERT_EQ(segment.records[0].labels.size(), 3u);

  EXPECT_EQ(segment.records[1].type, WalRecordType::kRepair);
  EXPECT_EQ(segment.records[1].rep_pos, 5u);
  ASSERT_EQ(segment.records[1].labels.size(), 1u);

  EXPECT_EQ(segment.records[2].type, WalRecordType::kAppend);
  EXPECT_EQ(segment.records[2].features.rows(), 2u);
  EXPECT_EQ(segment.records[2].features.cols(), 4u);
  EXPECT_FLOAT_EQ(segment.records[2].features.At(1, 3), 3.5f);

  EXPECT_EQ(segment.records[3].type, WalRecordType::kEpochPublish);
  EXPECT_EQ(segment.records[3].epoch, 17u);
}

TEST(WalTest, TornTailIsNotCorruption) {
  data::Dataset ds = TestDataset(64);
  const std::string whole = EncodeWalRecord(CrackRecord(ds, 1, {2, 4}));
  std::string buffer = whole;
  const std::string next = EncodeWalRecord(CrackRecord(ds, 2, {6}));
  buffer += next.substr(0, next.size() / 2);  // crash mid-append

  WalSegment segment = DecodeWalSegment(buffer);
  EXPECT_FALSE(segment.corrupt) << segment.error;
  ASSERT_EQ(segment.records.size(), 1u);
  EXPECT_EQ(segment.valid_bytes, whole.size());
  EXPECT_EQ(segment.torn_bytes, buffer.size() - whole.size());
}

TEST(WalTest, BitFlipMarksSegmentCorrupt) {
  data::Dataset ds = TestDataset(64);
  std::string buffer = EncodeWalRecord(CrackRecord(ds, 1, {2, 4}));
  buffer += EncodeWalRecord(CrackRecord(ds, 2, {6}));
  buffer[buffer.size() / 3] ^= 0x20;  // bit rot inside a whole frame

  WalSegment segment = DecodeWalSegment(buffer);
  EXPECT_TRUE(segment.corrupt);
  EXPECT_FALSE(segment.error.empty());
}

TEST(WalTest, SegmentFileNamesRoundTrip) {
  EXPECT_EQ(SegmentFileName(7), "wal-000007.log");
  EXPECT_EQ(ParseSegmentFileName("wal-000007.log"), 7u);
  EXPECT_FALSE(ParseSegmentFileName("wal-7.txt").has_value());
  EXPECT_FALSE(ParseSegmentFileName("checkpoint-000001.ckpt").has_value());
  EXPECT_EQ(ParseCheckpointFileName("checkpoint-000004.ckpt"), 4u);
}

// --- Checkpoint + manifest ---

TEST(CheckpointTest, ManifestRoundTripAndVersionSkew) {
  Manifest m;
  m.checkpoint_seq = 4;
  m.epoch = 11;
  m.wal_segment = 5;
  m.next_lsn = 42;
  m.checkpoint_file = CheckpointFileName(4);

  Result<Manifest> decoded = DecodeManifest(EncodeManifest(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->checkpoint_seq, 4u);
  EXPECT_EQ(decoded->epoch, 11u);
  EXPECT_EQ(decoded->wal_segment, 5u);
  EXPECT_EQ(decoded->next_lsn, 42u);
  EXPECT_EQ(decoded->checkpoint_file, "checkpoint-000004.ckpt");

  // A manifest from a future format version is rejected, not misparsed.
  Result<Manifest> skewed =
      DecodeManifest(EncodeManifest(m, kManifestVersion + 1));
  EXPECT_FALSE(skewed.ok());

  std::string flipped = EncodeManifest(m);
  flipped[6] ^= 1;
  EXPECT_FALSE(DecodeManifest(flipped).ok());
}

TEST(CheckpointTest, CheckpointRoundTripAndVersionSkew) {
  data::Dataset ds = TestDataset(500);
  core::TastiIndex index = BuildSmallIndex(ds);
  Manifest meta;
  meta.checkpoint_seq = 1;
  meta.epoch = 3;
  meta.checkpoint_file = CheckpointFileName(1);

  Result<std::string> blob = EncodeCheckpoint(index, meta);
  ASSERT_TRUE(blob.ok());
  Result<CheckpointContents> decoded = DecodeCheckpoint(*blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->meta.epoch, 3u);
  EXPECT_EQ(IndexFingerprint(decoded->index), IndexFingerprint(index));

  Result<std::string> skewed =
      EncodeCheckpoint(index, meta, kCheckpointVersion + 1);
  ASSERT_TRUE(skewed.ok());
  EXPECT_FALSE(DecodeCheckpoint(*skewed).ok());
}

// --- Recovery ---

struct DurableRig {
  data::Dataset ds = TestDataset(600);
  core::TastiIndex index;
  File fs;
  std::string dir;
  std::unique_ptr<DurabilityManager> manager;

  explicit DurableRig(const std::string& name)
      : index(BuildSmallIndex(ds)), dir(TestDir(name)) {
    DurabilityOptions options;
    options.dir = dir;
    options.fs = &fs;
    Result<std::unique_ptr<DurabilityManager>> opened =
        DurabilityManager::Open(options, index, /*epoch=*/1);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    manager = std::move(*opened);
  }

  /// Cracks `records` into the live index and commits it as `epoch`,
  /// mirroring what the server does under its crack mutex.
  void CrackEpoch(uint64_t epoch, std::vector<size_t> records) {
    WalRecord record = CrackRecord(ds, 0, std::move(records));
    ASSERT_TRUE(Apply(&index, record).ok());
    ASSERT_TRUE(manager->Log(std::move(record)).ok());
    ASSERT_TRUE(manager->CommitEpoch(index, epoch).ok());
  }
};

TEST(RecoveryTest, ReplaysCommittedEpochsBitIdentically) {
  DurableRig rig("recover_replay");
  rig.CrackEpoch(2, {10, 20, 30});
  rig.CrackEpoch(3, {40, 50});
  const uint64_t want = IndexFingerprint(rig.index);

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->epoch, 3u);
  EXPECT_EQ(IndexFingerprint(recovered->index), want);
  EXPECT_EQ(recovered->stats.cracks_replayed, 2u);
  EXPECT_EQ(recovered->stats.epochs_replayed, 2u);
  EXPECT_FALSE(recovered->stats.manifest_missing);
  EXPECT_TRUE(recovered->stats.quarantined_files.empty());
  // The resume positions continue, not overlap, the replayed log.
  EXPECT_EQ(recovered->next_lsn, rig.manager->stats().records_logged + 1);
}

TEST(RecoveryTest, MissingManifestFallsBackToCheckpointScan) {
  DurableRig rig("recover_no_manifest");
  rig.CrackEpoch(2, {11, 22});
  const uint64_t want = IndexFingerprint(rig.index);
  ASSERT_TRUE(rig.fs.Remove(rig.dir + "/MANIFEST").ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE(recovered->stats.manifest_missing);
  EXPECT_EQ(recovered->epoch, 2u);
  EXPECT_EQ(IndexFingerprint(recovered->index), want);
}

TEST(RecoveryTest, UncommittedTailDiscardedAndPhysicallyTruncated) {
  DurableRig rig("recover_uncommitted");
  rig.CrackEpoch(2, {10, 20});
  // A crack whose epoch marker never reached the disk: logged, synced via
  // a marker-less barrier we emulate by appending the frame directly.
  WalRecord orphan = CrackRecord(rig.ds, /*lsn=*/3, {30});
  const std::string segment_path =
      rig.dir + "/" + SegmentFileName(rig.manager->stats().checkpoints_written);
  ASSERT_TRUE(rig.fs.Exists(segment_path));
  std::string frame = EncodeWalRecord(orphan);
  ASSERT_TRUE(rig.fs.Append(segment_path, frame).ok());
  // Plus a torn half-frame from the crash itself.
  ASSERT_TRUE(
      rig.fs.Append(segment_path, frame.substr(0, frame.size() / 2)).ok());
  const size_t dirty_size = rig.fs.Read(segment_path)->size();
  const uint64_t want = IndexFingerprint(rig.index);

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->epoch, 2u);
  EXPECT_EQ(IndexFingerprint(recovered->index), want);
  EXPECT_EQ(recovered->stats.uncommitted_records_discarded, 1u);
  EXPECT_GT(recovered->stats.torn_bytes_truncated, 0u);
  const size_t clean_size = rig.fs.Read(segment_path)->size();
  EXPECT_LT(clean_size, dirty_size);

  // Idempotence: a second recovery reads the truncated file and returns
  // the identical state with nothing left to discard.
  Result<RecoveredState> again = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->epoch, 2u);
  EXPECT_EQ(IndexFingerprint(again->index), want);
  EXPECT_EQ(again->stats.uncommitted_records_discarded, 0u);
  EXPECT_EQ(again->stats.torn_bytes_truncated, 0u);
}

TEST(RecoveryTest, CorruptSegmentQuarantinedNotFatal) {
  DurableRig rig("recover_corrupt");
  rig.CrackEpoch(2, {10, 20});
  rig.CrackEpoch(3, {30, 40});

  // Bit rot inside a structurally whole frame (not a torn tail): the
  // whole segment is untrustworthy and must be quarantined wholesale —
  // applying even its intact prefix would make recovery non-idempotent.
  const std::string segment_path =
      rig.dir + "/" + SegmentFileName(rig.manager->stats().checkpoints_written);
  Result<std::string> raw = rig.fs.Read(segment_path);
  ASSERT_TRUE(raw.ok());
  std::string damaged = *raw;
  damaged[damaged.size() - 10] ^= 0x40;  // inside the final marker frame
  ASSERT_TRUE(rig.fs.Write(segment_path, damaged).ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  // The damaged segment is quarantined wholesale: recovery rewinds to the
  // checkpoint state (epoch 1) instead of trusting any of its frames.
  EXPECT_EQ(recovered->epoch, 1u);
  ASSERT_EQ(recovered->stats.quarantined_files.size(), 1u);
  EXPECT_FALSE(recovered->stats.faults.empty());
  EXPECT_FALSE(rig.fs.Exists(segment_path));
  EXPECT_TRUE(rig.fs.Exists(rig.dir + "/quarantine/" +
                            recovered->stats.quarantined_files[0]));

  // Idempotence: recovering again finds the quarantined file gone and
  // lands on the same state.
  Result<RecoveredState> again = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->epoch, 1u);
  EXPECT_EQ(IndexFingerprint(again->index),
            IndexFingerprint(recovered->index));
  EXPECT_TRUE(again->stats.quarantined_files.empty());
}

// A checksummed, committed crack whose record id lies past the index is
// data loss, not a record to apply: recovery fails naming the segment and
// the LSN, instead of reading past the end of the index's arrays.
TEST(RecoveryTest, OutOfRangeCrackIdIsDataLoss) {
  DurableRig rig("recover_out_of_range");
  rig.CrackEpoch(2, {10, 20});
  const uint64_t lsn = rig.manager->stats().records_logged + 1;
  const std::string segment =
      SegmentFileName(rig.manager->stats().checkpoints_written);
  ASSERT_TRUE(rig.fs.Exists(rig.dir + "/" + segment));
  WalRecord marker;
  marker.type = WalRecordType::kEpochPublish;
  marker.lsn = lsn + 1;
  marker.epoch = 3;
  ASSERT_TRUE(rig.fs.Append(rig.dir + "/" + segment,
                            EncodeWalRecord(CrackRecord(
                                rig.ds, lsn, {30, rig.ds.size() + 7})) +
                                EncodeWalRecord(marker))
                  .ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().message().find(segment), std::string::npos)
      << recovered.status().message();
  EXPECT_NE(recovered.status().message().find("LSN " + std::to_string(lsn)),
            std::string::npos)
      << recovered.status().message();
}

// Apply() checks a record against the index before touching it, and a
// repair of a representative that is already valid changes nothing.
TEST(ApplyTest, RejectsRecordsThatDoNotFitAndSkipsValidRepairs) {
  data::Dataset ds = TestDataset(300);
  core::TastiIndex index = BuildSmallIndex(ds);
  const uint64_t before = IndexFingerprint(index);

  Result<Applied> crack = Apply(&index, CrackRecord(ds, 1, {5, ds.size()}));
  EXPECT_EQ(crack.status().code(), StatusCode::kDataLoss);
  WalRecord repair;
  repair.type = WalRecordType::kRepair;
  repair.rep_pos = index.num_representatives();
  repair.labels.push_back(ds.ground_truth[0]);
  EXPECT_EQ(Apply(&index, repair).status().code(), StatusCode::kDataLoss);
  repair.rep_pos = 0;  // valid since the build
  Result<Applied> noop = Apply(&index, repair);
  ASSERT_TRUE(noop.ok()) << noop.status().message();
  EXPECT_FALSE(noop->changed());
  EXPECT_EQ(IndexFingerprint(index), before);

  size_t fresh = 0;
  while (index.IsRepresentative(fresh)) ++fresh;
  Result<Applied> added = Apply(&index, CrackRecord(ds, 2, {fresh, fresh}));
  ASSERT_TRUE(added.ok()) << added.status().message();
  EXPECT_EQ(added->cracked, 1u);
  EXPECT_TRUE(index.IsRepresentative(fresh));
}

TEST(RecoveryTest, EmptyDirectoryIsNotFound) {
  File fs;
  Result<RecoveredState> recovered =
      Recover(&fs, TestDir("recover_nothing_here") + "_absent");
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

// --- Atomic IndexSerializer::Save ---

TEST(SaveTest, FailedSaveLeavesNoDebris) {
  data::Dataset ds = TestDataset(400);
  core::TastiIndex index = BuildSmallIndex(ds);
  const std::string missing_parent =
      ::testing::TempDir() + "/no_such_dir_xyz/index.bin";
  EXPECT_FALSE(core::IndexSerializer::Save(index, missing_parent).ok());

  // A failed overwrite leaves the previous file byte-for-byte intact.
  const std::string path = TestDir("save_atomic") + "_f";
  ASSERT_TRUE(core::IndexSerializer::Save(index, path).ok());
  Result<std::string> before = DefaultFile()->Read(path);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(
      core::IndexSerializer::Save(index, path + "/not_a_dir/x").ok());
  Result<std::string> after = DefaultFile()->Read(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  EXPECT_FALSE(DefaultFile()->Exists(path + ".tmp"));

  Result<core::TastiIndex> loaded = core::IndexSerializer::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(IndexFingerprint(*loaded), IndexFingerprint(index));
}

// --- Server integration: recovery + score-cache staleness ---

serve::ServerOptions DurableServerOptions(File* fs, const std::string& dir) {
  serve::ServerOptions opts;
  opts.index = FastIndexOptions();
  opts.num_workers = 1;
  opts.seed = 92;
  opts.durability.dir = dir;
  opts.durability.fs = fs;
  return opts;
}

serve::QuerySpec AggregateSpec(const core::Scorer* scorer) {
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = scorer;
  spec.error_target = 0.2;
  return spec;
}

TEST(ServerRecoveryTest, RecoversBitIdenticalAfterCrash) {
  data::Dataset ds = TestDataset(700);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_recover");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  EXPECT_TRUE(server.Execute(AggregateSpec(&present)).status.ok());
  server.Drain();
  const uint64_t epoch = server.current_epoch();
  Result<std::string> want = server.SerializeIndex();
  ASSERT_TRUE(want.ok());

  // Crash before Shutdown's checkpoint: recovery must come from the WAL.
  fs.ArmCrash(/*ops_from_now=*/1, /*seed=*/5);
  server.Shutdown();
  EXPECT_TRUE(server.durability_stats().failed);

  File clean;
  serve::TastiServer revived(&ds, &adapter,
                             DurableServerOptions(&clean, dir));
  ASSERT_TRUE(revived.RecoverFrom().ok());
  EXPECT_EQ(revived.current_epoch(), epoch);
  Result<std::string> got = revived.SerializeIndex();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);  // bit-identical to the pre-crash epoch
  ASSERT_TRUE(revived.last_recovery().has_value());
  EXPECT_GT(revived.last_recovery()->epochs_replayed, 0u);

  // The recovered server serves — and keeps its attribution books.
  EXPECT_TRUE(revived.Execute(AggregateSpec(&cars)).status.ok());
  revived.Drain();
  EXPECT_TRUE(revived.CheckAttributionInvariant().ok());
  revived.Shutdown();
}

TEST(ServerRecoveryTest, RecoveryInvalidatesScoreCache) {
  data::Dataset ds = TestDataset(700);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_cache_staleness");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  // Warm the proxy-score cache at the current epochs.
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  server.Drain();
  ASSERT_GT(server.score_cache_stats().resident_entries, 0u);

  // Crash: the last crack's epoch publishes in memory but not on disk, so
  // the recovered instance will reuse that epoch id for different content.
  fs.ArmCrash(1, /*seed=*/9);
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  server.Drain();
  server.Shutdown();

  // Warm restart of the same instance: without the explicit Invalidate()
  // in RecoverFrom, the resident entries keyed by the reused epoch ids
  // would serve stale scores as kHit.
  ASSERT_TRUE(server.RecoverFrom().ok());
  serve::ScoreCacheStats cache = server.score_cache_stats();
  EXPECT_GT(cache.invalidations, 0u);
  EXPECT_EQ(cache.resident_entries, 0u);

  serve::QueryResponse response = server.Execute(AggregateSpec(&cars));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.proxy_source, serve::ProxySource::kFull);
  server.Drain();
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

// ServerStats counts over the server object's life: a warm restart keeps
// the query tallies (ids, and so seeds, keep counting) and restarts only
// the attribution ledger.
TEST(ServerRecoveryTest, WarmRestartKeepsQueryTalliesConsistent) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_warm_tallies");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());
  core::CountScorer cars(data::ObjectClass::kCar);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  }
  server.Drain();
  server.Shutdown();

  ASSERT_TRUE(server.RecoverFrom().ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  }
  server.Drain();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_submitted, 5u);
  EXPECT_EQ(stats.queries_completed, stats.queries_submitted);
  EXPECT_EQ(stats.index_invocations, 0u);  // this incarnation built nothing
  EXPECT_EQ(stats.query_invocations, server.query_log().total_invocations());
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

TEST(ServerRecoveryTest, CleanShutdownRecoversFromCheckpointAlone) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_clean_shutdown");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());
  core::CountScorer cars(data::ObjectClass::kCar);
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  server.Drain();
  const uint64_t epoch = server.current_epoch();
  Result<std::string> want = server.SerializeIndex();
  ASSERT_TRUE(want.ok());
  server.Shutdown();  // writes the final checkpoint

  File clean;
  serve::TastiServer revived(&ds, &adapter,
                             DurableServerOptions(&clean, dir));
  ASSERT_TRUE(revived.RecoverFrom().ok());
  EXPECT_EQ(revived.current_epoch(), epoch);
  Result<std::string> got = revived.SerializeIndex();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
  // Clean shutdown means nothing to replay: checkpoint carries it all.
  EXPECT_EQ(revived.last_recovery()->records_replayed, 0u);
  revived.Shutdown();
}

// The build's oracle leaves failed representatives, then heals, and one
// query repairs them: its kRepair records and its crack share one epoch.
// A crash at every mutation of that epoch recovers the build epoch or the
// repair epoch, byte-identical to what the server published.
TEST(ServerRecoveryTest, RepairEpochRecoversAcrossTheCrashGrid) {
  data::Dataset ds = TestDataset(700);
  core::CountScorer cars(data::ObjectClass::kCar);
  struct Leg {
    uint64_t epoch = 0;
    std::string index;
    size_t repairs_replayed = 0;
  };
  // Runs the repair query on a fresh durable server, crashing `crash_at`
  // mutations after the heal (0: never), and recovers on a clean File.
  // `published` receives the index bytes by epoch, `query_ops` the file
  // mutations the query took.
  auto run = [&](uint64_t crash_at, std::vector<std::string>* published,
                 uint64_t* query_ops) {
    labeler::SimulatedLabeler sim(&ds);
    labeler::FaultSchedule broken;
    broken.permanent_rate = 0.2;
    broken.seed = 23;
    labeler::FaultInjectingLabeler oracle(&sim, broken);
    File fs;
    const std::string dir = TestDir("server_repair_" + std::to_string(crash_at));
    serve::TastiServer server(&ds, &oracle, DurableServerOptions(&fs, dir));
    EXPECT_TRUE(server.Start().ok());
    const size_t failed = server.index().num_failed_representatives();
    EXPECT_GT(failed, 0u);
    EXPECT_LE(failed, serve::kMaxRepRepairsPerQuery);
    oracle.set_schedule(labeler::FaultSchedule{});
    if (published != nullptr) published->push_back(*server.SerializeIndex());
    if (crash_at > 0) fs.ArmCrash(crash_at, /*seed=*/crash_at);
    const uint64_t ops_before = fs.ops();
    const serve::QueryResponse response =
        server.Execute(AggregateSpec(&cars));
    server.Drain();
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.repaired_representatives, failed);
    EXPECT_EQ(server.index().num_failed_representatives(), 0u);
    EXPECT_TRUE(server.CheckAttributionInvariant().ok());
    if (query_ops != nullptr) *query_ops = fs.ops() - ops_before;
    if (published != nullptr) {
      EXPECT_EQ(server.current_epoch(), 2u);
      published->push_back(*server.SerializeIndex());
    }
    // Crash before Shutdown's checkpoint, so recovery replays the WAL.
    if (crash_at == 0) fs.ArmCrash(1, /*seed=*/5);
    server.Shutdown();

    File clean;
    serve::TastiServer revived(&ds, &oracle, DurableServerOptions(&clean, dir));
    EXPECT_TRUE(revived.RecoverFrom().ok());
    Leg leg;
    leg.epoch = revived.current_epoch();
    leg.index = *revived.SerializeIndex();
    leg.repairs_replayed = revived.last_recovery()->repairs_replayed;
    revived.Shutdown();
    return leg;
  };

  std::vector<std::string> published;  // index bytes of epochs 1 and 2
  uint64_t query_ops = 0;
  const Leg after_commit = run(0, &published, &query_ops);
  ASSERT_EQ(published.size(), 2u);
  ASSERT_GT(query_ops, 0u);
  EXPECT_EQ(after_commit.epoch, 2u);
  EXPECT_EQ(after_commit.index, published[1]);
  EXPECT_GT(after_commit.repairs_replayed, 0u);

  bool saw_before_commit = false;
  for (uint64_t crash_at = 1; crash_at <= query_ops; ++crash_at) {
    SCOPED_TRACE("crash at query op " + std::to_string(crash_at));
    const Leg leg = run(crash_at, nullptr, nullptr);
    ASSERT_TRUE(leg.epoch == 1 || leg.epoch == 2) << leg.epoch;
    EXPECT_EQ(leg.index, published[leg.epoch - 1]);
    EXPECT_EQ(leg.repairs_replayed > 0, leg.epoch == 2);
    saw_before_commit |= leg.epoch == 1;
  }
  EXPECT_TRUE(saw_before_commit);
}

// A deterministic wave of three queries only queues its cracks; one
// AppendRecords then commits the append and the wave's three cracks as one
// epoch: four mutation records behind one marker and one fsync. A crash at
// every file op of that commit, tearing its write at several seeded points
// across the four records, recovers the wave's epoch or the group's,
// byte-identical to what the server published, never a part of the group.
TEST(ServerRecoveryTest, GroupCommitRecoversAcrossTheCrashGrid) {
  data::Dataset ds = TestDataset(700);
  core::PresenceScorer present(data::ObjectClass::kCar);
  struct Leg {
    uint64_t epoch = 0;
    std::string index;
    RecoveryStats stats;
  };
  // Runs the wave and the append on a fresh durable server, crashing
  // `crash_at` mutations into the commit (0: never) with torn-write seed
  // `seed`, and recovers on a clean File. `published` receives the index
  // bytes by epoch, `commit_ops` the file mutations the commit took.
  auto run = [&](uint64_t crash_at, uint64_t seed,
                 std::vector<std::string>* published, uint64_t* commit_ops) {
    labeler::SimulatedLabeler sim(&ds);
    labeler::FallibleAdapter oracle(&sim);
    File fs;
    const std::string dir = TestDir("server_group_" + std::to_string(crash_at) +
                                    "_" + std::to_string(seed));
    serve::ServerOptions opts = DurableServerOptions(&fs, dir);
    opts.deterministic = true;
    serve::TastiServer server(&ds, &oracle, opts);
    EXPECT_TRUE(server.Start().ok());
    // Small SUPG samples, so each query's crack adds representatives of
    // its own (an aggregate over 700 records labels every one of them).
    serve::QuerySpec spec;
    spec.kind = serve::QueryKind::kSupgRecall;
    spec.scorer = &present;
    spec.budget = 30;
    std::vector<uint64_t> ids;
    for (int q = 0; q < 3; ++q) {
      Result<uint64_t> id = server.Submit(spec);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (uint64_t id : ids) EXPECT_TRUE(server.Wait(id).status.ok());
    EXPECT_EQ(server.current_epoch(), 1u);  // the wave only queued
    if (published != nullptr) published->push_back(*server.SerializeIndex());
    if (crash_at > 0) fs.ArmCrash(crash_at, seed);
    const uint64_t ops_before = fs.ops();
    EXPECT_EQ(server.AppendRecords(ds.features.RowSlice(0, 40)), ds.size());
    if (commit_ops != nullptr) *commit_ops = fs.ops() - ops_before;
    server.Drain();  // nothing is left to commit
    if (published != nullptr) {
      EXPECT_EQ(server.current_epoch(), 2u);
      EXPECT_EQ(server.durability_stats().syncs, 1u);
      published->push_back(*server.SerializeIndex());
    }
    // Crash before Shutdown's checkpoint, so recovery replays the WAL.
    if (crash_at == 0) fs.ArmCrash(1, /*seed=*/5);
    server.Shutdown();

    File clean;
    serve::TastiServer revived(&ds, &oracle, DurableServerOptions(&clean, dir));
    EXPECT_TRUE(revived.RecoverFrom().ok());
    Leg leg;
    leg.epoch = revived.current_epoch();
    leg.index = *revived.SerializeIndex();
    leg.stats = *revived.last_recovery();
    revived.Shutdown();
    return leg;
  };

  std::vector<std::string> published;  // index bytes of epochs 1 and 2
  uint64_t commit_ops = 0;
  const Leg after_commit = run(0, 0, &published, &commit_ops);
  ASSERT_EQ(published.size(), 2u);
  ASSERT_NE(published[0], published[1]);
  ASSERT_GT(commit_ops, 0u);
  EXPECT_EQ(after_commit.epoch, 2u);
  EXPECT_EQ(after_commit.index, published[1]);
  EXPECT_EQ(after_commit.stats.epochs_replayed, 1u);
  EXPECT_EQ(after_commit.stats.appends_replayed, 1u);
  EXPECT_EQ(after_commit.stats.cracks_replayed, 3u);

  bool saw_before_commit = false;
  bool saw_partial_group = false;
  for (uint64_t crash_at = 1; crash_at <= commit_ops; ++crash_at) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("crash at commit op " + std::to_string(crash_at) +
                   ", seed " + std::to_string(seed));
      const Leg leg = run(crash_at, seed, nullptr, nullptr);
      ASSERT_TRUE(leg.epoch == 1 || leg.epoch == 2) << leg.epoch;
      EXPECT_EQ(leg.index, published[leg.epoch - 1]);
      EXPECT_EQ(leg.stats.records_replayed, leg.epoch == 2 ? 4u : 0u);
      saw_before_commit |= leg.epoch == 1;
      saw_partial_group |= leg.stats.uncommitted_records_discarded > 0;
    }
  }
  EXPECT_TRUE(saw_before_commit);
  // Some tear kept whole records of the group but not its marker.
  EXPECT_TRUE(saw_partial_group);
}

/// Copies the files of `from` (not its subdirectories) into a clean `to`,
/// so recovering the copy leaves the live server's directory as it is.
void CopyDir(const std::string& from, const std::string& to) {
  File* fs = DefaultFile();
  ASSERT_TRUE(fs->MakeDir(to).ok());
  Result<std::vector<std::string>> names = fs->List(from);
  ASSERT_TRUE(names.ok()) << names.status().message();
  for (const std::string& name : *names) {
    if (fs->Exists(from + "/" + name + "/.")) continue;  // subdirectory
    Result<std::string> bytes = fs->Read(from + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().message();
    ASSERT_TRUE(fs->Write(to + "/" + name, *bytes).ok());
  }
}

/// The mutation records (not markers) in `dir`'s WAL segments, by type.
std::vector<size_t> LoggedRecordsByType(const std::string& dir) {
  std::vector<size_t> counts(5, 0);
  File* fs = DefaultFile();
  Result<std::vector<std::string>> names = fs->List(dir);
  EXPECT_TRUE(names.ok()) << names.status().message();
  for (const std::string& name : *names) {
    if (!ParseSegmentFileName(name).has_value()) continue;
    const WalSegment segment = DecodeWalSegment(*fs->Read(dir + "/" + name));
    EXPECT_FALSE(segment.corrupt) << name;
    for (const WalRecord& record : segment.records) {
      ++counts[static_cast<size_t>(record.type)];
    }
  }
  return counts;
}

// A seeded random sequence of waves mixes the six query kinds with
// appends, on a durable server whose build left failed representatives
// that later queries repair, inline (each query commits as it finishes)
// and in deterministic waves (Drain() commits the wave). After every
// Drain(), recovering a copy of the WAL directory gives the live index
// bytes and replays exactly the crack, repair and append records the
// live server logged. A query after an append fails with
// FailedPrecondition, and logs nothing: no crack, and no repair even
// while failed representatives remain.
TEST(ServerRecoveryTest, RandomMutationSequencesReplayIdentically) {
  data::Dataset ds = TestDataset(700);
  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  const serve::QueryKind kinds[] = {
      serve::QueryKind::kAggregate,     serve::QueryKind::kAggregateWhere,
      serve::QueryKind::kSupgRecall,    serve::QueryKind::kSupgPrecision,
      serve::QueryKind::kThresholdSelect, serve::QueryKind::kLimit};
  constexpr size_t kWaves = 6;
  // Over all runs: records logged by type, and queries that failed.
  std::vector<size_t> total(5, 0);
  size_t failed_queries = 0;
  size_t append_first_runs = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    for (const bool deterministic : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (deterministic ? ", deterministic" : ", inline"));
      labeler::SimulatedLabeler sim(&ds);
      labeler::FaultSchedule broken;
      broken.permanent_rate = 0.2;
      broken.seed = 23;
      labeler::FaultInjectingLabeler oracle(&sim, broken);
      File fs;
      const std::string dir = TestDir("server_random_" + std::to_string(seed) +
                                      (deterministic ? "_wave" : "_inline"));
      serve::ServerOptions opts = DurableServerOptions(&fs, dir);
      opts.deterministic = deterministic;
      // No checkpoint after the opening one: recovery replays every record
      // the server logged.
      opts.durability.checkpoint_every_epochs = 4 * kWaves;
      serve::TastiServer server(&ds, &oracle, opts);
      ASSERT_TRUE(server.Start().ok());
      ASSERT_GT(server.index().num_failed_representatives(), 0u);
      oracle.set_schedule(labeler::FaultSchedule{});

      Rng rng(seed);
      // Sometimes an append comes first, so every query fails while the
      // build's failed representatives are still there to repair.
      const bool append_first = rng.Bernoulli(0.25);
      if (append_first) server.AppendRecords(ds.features.RowSlice(0, 20));
      bool appended = append_first;
      append_first_runs += append_first;
      for (size_t wave = 0; wave < kWaves; ++wave) {
        SCOPED_TRACE("wave " + std::to_string(wave));
        const uint64_t logged_before = server.durability_stats().records_logged;
        const bool wave_after_append = appended;
        // One to three queries, all answered before the wave's append (if
        // any), so each reads the epoch the wave started on.
        std::vector<uint64_t> ids;
        const size_t queries = 1 + rng.UniformInt(3);
        for (size_t q = 0; q < queries; ++q) {
          serve::QuerySpec spec;
          spec.kind = kinds[rng.UniformInt(6)];
          spec.scorer = &present;
          if (spec.kind == serve::QueryKind::kAggregate) spec.scorer = &cars;
          if (spec.kind == serve::QueryKind::kLimit) spec.scorer = &busy;
          spec.statistic = &cars;
          spec.error_target = 0.3;
          spec.budget = 20 + rng.UniformInt(30);
          spec.validation_budget = 20;
          spec.want = 3;
          Result<uint64_t> id = server.Submit(spec);
          ASSERT_TRUE(id.ok());
          ids.push_back(*id);
        }
        for (uint64_t id : ids) {
          const serve::QueryResponse response = server.Wait(id);
          if (appended) {
            ++failed_queries;
            EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition)
                << response.status.ToString();
            EXPECT_EQ(response.cracked_representatives, 0u);
            EXPECT_EQ(response.repaired_representatives, 0u);
          } else {
            EXPECT_TRUE(response.status.ok()) << response.status.ToString();
          }
        }
        const bool append = rng.Bernoulli(0.3);
        if (append) {
          const size_t first = rng.UniformInt(ds.size() - 40);
          const size_t rows = 10 + rng.UniformInt(30);
          const size_t records = server.index().num_records();
          EXPECT_EQ(server.AppendRecords(
                        ds.features.RowSlice(first, first + rows)),
                    records);
          appended = true;
        }
        server.Drain();
        if (wave_after_append) {
          // Failed queries log nothing; an append logs itself and a marker.
          EXPECT_EQ(server.durability_stats().records_logged - logged_before,
                    append ? 2u : 0u);
        }

        Result<std::string> live = server.SerializeIndex();
        ASSERT_TRUE(live.ok());
        const std::string copy = TestDir(dir.substr(dir.rfind('/') + 1) +
                                         "_copy_" + std::to_string(wave));
        CopyDir(dir, copy);
        File clean;
        serve::TastiServer revived(&ds, &oracle,
                                   DurableServerOptions(&clean, copy));
        ASSERT_TRUE(revived.RecoverFrom().ok());
        EXPECT_EQ(revived.current_epoch(), server.current_epoch());
        Result<std::string> recovered = revived.SerializeIndex();
        ASSERT_TRUE(recovered.ok());
        EXPECT_TRUE(*recovered == *live) << "recovered index differs";
        const RecoveryStats& stats = *revived.last_recovery();
        const std::vector<size_t> logged = LoggedRecordsByType(dir);
        EXPECT_EQ(stats.cracks_replayed,
                  logged[static_cast<size_t>(WalRecordType::kCrack)]);
        EXPECT_EQ(stats.repairs_replayed,
                  logged[static_cast<size_t>(WalRecordType::kRepair)]);
        EXPECT_EQ(stats.appends_replayed,
                  logged[static_cast<size_t>(WalRecordType::kAppend)]);
        EXPECT_EQ(stats.records_replayed + stats.epochs_replayed,
                  server.durability_stats().records_logged);
        revived.Shutdown();
      }
      // The first wave's queries repair the build's failed reps, unless
      // an append made every query fail.
      const std::vector<size_t> logged = LoggedRecordsByType(dir);
      EXPECT_EQ(logged[static_cast<size_t>(WalRecordType::kRepair)] > 0,
                !append_first);
      if (append_first) {
        EXPECT_GT(server.index().num_failed_representatives(), 0u);
      }
      for (size_t type = 0; type < total.size(); ++type) {
        total[type] += logged[type];
      }
      server.Shutdown();
    }
  }
  // The sequences cracked, appended, queried after appends, and started
  // with an append in some runs.
  EXPECT_GT(append_first_runs, 0u);
  EXPECT_GT(total[static_cast<size_t>(WalRecordType::kCrack)], 16u);
  EXPECT_GT(total[static_cast<size_t>(WalRecordType::kAppend)], 16u);
  EXPECT_GT(failed_queries, 16u);
}

}  // namespace
}  // namespace tasti::durable
