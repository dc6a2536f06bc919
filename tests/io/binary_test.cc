#include "io/binary.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/stpsjoin.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "io/format_v3.h"
#include "io/tsv.h"
#include "planner/planner_stats.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string TestdataPath(const char* name) {
  return std::string(STPS_TESTDATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// A fresh directory under the test temp dir, removed with its contents.
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern = TempPath("stps_binary_XXXXXX");
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScratchDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }

  const std::string& path() const { return path_; }
  std::string File(const char* name) const { return path_ + "/" + name; }

  // The names in the directory, sorted.
  std::vector<std::string> Entries() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(path_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

 private:
  std::string path_;
};

void ExpectSameDatabases(const ObjectDatabase& a, const ObjectDatabase& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_objects(), b.num_objects());
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.UserName(u), b.UserName(u));
    const auto oa = a.UserObjects(u);
    const auto ob = b.UserObjects(u);
    ASSERT_EQ(oa.size(), ob.size());
    for (size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].loc, ob[i].loc);
      EXPECT_DOUBLE_EQ(oa[i].time, ob[i].time);
      std::vector<std::string> sa, sb;
      for (const TokenId t : oa[i].doc) {
        sa.emplace_back(a.dictionary().TokenString(t));
      }
      for (const TokenId t : ob[i].doc) {
        sb.emplace_back(b.dictionary().TokenString(t));
      }
      std::sort(sa.begin(), sa.end());
      std::sort(sb.begin(), sb.end());
      EXPECT_EQ(sa, sb);
    }
  }
}

TEST(BinaryIoTest, RoundTripRandomDatabase) {
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("roundtrip.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripGeneratedDatasetWithTimestamps) {
  const ObjectDatabase original =
      GenerateDataset(PresetSpec(DatasetKind::kGeoTextLike, 40, 3));
  const std::string path = TempPath("geotext.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripEmptyDatabase) {
  DatabaseBuilder builder;
  const ObjectDatabase original = std::move(builder).Build();
  const std::string path = TempPath("empty.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_objects(), 0u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripPreservesPlannerStats) {
  RandomDbSpec spec;
  spec.seed = 77;
  const ObjectDatabase original = BuildRandomDatabase(spec);
  ASSERT_TRUE(original.has_planner_stats());
  const std::string path = TempPath("stats.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The snapshot carries the stats block and the reader cross-checks it
  // against the rebuilt database, so a successful load means the cached
  // summary is byte-equal to a fresh computation.
  ASSERT_TRUE(loaded.value().has_planner_stats());
  EXPECT_TRUE(loaded.value().planner_stats() == original.planner_stats());
  EXPECT_TRUE(loaded.value().planner_stats() ==
              ComputePlannerStats(loaded.value()));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyDatabaseStatsRoundTrip) {
  DatabaseBuilder builder;
  const ObjectDatabase original = std::move(builder).Build();
  const std::string path = TempPath("emptystats.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (original.has_planner_stats()) {
    ASSERT_TRUE(loaded.value().has_planner_stats());
    EXPECT_TRUE(loaded.value().planner_stats() == original.planner_stats());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileFails) {
  const Result<ObjectDatabase> r = ReadBinary("/nonexistent/x.stpsdb");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(BinaryIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("notadb.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a snapshot";
  }
  const Result<ObjectDatabase> r = ReadBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DetectsTruncation) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("trunc.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  // Chop the file at several points; every prefix must be rejected.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (const double fraction : {0.05, 0.3, 0.7, 0.99}) {
    const std::string cut = TempPath("cut.stpsdb");
    {
      std::ofstream out(cut, std::ios::binary);
      out.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() * fraction));
    }
    const Result<ObjectDatabase> r = ReadBinary(cut);
    EXPECT_FALSE(r.ok()) << "fraction " << fraction;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(cut.c_str());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DetectsBitFlips) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("flip.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one byte deep in the payload (past header and dictionary).
  const size_t position = bytes.size() * 3 / 4;
  bytes[position] = static_cast<char>(bytes[position] ^ 0x5A);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result<ObjectDatabase> r = ReadBinary(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

// Nothing writes the legacy formats any more; ReadBinary reads them
// forever. testdata/legacy_v2.stpsdb is testdata/legacy_v3.tsv written by
// the last v2 stream writer, and legacy_v1.stpsdb the same stream without
// the stats block (magic STPSDB01). Each must load as the TSV database,
// and writing it back must migrate it to a v3 file that reads back equal.
void ExpectLegacySnapshotLoads(const char* name) {
  Result<ObjectDatabase> tsv = ReadTsv(TestdataPath("legacy_v3.tsv"));
  ASSERT_TRUE(tsv.ok()) << tsv.status().ToString();
  Result<ObjectDatabase> loaded = ReadBinary(TestdataPath(name));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(tsv.value(), loaded.value());
  ASSERT_TRUE(loaded.value().has_planner_stats());
  EXPECT_TRUE(loaded.value().planner_stats() == tsv.value().planner_stats());

  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string migrated = dir.File("migrated.stpsdb");
  ASSERT_TRUE(WriteBinary(loaded.value(), migrated).ok());
  EXPECT_EQ(ReadFile(migrated).substr(0, sizeof(kMagicV3)),
            std::string(kMagicV3, sizeof(kMagicV3)));
  Result<ObjectDatabase> reloaded = ReadBinary(migrated);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameDatabases(tsv.value(), reloaded.value());
}

TEST(BinaryIoTest, LegacyV2SnapshotLoads) {
  ExpectLegacySnapshotLoads("legacy_v2.stpsdb");
}

TEST(BinaryIoTest, LegacyV1SnapshotLoads) {
  ExpectLegacySnapshotLoads("legacy_v1.stpsdb");
}

TEST(BinaryIoTest, RoundTripMapped) {
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("roundtrip_mapped.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinaryMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

// A v3 file's header flags and section kinds, read straight off disk.
struct V3Layout {
  uint64_t flags = 0;
  std::vector<uint32_t> kinds;
};

V3Layout ReadV3Layout(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  V3Layout layout;
  HeaderV3 header;
  if (bytes.size() < sizeof(header)) return layout;
  std::memcpy(&header, bytes.data(), sizeof(header));
  layout.flags = header.flags;
  for (uint64_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    const size_t at = header.table_offset + i * sizeof(entry);
    if (at + sizeof(entry) > bytes.size()) break;
    std::memcpy(&entry, bytes.data() + at, sizeof(entry));
    layout.kinds.push_back(entry.kind);
  }
  return layout;
}

// testdata/legacy_v3.stpsdb is testdata/legacy_v3.tsv converted by a
// stps_cli whose databases still carried the per-user sketch layer: flags
// bit 1 set and the now-reserved sections 16-26 present. Every reader
// must still open it, answer exactly like the TSV, and write it back
// without the reserved sections.
TEST(BinaryIoTest, LegacySketchSnapshotStillLoads) {
  const std::string legacy = TestdataPath("legacy_v3.stpsdb");
  const V3Layout legacy_layout = ReadV3Layout(legacy);
  ASSERT_NE(legacy_layout.flags & kFlagLegacySketch, 0u);
  ASSERT_EQ(legacy_layout.kinds.size(), 26u);

  Result<ObjectDatabase> tsv = ReadTsv(TestdataPath("legacy_v3.tsv"));
  ASSERT_TRUE(tsv.ok()) << tsv.status().ToString();
  const STPSQuery join{0.05, 0.3, 0.3};
  const TopKQuery topk{0.05, 0.3, 5};
  const auto join_expected = RunSTPSJoin(tsv.value(), join);
  const auto topk_expected =
      RunTopKSTPSJoin(tsv.value(), topk, TopKAlgorithm::kP);
  ASSERT_FALSE(join_expected.empty());
  ASSERT_EQ(topk_expected.size(), topk.k);

  const auto expect_same_answers = [&](const ObjectDatabase& db,
                                       const char* reader) {
    ExpectSameDatabases(tsv.value(), db);
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJB,
          JoinAlgorithm::kBruteForce, JoinAlgorithm::kAuto}) {
      JoinOptions options;
      options.algorithm = algorithm;
      EXPECT_TRUE(SameResults(RunSTPSJoin(db, join, options), join_expected,
                              /*tolerance=*/0.0))
          << reader << " " << JoinAlgorithmName(algorithm);
    }
    for (const TopKAlgorithm algorithm :
         {TopKAlgorithm::kP, TopKAlgorithm::kBruteForce,
          TopKAlgorithm::kAuto}) {
      EXPECT_TRUE(SameResults(RunTopKSTPSJoin(db, topk, algorithm),
                              topk_expected, /*tolerance=*/0.0))
          << reader << " " << TopKAlgorithmName(algorithm);
    }
  };

  Result<ObjectDatabase> heap = ReadBinary(legacy);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  expect_same_answers(heap.value(), "ReadBinary");
  Result<MappedSnapshot> mapped = MappedSnapshot::Open(legacy);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  Result<ObjectDatabase> trusted = mapped.value().Load();
  ASSERT_TRUE(trusted.ok()) << trusted.status().ToString();
  expect_same_answers(trusted.value(), "MappedSnapshot::Load");
  Result<ObjectDatabase> verified = mapped.value().LoadVerified();
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  expect_same_answers(verified.value(), "MappedSnapshot::LoadVerified");

  const std::string rewritten = TempPath("legacy_rewritten.stpsdb");
  ASSERT_TRUE(WriteBinary(heap.value(), rewritten).ok());
  const V3Layout layout = ReadV3Layout(rewritten);
  EXPECT_EQ(layout.flags & kFlagLegacySketch, 0u);
  EXPECT_EQ(layout.kinds.size(), 15u);
  for (const uint32_t kind : layout.kinds) {
    EXPECT_LE(kind, static_cast<uint32_t>(kSecPlannerStats));
  }
  Result<ObjectDatabase> reloaded = ReadBinary(rewritten);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  expect_same_answers(reloaded.value(), "rewritten");
  std::remove(rewritten.c_str());
}

TEST(BinaryIoTest, MappedOpenRejectsV2Stream) {
  // The mmap fast path is v3-only; a v2 stream must fail cleanly, not be
  // misparsed as an arena.
  const Result<ObjectDatabase> r =
      ReadBinaryMapped(TestdataPath("legacy_v2.stpsdb"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// Regression: a 32-byte file whose header claims 2^39 tokens used to be
// bounded only by a 2^40 sanity limit — the reader pre-allocated half a
// terabyte of string headers before discovering the file was empty. The
// counts must be bounded by what the file could possibly hold.
TEST(BinaryIoTest, ImplausibleHeaderCountsRejectedBeforeAllocation) {
  const std::string path = TempPath("huge_counts.stpsdb");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("STPSDB02", 8);
    const uint64_t users = 0, objects = 0, tokens = 1ULL << 39;
    out.write(reinterpret_cast<const char*>(&users), 8);
    out.write(reinterpret_cast<const char*>(&objects), 8);
    out.write(reinterpret_cast<const char*>(&tokens), 8);
  }
  const Result<ObjectDatabase> r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().ToString().find("implausible"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

// Regression: the reader verified the trailing checksum but accepted any
// bytes appended after it — a concatenation of two snapshots read as the
// first. Trailing data is corruption.
TEST(BinaryIoTest, RejectsTrailingBytesAfterChecksum) {
  const std::string v3 = TempPath("trailing_v3.stpsdb");
  ASSERT_TRUE(WriteBinary(BuildRandomDatabase(RandomDbSpec{}), v3).ok());
  for (const std::string& source :
       {TestdataPath("legacy_v2.stpsdb"), v3}) {
    const std::string path = TempPath("trailing.stpsdb");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << ReadFile(source) << "extra";
    }
    const Result<ObjectDatabase> r = ReadBinary(path);
    EXPECT_FALSE(r.ok()) << source;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << source;
    std::remove(path.c_str());
  }
  std::remove(v3.c_str());
}

// The guard behind the silent-truncation bugfix: on-disk counts are
// 32-bit, and the writers refuse (Status::InvalidArgument) anything that
// FitsU32 rejects instead of static_cast'ing it to garbage. Building a
// >4G-object user in a test is impractical, so the boundary is pinned
// here and the writer paths assert on it.
TEST(BinaryIoTest, FitsU32Boundary) {
  EXPECT_TRUE(FitsU32(0));
  EXPECT_TRUE(FitsU32(0xFFFFFFFFull));
  EXPECT_FALSE(FitsU32(0x100000000ull));
  EXPECT_FALSE(FitsU32(~0ull));
}

TEST(BinaryIoTest, WriteToUnwritablePathFails) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  // Nonexistent directory: the open itself fails.
  const Status missing = WriteBinary(
      db, std::string(::testing::TempDir()) + "/no_such_dir/out.stpsdb");
  EXPECT_FALSE(missing.ok());
  // A target that exists but is not a regular file is refused before
  // anything is created: the writer renames its new file over the target,
  // which must never replace a device node or a directory. (The disk-full
  // case is FailedWriterLeavesOldSnapshot's EFBIG.)
  struct stat before;
  if (::stat("/dev/full", &before) == 0) {
    const Status full = WriteBinary(db, "/dev/full");
    EXPECT_EQ(full.code(), StatusCode::kInvalidArgument) << full.ToString();
    struct stat after;
    ASSERT_EQ(::stat("/dev/full", &after), 0);
    EXPECT_TRUE(S_ISCHR(after.st_mode));
    EXPECT_EQ(after.st_rdev, before.st_rdev);
  }
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  EXPECT_EQ(WriteBinary(db, dir.path()).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(dir.Entries().empty());
}

// Replacing a snapshot must not pull the file out from under a reader
// that mapped it: the writer renames a complete new file over the old
// one, so the mapping keeps the old inode. Writing in place truncated the
// mapped pages and aborted the next join.
TEST(BinaryIoTest, ReplacingASnapshotKeepsMappedReadersIntact) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.File("live.stpsdb");
  const ObjectDatabase first =
      GenerateDataset(PresetSpec(DatasetKind::kCheckinSparse, 200, 1));
  ASSERT_TRUE(WriteBinary(first, path).ok());
  Result<ObjectDatabase> mapped = ReadBinaryMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const STPSQuery query = DefaultQuery(DatasetKind::kCheckinSparse);
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kSPPJF;
  const auto before = RunSTPSJoin(mapped.value(), query, options);
  ASSERT_FALSE(before.empty());
  for (const size_t users : {20, 200, 800}) {
    const ObjectDatabase next =
        GenerateDataset(PresetSpec(DatasetKind::kCheckinSparse, users, 2));
    ASSERT_TRUE(WriteBinary(next, path).ok());
    EXPECT_TRUE(SameResults(RunSTPSJoin(mapped.value(), query, options),
                            before, /*tolerance=*/0.0))
        << "after replacing with " << users << " users";
    ExpectSameDatabases(first, mapped.value());
    Result<ObjectDatabase> current = ReadBinary(path);
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    ExpectSameDatabases(next, current.value());
  }
  EXPECT_EQ(dir.Entries(), std::vector<std::string>{"live.stpsdb"});
}

// True when `a` and `b` hold the same objects in the same slots: the
// columns every query streams, compared element by element. Cheap enough
// for every read of a loop, where ExpectSameDatabases' per-token string
// compare is not.
bool SameColumns(const ObjectDatabase& a, const ObjectDatabase& b) {
  return a.num_users() == b.num_users() &&
         a.total_tokens() == b.total_tokens() &&
         std::ranges::equal(a.xs(), b.xs()) &&
         std::ranges::equal(a.ys(), b.ys()) &&
         std::ranges::equal(a.users(), b.users()) &&
         std::ranges::equal(a.sigs(), b.sigs()) &&
         std::ranges::equal(a.insertion_order(), b.insertion_order());
}

// A ReadBinary racing a writer that replaces the file must read one
// whole file. Sizing the path through one open and reading it through a
// second let the rename land in between: the read sized one file and
// read the other ("file size disagrees with header", "short read").
TEST(BinaryIoTest, ReadRacingAReplacingWriterSeesOneWholeFile) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.File("live.stpsdb");
  const ObjectDatabase small =
      GenerateDataset(PresetSpec(DatasetKind::kCheckinSparse, 100, 1));
  const ObjectDatabase large =
      GenerateDataset(PresetSpec(DatasetKind::kCheckinSparse, 300, 2));
  ASSERT_TRUE(WriteBinary(small, path).ok());
  std::atomic<bool> done{false};
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    for (size_t i = 0; !done.load(); ++i) {
      if (!WriteBinary(i % 2 == 0 ? large : small, path).ok()) {
        write_failures.fetch_add(1);
      }
    }
  });
  constexpr int kReads = 4000;
  int read_failures = 0;
  int mismatches = 0;
  std::string first_error;
  for (int i = 0; i < kReads; ++i) {
    const Result<ObjectDatabase> read = ReadBinary(path);
    if (!read.ok()) {
      if (read_failures++ == 0) first_error = read.status().ToString();
      continue;
    }
    const ObjectDatabase& db = read.value();
    if (!SameColumns(db, db.num_users() == small.num_users() ? small
                                                              : large)) {
      ++mismatches;
    }
  }
  done.store(true);
  writer.join();
  EXPECT_EQ(read_failures, 0) << "of " << kReads << " reads; first: "
                              << first_error;
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(dir.Entries(), std::vector<std::string>{"live.stpsdb"});
}

// Runs WriteBinary(db, path) in a forked child whose file-size limit is
// `limit` bytes and returns its wait status. The limit kills the child
// with SIGXFSZ, or, with `ignore_sigxfsz`, fails its write with EFBIG;
// the child then exits 0 if WriteBinary reported the error, 1 if not.
int WriteInLimitedChild(const ObjectDatabase& db, const std::string& path,
                        rlim_t limit, bool ignore_sigxfsz) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (ignore_sigxfsz) ::signal(SIGXFSZ, SIG_IGN);
    const struct rlimit fsize = {limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &fsize) != 0) ::_exit(2);
    ::_exit(WriteBinary(db, path).ok() ? 1 : 0);
  }
  int status = -1;
  if (pid > 0) ::waitpid(pid, &status, 0);
  return status;
}

// A writer that dies or fails halfway must leave the old snapshot whole:
// writing in place left a truncated file that no reader accepts.
TEST(BinaryIoTest, KilledWriterLeavesOldSnapshot) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.File("snapshot.stpsdb");
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  ASSERT_TRUE(WriteBinary(original, path).ok());
  const rlim_t limit = std::filesystem::file_size(path) / 2;
  const ObjectDatabase bigger =
      GenerateDataset(PresetSpec(DatasetKind::kGeoTextLike, 40, 3));

  const int status = WriteInLimitedChild(bigger, path, limit,
                                         /*ignore_sigxfsz=*/false);
  ASSERT_TRUE(WIFSIGNALED(status)) << "wait status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGXFSZ);
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
}

TEST(BinaryIoTest, FailedWriterLeavesOldSnapshot) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.File("snapshot.stpsdb");
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  ASSERT_TRUE(WriteBinary(original, path).ok());
  const rlim_t limit = std::filesystem::file_size(path) / 2;
  const ObjectDatabase bigger =
      GenerateDataset(PresetSpec(DatasetKind::kGeoTextLike, 40, 3));

  const int status = WriteInLimitedChild(bigger, path, limit,
                                         /*ignore_sigxfsz=*/true);
  ASSERT_TRUE(WIFEXITED(status)) << "wait status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "WriteBinary ignored EFBIG";
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  // The failed write removed its temporary file.
  EXPECT_EQ(dir.Entries(), std::vector<std::string>{"snapshot.stpsdb"});
}

// Writing through a symlink replaces the file it names; the link stays a
// link, and the replaced file keeps its mode.
TEST(BinaryIoTest, WriteThroughSymlinkReplacesItsTarget) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string real = dir.File("real.stpsdb");
  const std::string link = dir.File("link.stpsdb");
  ASSERT_TRUE(WriteBinary(BuildRandomDatabase(RandomDbSpec{}), real).ok());
  ASSERT_EQ(::chmod(real.c_str(), 0640), 0);
  ASSERT_EQ(::symlink("real.stpsdb", link.c_str()), 0);
  RandomDbSpec spec;
  spec.seed = 5;
  const ObjectDatabase next = BuildRandomDatabase(spec);
  ASSERT_TRUE(WriteBinary(next, link).ok());

  struct stat st;
  ASSERT_EQ(::lstat(link.c_str(), &st), 0);
  EXPECT_TRUE(S_ISLNK(st.st_mode));
  ASSERT_EQ(::stat(real.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 07777, 0640u);
  Result<ObjectDatabase> loaded = ReadBinary(real);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(next, loaded.value());
  EXPECT_EQ(dir.Entries(),
            (std::vector<std::string>{"link.stpsdb", "real.stpsdb"}));
}

}  // namespace
}  // namespace stps
