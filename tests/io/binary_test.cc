#include "io/binary.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
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

TEST(BinaryIoTest, RoundTripV2StreamFormat) {
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("roundtrip_v2.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path, SnapshotFormat::kV2Stream).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
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
  const std::string dir = STPS_TESTDATA_DIR;
  const std::string legacy = dir + "/legacy_v3.stpsdb";
  const V3Layout legacy_layout = ReadV3Layout(legacy);
  ASSERT_NE(legacy_layout.flags & kFlagLegacySketch, 0u);
  ASSERT_EQ(legacy_layout.kinds.size(), 26u);

  Result<ObjectDatabase> tsv = ReadTsv(dir + "/legacy_v3.tsv");
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
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("v2_for_mmap.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path, SnapshotFormat::kV2Stream).ok());
  const Result<ObjectDatabase> r = ReadBinaryMapped(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
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
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  for (const SnapshotFormat format :
       {SnapshotFormat::kV2Stream, SnapshotFormat::kV3Arena}) {
    const std::string path = TempPath("trailing.stpsdb");
    ASSERT_TRUE(WriteBinary(db, path, format).ok());
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out << "extra";
    }
    const Result<ObjectDatabase> r = ReadBinary(path);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
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
  // /dev/full (when present) accepts the open but fails every flush with
  // ENOSPC — the disk-full case. Before the close-time stream check the
  // writer reported OkStatus here and the caller shipped a torn file.
  if (std::ifstream("/dev/full").good()) {
    const Status full = WriteBinary(db, "/dev/full");
    EXPECT_FALSE(full.ok());
  }
}

}  // namespace
}  // namespace stps
