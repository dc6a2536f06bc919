// Snapshot corruption fuzz: every single-bit flip and every truncation of
// a valid snapshot (stride-sampled across the whole file) must come back
// as a Status error from the verifying readers — never a crash, never a
// silently wrong database. Covers both on-disk formats (v3 arena, and the
// legacy v2 stream through its committed fixture) and the mmap open path.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/binary.h"
#include "io/format_v3.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Writes a v3 snapshot of a small random database and returns its bytes.
std::string SnapshotBytes(const char* name) {
  RandomDbSpec spec;
  spec.num_users = 12;
  spec.seed = 99;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteBinary(db, path).ok());
  std::string bytes = ReadFile(path);
  EXPECT_GT(bytes.size(), 0u);
  std::remove(path.c_str());
  return bytes;
}

// Every verifying read of `mutated` must fail with a Status error. For
// v3 bytes also drives the mmap path: LoadVerified must fail too, and
// the trusting Load must not crash (it may succeed with bogus payload —
// that is its contract — but structural validation must hold).
void ExpectRejected(const std::string& mutated, const char* what,
                    size_t position) {
  const std::string path = TempPath("mutated.stpsdb");
  WriteFile(path, mutated);
  const Result<ObjectDatabase> heap = ReadBinary(path);
  EXPECT_FALSE(heap.ok()) << what << " at byte " << position
                          << " was accepted by ReadBinary";
  Result<MappedSnapshot> mapped = MappedSnapshot::Open(path);
  if (mapped.ok()) {
    const Result<ObjectDatabase> verified = mapped.value().LoadVerified();
    EXPECT_FALSE(verified.ok())
        << what << " at byte " << position
        << " was accepted by MappedSnapshot::LoadVerified";
    // Trusting load: outcome unconstrained, crashing is the only failure.
    const Result<ObjectDatabase> trusted = mapped.value().Load();
    (void)trusted;
  }
  std::remove(path.c_str());
}

void FuzzBitFlips(const std::string& bytes) {
  // ~80 positions spread over the file, one bit each (the bit index
  // rotates so all eight lanes get coverage across positions).
  const size_t stride = std::max<size_t>(1, bytes.size() / 80);
  size_t i = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += stride, ++i) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << (i % 8)));
    ExpectRejected(mutated, "bit flip", pos);
  }
  // The trailing checksum bytes exactly.
  for (size_t pos = bytes.size() - 8; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x80);
    ExpectRejected(mutated, "checksum bit flip", pos);
  }
}

void FuzzTruncations(const std::string& bytes) {
  const size_t stride = std::max<size_t>(1, bytes.size() / 32);
  for (size_t cut = 0; cut < bytes.size(); cut += stride) {
    ExpectRejected(bytes.substr(0, cut), "truncation", cut);
  }
  ExpectRejected(bytes.substr(0, bytes.size() - 1), "truncation",
                 bytes.size() - 1);
}

void FuzzTrailingGarbage(const std::string& bytes) {
  for (const size_t extra : {size_t{1}, size_t{8}, size_t{4096}}) {
    ExpectRejected(bytes + std::string(extra, '\x7f'), "trailing garbage",
                   bytes.size() + extra);
  }
}

TEST(SnapshotFuzzTest, V3BitFlipsRejected) {
  FuzzBitFlips(SnapshotBytes("fuzz3.stpsdb"));
}

TEST(SnapshotFuzzTest, V3TruncationsRejected) {
  FuzzTruncations(SnapshotBytes("fuzz3t.stpsdb"));
}

TEST(SnapshotFuzzTest, V3TrailingGarbageRejected) {
  FuzzTrailingGarbage(SnapshotBytes("fuzz3g.stpsdb"));
}

// A committed fixture's bytes (see binary_test for how each was made).
std::string FixtureBytes(const char* name) {
  const std::string bytes =
      ReadFile(std::string(STPS_TESTDATA_DIR) + "/" + name);
  EXPECT_GT(bytes.size(), sizeof(HeaderV3));
  return bytes;
}

// A v3 file written while databases still carried the per-user sketch
// layer (flags bit 1, reserved sections 16-26; see binary_test).
std::string LegacySnapshotBytes() {
  return FixtureBytes("legacy_v3.stpsdb");
}

TEST(SnapshotFuzzTest, LegacyV3BitFlipsRejected) {
  const std::string bytes = LegacySnapshotBytes();
  ASSERT_GT(bytes.size(), sizeof(HeaderV3));
  FuzzBitFlips(bytes);
  // One flip inside every reserved section: the readers decode nothing
  // from them, so only the section and file checksums can catch these.
  HeaderV3 header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  size_t reserved = 0;
  for (uint64_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + header.table_offset + i * sizeof(entry),
                sizeof(entry));
    if (entry.kind < kSecLegacySketchMeta || entry.size == 0) continue;
    ++reserved;
    const size_t pos = entry.offset + entry.size / 2;
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    ExpectRejected(mutated, "reserved-section bit flip", pos);
  }
  EXPECT_EQ(reserved, 11u);
}

TEST(SnapshotFuzzTest, LegacyV3TruncationsRejected) {
  FuzzTruncations(LegacySnapshotBytes());
}

// The v2 stream is read forever but no longer written: its cases mutate
// the committed fixture. The sampling strides scale with the file, so a
// small fixture still gets ~80 flips and ~32 cuts.
TEST(SnapshotFuzzTest, V2BitFlipsRejected) {
  FuzzBitFlips(FixtureBytes("legacy_v2.stpsdb"));
}

TEST(SnapshotFuzzTest, V2TruncationsRejected) {
  FuzzTruncations(FixtureBytes("legacy_v2.stpsdb"));
}

TEST(SnapshotFuzzTest, V2TrailingGarbageRejected) {
  FuzzTrailingGarbage(FixtureBytes("legacy_v2.stpsdb"));
}

}  // namespace
}  // namespace stps
