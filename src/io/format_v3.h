// On-disk layout of the v3 "STPSDB03" snapshot: one relocatable,
// 64-byte-aligned arena addressed entirely by offsets, so a reader can
// mmap the file and point the in-memory columns straight at it.
//
//   HeaderV3 (112 bytes, at offset 0)
//   SectionEntry[section_count] (40 bytes each, at header.table_offset)
//   u64 table_checksum (FNV-1a over the table bytes)
//   sections, each zero-padded up to 64-byte alignment
//   u64 file_checksum (FNV-1a over bytes [0, file_size - 8))
//
// Conventions:
//  * Everything is little-endian; the format refuses to build on
//    big-endian hosts (static_assert below) rather than byte-swap.
//  * Offsets are absolute file offsets; section payloads never contain
//    pointers, only indices — the arena is position-independent.
//  * Every section's payload is a flat array of fixed-size elements
//    (ElementSize() below); entry.size == entry.count * ElementSize().
//  * The header and table carry their own checksums so an O(1) open can
//    validate them without touching section payloads; per-section and
//    whole-file checksums exist for the verifying reader. The trailing
//    whole-file checksum also covers the alignment padding, so no byte
//    of the file is outside some checksum's span.
//
// See DESIGN.md §10 for the rationale and the v1/v2 compatibility story.

#ifndef STPS_IO_FORMAT_V3_H_
#define STPS_IO_FORMAT_V3_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace stps {

static_assert(std::endian::native == std::endian::little,
              "STPSDB03 snapshots are little-endian on disk");

inline constexpr char kMagicV3[8] = {'S', 'T', 'P', 'S', 'D', 'B', '0', '3'};
inline constexpr size_t kV3Alignment = 64;

/// Incremental FNV-1a, the same function the v2 stream uses.
inline uint64_t FnvUpdate(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}
inline constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ULL;

inline uint64_t Fnv(const void* data, size_t size) {
  return FnvUpdate(kFnvSeed, data, size);
}

/// True when `v` survives a cast to the 32-bit on-disk field. The v3 CSR
/// begin-arrays store 32-bit offsets; the writer must check this instead
/// of letting static_cast truncate silently.
inline bool FitsU32(uint64_t v) { return v <= 0xFFFFFFFFull; }

/// Section identifiers. Values are stable on-disk contract; new kinds
/// append, existing values never change meaning.
///
/// Kinds 16-26 held the per-user sketch layer, which files written
/// before the sketch was detached from the database still carry (with
/// flags bit 1). They stay reserved: the writer never emits them, and
/// readers range-check their table entries and, when verifying, their
/// checksums, but decode nothing from them.
enum SectionKind : uint32_t {
  kSecUserBegin = 1,        // u32 x (num_users + 1)
  kSecTokenBegin = 2,       // u32 x (num_objects + 1)
  kSecTokenData = 3,        // u32 (TokenId) x total_tokens
  kSecXs = 4,               // f64 x num_objects
  kSecYs = 5,               // f64 x num_objects
  kSecTimes = 6,            // f64 x num_objects
  kSecUsers = 7,            // u32 (UserId) x num_objects
  kSecSigs = 8,             // u64 (TokenSignature) x num_objects
  kSecInsertionOrder = 9,   // u32 x num_objects
  kSecUserNameOffsets = 10,  // u64 x (num_users + 1)
  kSecUserNameBlob = 11,     // char x user_name_offsets.back()
  kSecDictOffsets = 12,      // u64 x (num_dict_tokens + 1)
  kSecDictBlob = 13,         // char x dict_offsets.back()
  kSecDictFreq = 14,         // u64 x num_dict_tokens
  kSecPlannerStats = 15,     // 65 x u64/f64 fields (520 bytes); flags bit 0
  // Reserved (legacy sketch layer, flags bit 1).
  kSecLegacySketchMeta = 16,       // 88-byte parameter block
  kSecLegacySketchMinhash = 17,    // u64
  kSecLegacySketchOccCells = 18,   // u32
  kSecLegacySketchOccBegin = 19,   // u32
  kSecLegacySketchMasks = 20,      // u64
  kSecLegacySketchUserKeys = 21,   // u64
  kSecLegacySketchUserKeyBegin = 22,  // u32
  kSecLegacySketchPostKeys = 23,      // u64
  kSecLegacySketchPostBegin = 24,     // u32
  kSecLegacySketchPostUsers = 25,     // u32
  kSecLegacySketchRowSalts = 26,      // u64
  kSecMaxKind = 26,
};

/// Fixed-size file header. memcpy'd to/from the mapped bytes (every
/// field is naturally aligned; the struct has no padding).
struct HeaderV3 {
  char magic[8];        // kMagicV3
  uint64_t file_size;   // exact file size in bytes, checksum included
  uint64_t flags;       // bit 0: planner stats, bit 1: legacy sketch
  uint64_t num_users;
  uint64_t num_objects;
  uint64_t num_dict_tokens;
  uint64_t total_tokens;
  double min_x, min_y, max_x, max_y;  // Rect bounds (Empty() sentinel ok)
  uint64_t section_count;
  uint64_t table_offset;      // == sizeof(HeaderV3)
  uint64_t header_checksum;   // FNV-1a over the preceding 104 bytes
};
static_assert(sizeof(HeaderV3) == 112);

inline constexpr uint64_t kFlagPlannerStats = 1ull << 0;
inline constexpr uint64_t kFlagLegacySketch = 1ull << 1;  // reserved

/// One section-table row.
struct SectionEntry {
  uint32_t kind;      // SectionKind
  uint32_t reserved;  // zero
  uint64_t offset;    // absolute, kV3Alignment-aligned
  uint64_t size;      // payload bytes == count * ElementSize(kind)
  uint64_t count;     // element count
  uint64_t checksum;  // FNV-1a over the payload bytes
};
static_assert(sizeof(SectionEntry) == 40);

inline constexpr size_t kPlannerStatsBlockSize = 65 * 8;  // 520 bytes
inline constexpr size_t kLegacySketchMetaSize = 88;

/// Bytes per element of a section's payload array. Blob/meta sections
/// are byte arrays (element size 1 / the block itself).
inline size_t ElementSize(uint32_t kind) {
  switch (kind) {
    case kSecUserBegin:
    case kSecTokenBegin:
    case kSecTokenData:
    case kSecUsers:
    case kSecInsertionOrder:
    case kSecLegacySketchOccCells:
    case kSecLegacySketchOccBegin:
    case kSecLegacySketchUserKeyBegin:
    case kSecLegacySketchPostBegin:
    case kSecLegacySketchPostUsers:
      return 4;
    case kSecXs:
    case kSecYs:
    case kSecTimes:
    case kSecSigs:
    case kSecUserNameOffsets:
    case kSecDictOffsets:
    case kSecDictFreq:
    case kSecLegacySketchMinhash:
    case kSecLegacySketchMasks:
    case kSecLegacySketchUserKeys:
    case kSecLegacySketchPostKeys:
    case kSecLegacySketchRowSalts:
      return 8;
    case kSecUserNameBlob:
    case kSecDictBlob:
      return 1;
    case kSecPlannerStats:
      return kPlannerStatsBlockSize;
    case kSecLegacySketchMeta:
      return kLegacySketchMetaSize;
    default:
      return 0;  // unknown kind
  }
}

}  // namespace stps

#endif  // STPS_IO_FORMAT_V3_H_
