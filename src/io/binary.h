// Binary snapshots of an ObjectDatabase: the fast-reload companion to the
// human-readable TSV format.
//
// One writer, one format: WriteBinary writes v3 "STPSDB03", a
// relocatable, 64-byte-aligned arena that *is* the in-memory layout: the
// CSR token arena, SoA mirrors, per-user spans, dictionary and planner
// stats as flat sections addressed by offsets (see io/format_v3.h for the
// byte layout and DESIGN.md §10 for the design). It writes a temporary
// file beside the target and renames it over the target only once the
// new file is complete and synced, so a failed write leaves the old
// snapshot intact and a reader that mapped the old file keeps it.
//
// ReadBinaryMapped opens a v3 file with mmap in O(1) and pages on demand;
// ReadBinary reads it to heap and fully verifies every section checksum
// plus the structural cross-checks (planner stats rebuild comparison).
// Files written while the database still carried a sketch layer open
// through every reader; their reserved sketch sections are checksummed
// but never decoded.
//
// ReadBinary dispatches on the magic and still reads the legacy formats,
// which nothing writes any more: the v2 sequential stream "STPSDB02"
// (dictionary, user table, objects, planner-stats block, trailing FNV-1a
// checksum), rebuilt through DatabaseBuilder and cross-checked against
// the serialized stats block, and "STPSDB01", the same stream without
// the stats block. Writing such a database back migrates it to v3.

#ifndef STPS_IO_BINARY_H_
#define STPS_IO_BINARY_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/database.h"

namespace stps {

/// Writes `db` to `path` as a v3 snapshot, replacing any regular file
/// there only once the new one is complete. Fails with InvalidArgument,
/// creating nothing, when `path` exists and is not a regular file.
Status WriteBinary(const ObjectDatabase& db, const std::string& path);

/// Reads a database from a binary snapshot (any format version). This is
/// the *verifying* path: every byte is read and checksummed, and the
/// structural cross-checks run before the database is returned.
Result<ObjectDatabase> ReadBinary(const std::string& path);

/// An open, memory-mapped v3 snapshot. Open() is O(1) in the file size:
/// it maps the file and validates only the fixed-size header and the
/// section table; section payloads page in on first touch. Databases
/// returned by Load() borrow the mapping (the MappedSnapshot may be
/// destroyed; the mapping lives until the last database drops it).
class MappedSnapshot {
 public:
  MappedSnapshot() = default;

  /// Maps `path`. Fails with Status::Corruption unless the file is a
  /// well-formed v3 snapshot (header + section table checks only).
  static Result<MappedSnapshot> Open(const std::string& path);

  /// Materializes a database view over the mapping. O(objects + users):
  /// builds the AoS object headers and validates the structural
  /// invariants (CSR monotonicity, permutation, grouping) that keep
  /// every later access in bounds — but *trusts* the payload bytes (no
  /// checksum pass, nothing token-scale is touched). Use LoadVerified()
  /// or ReadBinary() for untrusted files.
  Result<ObjectDatabase> Load() const;

  /// Like Load() but additionally verifies every section checksum, the
  /// whole-file checksum, recomputed signatures and planner stats. Reads
  /// the entire file.
  Result<ObjectDatabase> LoadVerified() const;

  /// Size of the mapped file in bytes. Zero for a default-constructed
  /// (unopened) snapshot.
  size_t file_size() const { return size_; }

 private:
  std::shared_ptr<const void> region_;  // munmap deleter
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Convenience: MappedSnapshot::Open + Load. The returned database keeps
/// the mapping alive.
Result<ObjectDatabase> ReadBinaryMapped(const std::string& path);

}  // namespace stps

#endif  // STPS_IO_BINARY_H_
