#include "io/binary.h"

#include <cstring>
#include <fstream>
#include <vector>

#include "io/format_v3.h"
#include "io/snapshot_v3.h"
#include "io/stats_codec.h"
#include "planner/planner_stats.h"

namespace stps {

namespace {

// The legacy v2 stream; read forever, never written.
constexpr char kMagic[8] = {'S', 'T', 'P', 'S', 'D', 'B', '0', '2'};
// Legacy snapshots without the planner-stats block; still readable.
constexpr char kMagicV1[8] = {'S', 'T', 'P', 'S', 'D', 'B', '0', '1'};

// Incremental FNV-1a over the serialized byte stream.
class Checksum {
 public:
  void Update(const void* data, size_t size) {
    hash_ = FnvUpdate(hash_, data, size);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = kFnvSeed;
};

class Reader {
 public:
  explicit Reader(const std::string& path)
      : in_(path, std::ios::binary) {
    if (in_) {
      in_.seekg(0, std::ios::end);
      const auto end = in_.tellg();
      file_size_ = end < 0 ? 0 : static_cast<uint64_t>(end);
      in_.seekg(0, std::ios::beg);
    }
  }

  bool ok() const { return static_cast<bool>(in_) && !failed_; }
  bool failed() const { return failed_; }
  uint64_t file_size() const { return file_size_; }

  bool Raw(void* data, size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (static_cast<size_t>(in_.gcount()) != size) {
      failed_ = true;
      return false;
    }
    checksum_.Update(data, size);
    return true;
  }
  // Reads the whole file from its first byte into data[0, file_size())
  // through the stream that sized it, so the size and the bytes come from
  // one file even when a writer replaces the path meanwhile.
  bool ReadWhole(char* data) {
    in_.seekg(0, std::ios::beg);
    in_.read(data, static_cast<std::streamsize>(file_size_));
    return static_cast<uint64_t>(in_.gcount()) == file_size_;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s, uint32_t max_len = 1 << 20) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > max_len) {
      failed_ = true;
      return false;
    }
    s->resize(len);
    return len == 0 || Raw(s->data(), len);
  }
  // Reads the trailing checksum (not folded into the running hash),
  // compares it with the accumulated value, and requires EOF right after
  // it: a snapshot with trailing garbage is corrupt, not clean — the
  // appended bytes are unchecksummed and a concatenation would otherwise
  // read as the first file.
  bool VerifyChecksum() {
    const uint64_t expected = checksum_.value();
    uint64_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (static_cast<size_t>(in_.gcount()) != sizeof(stored)) return false;
    if (stored != expected) return false;
    in_.peek();
    return in_.eof();
  }

 private:
  std::ifstream in_;
  Checksum checksum_;
  uint64_t file_size_ = 0;
  bool failed_ = false;
};

Result<ObjectDatabase> ReadBinaryV2(Reader& reader, bool has_stats_block) {
  uint64_t user_count = 0, object_count = 0, token_count = 0;
  if (!reader.U64(&user_count) || !reader.U64(&object_count) ||
      !reader.U64(&token_count)) {
    return Status::Corruption("truncated header");
  }
  // Every serialized token, user, and object costs at least one byte of
  // payload, so counts are bounded by the file size. Checking that
  // *before* the count-sized allocations below keeps a 32-byte corrupt
  // file from demanding terabytes of heap.
  const uint64_t limit = reader.file_size();
  if (user_count > limit || object_count > limit || token_count > limit) {
    return Status::Corruption("implausible counts in header");
  }
  std::vector<std::string> tokens(token_count);
  for (auto& token : tokens) {
    if (!reader.Str(&token)) return Status::Corruption("truncated token");
  }
  std::vector<std::string> user_names(user_count);
  std::vector<uint32_t> user_objects(user_count);
  for (uint64_t u = 0; u < user_count; ++u) {
    if (!reader.Str(&user_names[u]) || !reader.U32(&user_objects[u])) {
      return Status::Corruption("truncated user table");
    }
  }
  uint64_t total = 0;
  for (const uint32_t n : user_objects) total += n;
  if (total != object_count) {
    return Status::Corruption("object counts do not add up");
  }

  DatabaseBuilder builder;
  std::vector<std::string_view> keywords;
  for (uint64_t u = 0; u < user_count; ++u) {
    for (uint32_t i = 0; i < user_objects[u]; ++i) {
      double x = 0, y = 0, time = 0;
      uint32_t doc_len = 0;
      if (!reader.F64(&x) || !reader.F64(&y) || !reader.F64(&time) ||
          !reader.U32(&doc_len)) {
        return Status::Corruption("truncated object");
      }
      if (doc_len > token_count) {
        return Status::Corruption("object keyword count exceeds dictionary");
      }
      keywords.clear();
      for (uint32_t k = 0; k < doc_len; ++k) {
        uint32_t token_id = 0;
        if (!reader.U32(&token_id)) {
          return Status::Corruption("truncated keyword list");
        }
        if (token_id >= token_count) {
          return Status::Corruption("token id out of range");
        }
        keywords.push_back(tokens[token_id]);
      }
      builder.AddObject(user_names[u], Point{x, y},
                        std::span<const std::string_view>(keywords), time);
    }
  }
  PlannerStats stored_stats;
  bool compare_stats = false;
  if (has_stats_block) {
    uint32_t present = 0;
    if (!reader.U32(&present) || present > 1) {
      return Status::Corruption("truncated planner-stats block");
    }
    if (present == 1) {
      if (!ReadStats(&reader, &stored_stats)) {
        return Status::Corruption("truncated planner-stats block");
      }
      compare_stats = true;
    }
  }
  if (!reader.VerifyChecksum()) {
    return Status::Corruption("checksum mismatch");
  }
  ObjectDatabase db = std::move(builder).Build();
  // Build() recomputed the summary from the decoded objects; agreeing
  // with the serialized copy proves the object payload decoded to the
  // same database the writer saw (a structural check the byte checksum
  // cannot give us on its own).
  if (compare_stats && (!db.has_planner_stats() ||
                        !(db.planner_stats() == stored_stats))) {
    return Status::Corruption("planner stats disagree with rebuilt database");
  }
  return db;
}

}  // namespace

Status WriteBinary(const ObjectDatabase& db, const std::string& path) {
  return SnapshotLoader::Write(db, path);
}

Result<ObjectDatabase> ReadBinary(const std::string& path) {
  Reader reader(path);
  if (!reader.ok()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  char magic[sizeof(kMagic)];
  if (!reader.Raw(magic, sizeof(magic))) {
    return Status::Corruption("bad magic: not an stps binary snapshot");
  }
  if (std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0) {
    // v3 arena: read the file to heap and run the fully-verifying load
    // (every section checksum plus the structural cross-checks).
    auto buffer = std::make_shared<std::vector<char>>(
        static_cast<size_t>(reader.file_size()));
    if (!reader.ReadWhole(buffer->data())) {
      return Status::IOError("short read: " + path);
    }
    const char* data = buffer->data();
    const size_t size = buffer->size();
    return SnapshotLoader::Load(std::move(buffer), data, size,
                                /*verify=*/true);
  }
  const bool has_stats_block =
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  if (!has_stats_block &&
      std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) != 0) {
    return Status::Corruption("bad magic: not an stps binary snapshot");
  }
  return ReadBinaryV2(reader, has_stats_block);
}

}  // namespace stps
