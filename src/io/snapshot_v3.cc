// STPSDB03 arena writer and loader (see io/format_v3.h for the byte
// layout, io/binary.h for the trust-vs-verify loading model).

#include "io/snapshot_v3.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "io/binary.h"
#include "io/format_v3.h"
#include "io/stats_codec.h"
#include "planner/planner_stats.h"

namespace stps {

namespace {

uint64_t RoundUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// Replaces a file only once its successor is complete. The bytes go to a
// temporary beside the target, which is synced and then renamed over it:
// a reader that mapped the old file keeps the old inode, and a writer
// that fails or dies leaves the target as it was. Destroying an
// uncommitted ReplacementFile removes the temporary.
class ReplacementFile {
 public:
  ReplacementFile() = default;
  ~ReplacementFile() { Abandon(); }

  STPS_DISALLOW_COPY_AND_ASSIGN(ReplacementFile);

  // Creates the temporary. Refuses, creating nothing, a target that
  // exists and is not a regular file (a device such as /dev/full must
  // never be renamed over); a symlink is followed, so the rename replaces
  // the file it names and the link survives. Like std::ofstream, a new
  // file gets mode 0666 less the umask, and a replaced one keeps its mode.
  Status Open(const std::string& path) {
    target_ = path;
    bool existed = false;
    mode_t mode = 0;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      if (!S_ISREG(st.st_mode)) {
        return Status::InvalidArgument("not a regular file: " + path);
      }
      char* resolved = ::realpath(path.c_str(), nullptr);
      if (resolved == nullptr) {
        return Status::IOError("cannot resolve: " + path);
      }
      target_ = resolved;
      std::free(resolved);
      existed = true;
      mode = st.st_mode & 07777;
    }
    static std::atomic<uint64_t> sequence{0};
    temp_ = target_ + ".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(sequence.fetch_add(1));
    fd_ = ::open(temp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                 0666);
    if (fd_ < 0) {
      temp_.clear();
      return Status::IOError("cannot open for writing: " + path);
    }
    if (existed && ::fchmod(fd_, mode) != 0) {
      Abandon();
      return Status::IOError("cannot set mode: " + path);
    }
    return Status::OK();
  }

  int fd() const { return fd_; }

  // Syncs and closes the temporary, renames it over the target, then
  // syncs the directory so the rename itself is durable. `write_error`
  // is the errno of a failed write (0 if none); any failure before the
  // rename removes the temporary and leaves the target untouched.
  Status Commit(int write_error) {
    int error = write_error;
    if (error == 0 && ::fsync(fd_) != 0) error = errno;
    if (::close(fd_) != 0 && error == 0) error = errno;
    fd_ = -1;
    if (error == 0 && ::rename(temp_.c_str(), target_.c_str()) != 0) {
      error = errno;
    }
    if (error != 0) {
      Abandon();
      return Status::IOError("write failed: " + target_ + ": " +
                             std::strerror(error));
    }
    temp_.clear();
    std::filesystem::path dir = std::filesystem::path(target_).parent_path();
    if (dir.empty()) dir = ".";
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    const bool synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
    if (dir_fd >= 0) ::close(dir_fd);
    if (!synced) {
      return Status::IOError("cannot sync directory: " + dir.string());
    }
    return Status::OK();
  }

 private:
  void Abandon() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    if (!temp_.empty()) ::unlink(temp_.c_str());
    temp_.clear();
  }

  std::string target_;
  std::string temp_;
  int fd_ = -1;
};

// Sequential writer over a file descriptor, tracking position and the
// running whole-file FNV. The first failing write(2) latches its errno
// (EFBIG, ENOSPC, ...) and later writes are skipped.
class FdOut {
 public:
  explicit FdOut(int fd) : fd_(fd) {}

  int error() const { return error_; }

  void Write(const void* p, size_t n) {
    pos_ += n;
    if (error_ != 0) return;
    fnv_ = FnvUpdate(fnv_, p, n);
    const char* bytes = static_cast<const char*>(p);
    while (n > 0) {
      const ssize_t written = ::write(fd_, bytes, n);
      if (written < 0) {
        if (errno == EINTR) continue;
        error_ = errno;
        return;
      }
      bytes += written;
      n -= static_cast<size_t>(written);
    }
  }

  void PadTo(uint64_t target) {
    static constexpr char kZeros[kV3Alignment] = {};
    while (pos_ < target) {
      const size_t chunk = static_cast<size_t>(
          std::min<uint64_t>(sizeof(kZeros), target - pos_));
      Write(kZeros, chunk);
    }
  }

  uint64_t pos() const { return pos_; }
  uint64_t fnv() const { return fnv_; }

 private:
  int fd_;
  int error_ = 0;
  uint64_t fnv_ = kFnvSeed;
  uint64_t pos_ = 0;
};

// In-memory field writer/reader for the fixed-size planner-stats block.
class MemWriter {
 public:
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  const std::string& bytes() const { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

class MemReader {
 public:
  MemReader(const char* p, size_t n) : p_(p), end_(p + n) {}
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }

 private:
  bool Raw(void* d, size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) return false;
    std::memcpy(d, p_, n);
    p_ += n;
    return true;
  }
  const char* p_;
  const char* end_;
};

// Parsed + validated header and section table (the O(1) open checks).
struct ParsedArena {
  HeaderV3 header;
  SectionEntry sec[kSecMaxKind + 1] = {};
  bool present[kSecMaxKind + 1] = {};
};

Status ParseArena(const char* data, size_t size, ParsedArena* out) {
  if (size < sizeof(HeaderV3) + 2 * sizeof(uint64_t)) {
    return Status::Corruption("file too small for v3 snapshot");
  }
  HeaderV3& h = out->header;
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kMagicV3, sizeof(kMagicV3)) != 0) {
    return Status::Corruption("bad magic: not a v3 snapshot");
  }
  if (Fnv(data, offsetof(HeaderV3, header_checksum)) != h.header_checksum) {
    return Status::Corruption("header checksum mismatch");
  }
  if (h.file_size != size) {
    return Status::Corruption("file size disagrees with header");
  }
  if (h.table_offset != sizeof(HeaderV3)) {
    return Status::Corruption("bad section table offset");
  }
  if (h.section_count == 0 || h.section_count > kSecMaxKind) {
    return Status::Corruption("bad section count");
  }
  // Every count costs >= 4 bytes per element somewhere in the file, so a
  // header claiming more elements than bytes is corrupt — checked before
  // any count-sized allocation or arithmetic (overflow guard).
  if (h.num_users > h.file_size || h.num_objects > h.file_size ||
      h.num_dict_tokens > h.file_size || h.total_tokens > h.file_size) {
    return Status::Corruption("implausible counts in header");
  }
  const uint64_t table_bytes = h.section_count * sizeof(SectionEntry);
  const uint64_t body_begin = h.table_offset + table_bytes + sizeof(uint64_t);
  if (body_begin + sizeof(uint64_t) > size) {
    return Status::Corruption("section table exceeds file");
  }
  uint64_t stored_table_sum = 0;
  std::memcpy(&stored_table_sum, data + h.table_offset + table_bytes,
              sizeof(stored_table_sum));
  if (Fnv(data + h.table_offset, table_bytes) != stored_table_sum) {
    return Status::Corruption("section table checksum mismatch");
  }
  for (uint64_t i = 0; i < h.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, data + h.table_offset + i * sizeof(SectionEntry),
                sizeof(e));
    const size_t elem = ElementSize(e.kind);
    if (elem == 0) return Status::Corruption("unknown section kind");
    if (e.reserved != 0) return Status::Corruption("bad section entry");
    if (out->present[e.kind]) return Status::Corruption("duplicate section");
    if (e.count > h.file_size) {
      return Status::Corruption("implausible section count");
    }
    if (e.size != e.count * elem) {
      return Status::Corruption("section size disagrees with count");
    }
    if (e.offset % kV3Alignment != 0 || e.offset < body_begin ||
        e.offset + e.size > h.file_size - sizeof(uint64_t) ||
        e.offset + e.size < e.offset) {
      return Status::Corruption("section out of bounds");
    }
    out->sec[e.kind] = e;
    out->present[e.kind] = true;
  }

  // Presence and fixed counts. Variable-count sections (blobs) are
  // cross-checked against payload contents at Load time; the reserved
  // legacy sketch sections must come all together, with flags bit 1, and
  // are otherwise only range-checked above.
  const auto need = [&](uint32_t kind, uint64_t count) -> bool {
    return out->present[kind] && out->sec[kind].count == count;
  };
  const bool core_ok =
      need(kSecUserBegin, h.num_users + 1) &&
      need(kSecTokenBegin, h.num_objects + 1) &&
      need(kSecTokenData, h.total_tokens) && need(kSecXs, h.num_objects) &&
      need(kSecYs, h.num_objects) && need(kSecTimes, h.num_objects) &&
      need(kSecUsers, h.num_objects) && need(kSecSigs, h.num_objects) &&
      need(kSecInsertionOrder, h.num_objects) &&
      need(kSecUserNameOffsets, h.num_users + 1) &&
      out->present[kSecUserNameBlob] &&
      need(kSecDictOffsets, h.num_dict_tokens + 1) &&
      out->present[kSecDictBlob] && need(kSecDictFreq, h.num_dict_tokens);
  if (!core_ok) return Status::Corruption("missing or missized section");
  const bool want_stats = (h.flags & kFlagPlannerStats) != 0;
  const bool legacy_sketch = (h.flags & kFlagLegacySketch) != 0;
  if (want_stats != need(kSecPlannerStats, 1)) {
    return Status::Corruption("planner-stats section disagrees with flags");
  }
  for (uint32_t kind = kSecLegacySketchMeta;
       kind <= kSecLegacySketchRowSalts; ++kind) {
    if (out->present[kind] != legacy_sketch) {
      return Status::Corruption("sketch sections disagree with flags");
    }
  }
  const uint64_t expected_sections = 14 + (want_stats ? 1 : 0) +
                                     (legacy_sketch ? 11 : 0);
  if (h.section_count != expected_sections) {
    return Status::Corruption("unexpected section count");
  }
  return Status::OK();
}

template <typename T>
std::span<const T> SecSpan(const char* data, const SectionEntry& e) {
  return {reinterpret_cast<const T*>(data + e.offset),
          static_cast<size_t>(e.count)};
}

// begin[0] == 0, nondecreasing, begin.back() == total. The check that
// keeps every CSR access in bounds, in trust mode too.
bool ValidBegins(std::span<const uint32_t> begin, uint64_t total) {
  if (begin.empty() || begin.front() != 0) return false;
  for (size_t i = 1; i < begin.size(); ++i) {
    if (begin[i] < begin[i - 1]) return false;
  }
  return begin.back() == total;
}

bool ValidOffsets(std::span<const uint64_t> offsets, uint64_t total) {
  if (offsets.empty() || offsets.front() != 0) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return offsets.back() == total;
}

}  // namespace

Status SnapshotLoader::Write(const ObjectDatabase& db,
                             const std::string& path) {
  const size_t n = db.num_objects();
  const size_t nu = db.num_users();
  // The CSR begin-arrays store 32-bit offsets: refuse to write a database
  // they cannot index instead of truncating.
  if (!FitsU32(n) || !FitsU32(db.total_tokens())) {
    return Status::InvalidArgument(
        "database too large for 32-bit CSR offsets");
  }

  // Side arrays the in-memory layout does not keep flat.
  std::vector<uint32_t> begin_fallback{0};
  std::span<const uint32_t> user_begin = db.user_begin_.span();
  if (user_begin.empty()) user_begin = begin_fallback;
  std::span<const uint32_t> token_begin = db.token_begin_.span();
  if (token_begin.empty()) token_begin = begin_fallback;

  std::vector<double> times(n);
  for (size_t i = 0; i < n; ++i) times[i] = db.objects_[i].time;

  std::vector<uint64_t> name_offsets(nu + 1, 0);
  std::string name_blob;
  for (UserId u = 0; u < nu; ++u) {
    name_blob.append(db.UserName(u));
    name_offsets[u + 1] = name_blob.size();
  }

  const Dictionary& dict = db.dictionary();
  const size_t nd = dict.size();
  std::vector<uint64_t> dict_offsets(nd + 1, 0);
  std::vector<uint64_t> dict_freq(nd, 0);
  std::string dict_blob;
  for (TokenId t = 0; t < nd; ++t) {
    dict_blob.append(dict.TokenString(t));
    dict_offsets[t + 1] = dict_blob.size();
    dict_freq[t] = dict.Frequency(t);
  }

  MemWriter stats_block;
  if (db.has_planner_stats()) {
    WriteStats(&stats_block, db.planner_stats());
    STPS_CHECK(stats_block.bytes().size() == kPlannerStatsBlockSize);
  }

  struct Payload {
    uint32_t kind;
    const void* data;
    uint64_t count;
  };
  std::vector<Payload> payloads;
  const auto add = [&payloads](uint32_t kind, const void* data,
                               uint64_t count) {
    payloads.push_back({kind, data, count});
  };
  add(kSecUserBegin, user_begin.data(), user_begin.size());
  add(kSecTokenBegin, token_begin.data(), token_begin.size());
  add(kSecTokenData, db.token_data_.data(), db.token_data_.size());
  add(kSecXs, db.xs_.data(), n);
  add(kSecYs, db.ys_.data(), n);
  add(kSecTimes, times.data(), n);
  add(kSecUsers, db.users_.data(), n);
  add(kSecSigs, db.sigs_.data(), n);
  add(kSecInsertionOrder, db.insertion_order_.data(), n);
  add(kSecUserNameOffsets, name_offsets.data(), name_offsets.size());
  add(kSecUserNameBlob, name_blob.data(), name_blob.size());
  add(kSecDictOffsets, dict_offsets.data(), dict_offsets.size());
  add(kSecDictBlob, dict_blob.data(), dict_blob.size());
  add(kSecDictFreq, dict_freq.data(), dict_freq.size());
  if (db.has_planner_stats()) {
    add(kSecPlannerStats, stats_block.bytes().data(), 1);
  }

  // Precompute the layout, then stream it out in one pass.
  const uint64_t table_offset = sizeof(HeaderV3);
  const uint64_t table_bytes = payloads.size() * sizeof(SectionEntry);
  uint64_t cursor = table_offset + table_bytes + sizeof(uint64_t);
  std::vector<SectionEntry> entries;
  entries.reserve(payloads.size());
  for (const Payload& p : payloads) {
    cursor = RoundUp(cursor, kV3Alignment);
    SectionEntry e = {};
    e.kind = p.kind;
    e.offset = cursor;
    e.count = p.count;
    e.size = p.count * ElementSize(p.kind);
    e.checksum = Fnv(p.data, static_cast<size_t>(e.size));
    entries.push_back(e);
    cursor += e.size;
  }
  const uint64_t file_size = cursor + sizeof(uint64_t);

  HeaderV3 header = {};
  std::memcpy(header.magic, kMagicV3, sizeof(kMagicV3));
  header.file_size = file_size;
  header.flags = db.has_planner_stats() ? kFlagPlannerStats : 0;
  header.num_users = nu;
  header.num_objects = n;
  header.num_dict_tokens = nd;
  header.total_tokens = db.total_tokens();
  header.min_x = db.bounds_.min_x;
  header.min_y = db.bounds_.min_y;
  header.max_x = db.bounds_.max_x;
  header.max_y = db.bounds_.max_y;
  header.section_count = payloads.size();
  header.table_offset = table_offset;
  header.header_checksum = Fnv(&header, offsetof(HeaderV3, header_checksum));

  ReplacementFile file;
  const Status opened = file.Open(path);
  if (!opened.ok()) return opened;
  FdOut out(file.fd());
  out.Write(&header, sizeof(header));
  out.Write(entries.data(), static_cast<size_t>(table_bytes));
  const uint64_t table_sum =
      Fnv(entries.data(), static_cast<size_t>(table_bytes));
  out.Write(&table_sum, sizeof(table_sum));
  for (size_t i = 0; i < payloads.size(); ++i) {
    out.PadTo(entries[i].offset);
    out.Write(payloads[i].data, static_cast<size_t>(entries[i].size));
  }
  STPS_CHECK(out.pos() == file_size - sizeof(uint64_t));
  // The trailing checksum is not part of the hashed range.
  const uint64_t file_sum = out.fnv();
  out.Write(&file_sum, sizeof(file_sum));
  return file.Commit(out.error());
}

Status SnapshotLoader::CheckHeader(const char* data, size_t size) {
  ParsedArena parsed;
  return ParseArena(data, size, &parsed);
}

Result<ObjectDatabase> SnapshotLoader::Load(std::shared_ptr<const void> owner,
                                            const char* data, size_t size,
                                            bool verify) {
  ParsedArena a;
  if (Status s = ParseArena(data, size, &a); !s.ok()) return s;
  const HeaderV3& h = a.header;
  const size_t n = static_cast<size_t>(h.num_objects);
  const size_t nu = static_cast<size_t>(h.num_users);
  const size_t nd = static_cast<size_t>(h.num_dict_tokens);

  if (verify) {
    for (uint32_t kind = 1; kind <= kSecMaxKind; ++kind) {
      if (!a.present[kind]) continue;
      const SectionEntry& e = a.sec[kind];
      if (Fnv(data + e.offset, static_cast<size_t>(e.size)) != e.checksum) {
        return Status::Corruption("section checksum mismatch");
      }
    }
    uint64_t trailing = 0;
    std::memcpy(&trailing, data + size - sizeof(trailing), sizeof(trailing));
    if (Fnv(data, size - sizeof(trailing)) != trailing) {
      return Status::Corruption("file checksum mismatch");
    }
  }

  const auto user_begin = SecSpan<uint32_t>(data, a.sec[kSecUserBegin]);
  const auto token_begin = SecSpan<uint32_t>(data, a.sec[kSecTokenBegin]);
  const auto token_data = SecSpan<TokenId>(data, a.sec[kSecTokenData]);
  const auto xs = SecSpan<double>(data, a.sec[kSecXs]);
  const auto ys = SecSpan<double>(data, a.sec[kSecYs]);
  const auto times = SecSpan<double>(data, a.sec[kSecTimes]);
  const auto users = SecSpan<UserId>(data, a.sec[kSecUsers]);
  const auto sigs = SecSpan<TokenSignature>(data, a.sec[kSecSigs]);
  const auto order = SecSpan<uint32_t>(data, a.sec[kSecInsertionOrder]);
  const auto name_offsets =
      SecSpan<uint64_t>(data, a.sec[kSecUserNameOffsets]);
  const auto name_blob = SecSpan<char>(data, a.sec[kSecUserNameBlob]);
  const auto dict_offsets = SecSpan<uint64_t>(data, a.sec[kSecDictOffsets]);
  const auto dict_blob = SecSpan<char>(data, a.sec[kSecDictBlob]);
  const auto dict_freq = SecSpan<uint64_t>(data, a.sec[kSecDictFreq]);

  // Structural validation: everything a later accessor indexes with must
  // be proven in bounds here, in trust mode too (O(objects + users);
  // token-scale payloads stay untouched).
  if (!ValidBegins(user_begin, h.num_objects)) {
    return Status::Corruption("bad user CSR layout");
  }
  if (!ValidBegins(token_begin, h.total_tokens)) {
    return Status::Corruption("bad token CSR layout");
  }
  if (!ValidOffsets(name_offsets, a.sec[kSecUserNameBlob].count)) {
    return Status::Corruption("bad user-name offsets");
  }
  if (!ValidOffsets(dict_offsets, a.sec[kSecDictBlob].count)) {
    return Status::Corruption("bad dictionary offsets");
  }
  {
    std::vector<bool> seen(n, false);
    for (const uint32_t src : order) {
      if (src >= n || seen[src]) {
        return Status::Corruption("insertion order is not a permutation");
      }
      seen[src] = true;
    }
  }

  ObjectDatabase db;
  db.arena_ = std::move(owner);
  db.user_begin_ = Column<uint32_t>::Borrow(user_begin);
  db.token_begin_ = Column<uint32_t>::Borrow(token_begin);
  db.token_data_ = Column<TokenId>::Borrow(token_data);
  db.xs_ = Column<double>::Borrow(xs);
  db.ys_ = Column<double>::Borrow(ys);
  db.users_ = Column<UserId>::Borrow(users);
  db.sigs_ = Column<TokenSignature>::Borrow(sigs);
  db.insertion_order_ = Column<uint32_t>::Borrow(order);
  db.user_names_ = StringTable::Borrow(name_offsets, name_blob);
  db.dictionary_ = Dictionary::Borrowed(dict_offsets, dict_blob, dict_freq);
  db.bounds_ = Rect{h.min_x, h.min_y, h.max_x, h.max_y};

  // Materialize the AoS object headers (the only O(objects) allocation
  // of a mapped load). Trust mode copies the stored signatures; verify
  // mode recomputes them from the token arena and compares.
  db.objects_.resize(n);
  for (UserId u = 0; u < nu; ++u) {
    for (uint32_t slot = user_begin[u]; slot < user_begin[u + 1]; ++slot) {
      if (users[slot] != u) {
        return Status::Corruption("objects not grouped by user");
      }
      STObject& o = db.objects_[slot];
      o.id = slot;
      o.user = u;
      o.loc = Point{xs[slot], ys[slot]};
      o.time = times[slot];
      const std::span<const TokenId> doc{
          token_data.data() + token_begin[slot],
          token_begin[slot + 1] - token_begin[slot]};
      if (verify) {
        for (size_t k = 0; k < doc.size(); ++k) {
          if (doc[k] >= nd || (k > 0 && doc[k] <= doc[k - 1])) {
            return Status::Corruption("token set not canonical");
          }
        }
        o.set_doc(doc);
        if (o.sig != sigs[slot]) {
          return Status::Corruption("signature mismatch");
        }
      } else {
        o.doc = doc;
        o.sig = sigs[slot];
      }
    }
  }

  if ((h.flags & kFlagPlannerStats) != 0) {
    MemReader reader(data + a.sec[kSecPlannerStats].offset,
                     kPlannerStatsBlockSize);
    PlannerStats stats;
    if (!ReadStats(&reader, &stats)) {
      return Status::Corruption("bad planner-stats block");
    }
    db.planner_stats_ = std::make_shared<const PlannerStats>(stats);
  }

  if (verify) {
    // Structural cross-checks: rebuild what the writer derived and
    // compare. Agreement proves the payload decodes to the database the
    // writer saw — the same discipline as the v2 planner-stats check.
    if (db.has_planner_stats() &&
        !(ComputePlannerStats(db) == db.planner_stats())) {
      return Status::Corruption(
          "planner stats disagree with loaded database");
    }
    // Dictionary invariants the id order depends on: ascending document
    // frequency, ties strictly lexicographic (also rules out duplicate
    // strings). User names must be unique for FindUser to be total.
    for (TokenId t = 1; t < nd; ++t) {
      if (dict_freq[t - 1] > dict_freq[t] ||
          (dict_freq[t - 1] == dict_freq[t] &&
           db.dictionary().TokenString(t - 1) >=
               db.dictionary().TokenString(t))) {
        return Status::Corruption("dictionary order violated");
      }
    }
    std::vector<std::string_view> names(nu);
    for (UserId u = 0; u < nu; ++u) names[u] = db.UserName(u);
    std::sort(names.begin(), names.end());
    if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
      return Status::Corruption("duplicate user name");
    }
  }
  return db;
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open for reading: " + path);
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < sizeof(HeaderV3) + 2 * sizeof(uint64_t)) {
    ::close(fd);
    return Status::Corruption("file too small for v3 snapshot");
  }
  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }
  std::shared_ptr<const void> region(
      mem, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  const char* data = static_cast<const char*>(mem);
  if (Status s = SnapshotLoader::CheckHeader(data, size); !s.ok()) return s;
  MappedSnapshot snapshot;
  snapshot.region_ = std::move(region);
  snapshot.data_ = data;
  snapshot.size_ = size;
  return snapshot;
}

Result<ObjectDatabase> MappedSnapshot::Load() const {
  if (data_ == nullptr) {
    return Status::InvalidArgument("snapshot not open");
  }
  return SnapshotLoader::Load(region_, data_, size_, /*verify=*/false);
}

Result<ObjectDatabase> MappedSnapshot::LoadVerified() const {
  if (data_ == nullptr) {
    return Status::InvalidArgument("snapshot not open");
  }
  return SnapshotLoader::Load(region_, data_, size_, /*verify=*/true);
}

Result<ObjectDatabase> ReadBinaryMapped(const std::string& path) {
  Result<MappedSnapshot> snapshot = MappedSnapshot::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  return snapshot.value().Load();
}

}  // namespace stps
