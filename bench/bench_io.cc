// Snapshot I/O benchmark: cold open and first-join cost on the v3 arena
// format.
//
// Three ways to get a written database back:
//   heap_read_ms    ReadBinary — reads the whole file, verifies every
//                   section checksum plus the structural cross-checks
//                   (O(file) before the first query can run)
//   open_ms         MappedSnapshot::Open — mmap + header/table parse;
//                   O(1) in the file size, nothing is paged in yet
//   load_ms         MappedSnapshot::Load — borrowed-arena database on
//                   top of the mapping (O(objects + users) structural
//                   validation, payload paged on demand)
//
// The headline series `mapped_open_speedup` is heap_read over open+load
// at the largest sweep point: the factor by which mmap shortens the
// time from process start to a queryable database. It grows with the
// file, so the committed full-scale baseline gates it at >= 10.
//
// The join columns compare the same query on the heap and mapped
// databases (first query after open — the paged-in join). Both must
// produce the identical result list — a positional checksum over
// (a, b, score-bits) aborts the bench on any divergence.
//
// Usage: bench_io [--smoke] [output.json]  (default BENCH_io.json)

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/stpsjoin.h"
#include "io/binary.h"

namespace stps::bench {
namespace {

uint64_t ResultChecksum(const std::vector<ScoredUserPair>& result) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const ScoredUserPair& p : result) {
    uint64_t x = (static_cast<uint64_t>(p.a) << 32) | p.b;
    x ^= std::bit_cast<uint64_t>(p.score) + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
    h ^= x * 0xBF58476D1CE4E5B9ull;
    h = (h << 13) | (h >> 51);
  }
  return h ^ result.size();
}

struct SweepRow {
  size_t users = 0;
  uint64_t file_bytes = 0;
  double write_ms = 0;
  double heap_read_ms = 0;
  double open_ms = 0;
  double load_ms = 0;
  double join_heap_ms = 0;
  double join_mapped_ms = 0;
  uint64_t matches = 0;
};

SweepRow RunSweepPoint(size_t users, const std::string& path) {
  SweepRow row;
  row.users = users;
  const ObjectDatabase& db = GetDataset(DatasetKind::kCheckinSparse, users);
  const STPSQuery query = DefaultQuery(DatasetKind::kCheckinSparse);

  Timer write_timer;
  if (!WriteBinary(db, path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  row.write_ms = write_timer.ElapsedMillis();

  Timer heap_timer;
  Result<ObjectDatabase> heap = ReadBinary(path);
  row.heap_read_ms = heap_timer.ElapsedMillis();
  if (!heap.ok()) {
    std::fprintf(stderr, "heap read failed: %s\n",
                 heap.status().ToString().c_str());
    std::abort();
  }

  Timer open_timer;
  Result<MappedSnapshot> snapshot = MappedSnapshot::Open(path);
  row.open_ms = open_timer.ElapsedMillis();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "mmap open failed: %s\n",
                 snapshot.status().ToString().c_str());
    std::abort();
  }
  row.file_bytes = snapshot.value().file_size();

  Timer load_timer;
  Result<ObjectDatabase> mapped = snapshot.value().Load();
  row.load_ms = load_timer.ElapsedMillis();
  if (!mapped.ok()) {
    std::fprintf(stderr, "mapped load failed: %s\n",
                 mapped.status().ToString().c_str());
    std::abort();
  }

  // First query after each open: the heap database is fully resident,
  // the mapped one pages its arena in as the join touches it.
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kSPPJF;
  Timer heap_join_timer;
  const auto heap_result = RunSTPSJoin(heap.value(), query, options);
  row.join_heap_ms = heap_join_timer.ElapsedMillis();
  Timer mapped_join_timer;
  const auto mapped_result = RunSTPSJoin(mapped.value(), query, options);
  row.join_mapped_ms = mapped_join_timer.ElapsedMillis();
  row.matches = mapped_result.size();

  if (ResultChecksum(mapped_result) != ResultChecksum(heap_result)) {
    std::fprintf(stderr, "mapped join diverged at %zu users\n", users);
    std::abort();
  }

  std::remove(path.c_str());
  return row;
}

}  // namespace
}  // namespace stps::bench

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;

  bool smoke = false;
  std::string out_path = "BENCH_io.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::vector<size_t> sweep = smoke
                                        ? std::vector<size_t>{100, 200}
                                        : std::vector<size_t>{400, 1600, 3200};
  const std::string snapshot_path = out_path + ".tmp.stpsdb";

  std::printf("%8s %12s %9s %9s %8s %8s %9s %9s\n", "users", "file_bytes",
              "write_ms", "heap_ms", "open_ms", "load_ms", "joinH_ms",
              "joinM_ms");

  std::vector<SweepRow> rows;
  for (const size_t users : sweep) {
    rows.push_back(RunSweepPoint(users, snapshot_path));
    const SweepRow& r = rows.back();
    std::printf("%8zu %12" PRIu64 " %9.1f %9.1f %8.3f %8.3f %9.1f %9.1f\n",
                r.users, r.file_bytes, r.write_ms, r.heap_read_ms, r.open_ms,
                r.load_ms, r.join_heap_ms, r.join_mapped_ms);
  }

  const SweepRow& last = rows.back();
  const double mapped_open_ms = last.open_ms + last.load_ms;
  const double mapped_open_speedup =
      last.heap_read_ms / (mapped_open_ms > 0 ? mapped_open_ms : 1e-6);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"io\",\n  \"dataset\": "
               "\"CheckinSparse\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(json,
                 "%s    {\"users\": %zu, \"file_bytes\": %" PRIu64
                 ", \"matches\": %" PRIu64
                 ", \"write_ms\": %.2f, \"heap_read_ms\": %.2f, "
                 "\"open_ms\": %.4f, \"load_ms\": %.4f, "
                 "\"join_heap_ms\": %.2f, \"join_mapped_ms\": %.2f}",
                 i == 0 ? "" : ",\n", r.users, r.file_bytes, r.matches,
                 r.write_ms, r.heap_read_ms, r.open_ms, r.load_ms,
                 r.join_heap_ms, r.join_mapped_ms);
  }
  std::fprintf(json, "\n  ],\n  \"mapped_open_speedup\": %.2f\n}\n",
               mapped_open_speedup);
  std::fclose(json);

  std::printf("\nmapped open+load vs verified heap read at %zu users: "
              "%.1fx faster (%.3f ms vs %.1f ms)\n",
              last.users, mapped_open_speedup, mapped_open_ms,
              last.heap_read_ms);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
