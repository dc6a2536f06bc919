// Incremental publish benchmark: the O(delta) splice path vs the full
// rebuild, across dirty-user fractions on a fixed-size database.
//
// Two UpdatableDatabase twins are seeded from the same dataset and
// consume the identical mutation stream; one publishes through the
// delta (splice) path, the other has the delta path disabled
// (delta_publish_max_fraction = 0) and rebuilds every survivor. Each
// sweep point dirties a chosen fraction of the users (one in-bounds
// insert per dirty user — locations are copied from the user's existing
// points, so the bounds guard never blocks the splice) and times
// PublishResult::publish_ms on both stores, best of `rounds`.
//
// Correctness is asserted inline: the delta store's result must report
// delta=true (full=false on the twin), and a structural checksum over
// the published databases (SoA columns, token arena, insertion order,
// dictionary) must match between the two paths —
// any splice bug aborts the bench, which is what makes the
// `delta_full_checksum_match` series a gateable 1.0.
//
// The headline series `delta_publish_speedup` is full_publish_ms over
// delta_publish_ms at the 1%-dirty sweep point; the committed
// full-scale baseline gates it at >= 10 (scripts/check_all.sh).
//
// Usage: bench_update [--smoke] [output.json]  (default BENCH_update.json)

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/update.h"

namespace stps::bench {
namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

// Structural checksum of a published database: covers the slot layout,
// SoA mirrors, token arena, insertion order and dictionary order —
// everything the splice path stitches together.
uint64_t DatabaseChecksum(const ObjectDatabase& db) {
  uint64_t h = 0x2545F4914F6CDD1Dull;
  h = Mix(h, db.num_objects());
  h = Mix(h, db.num_users());
  for (const double x : db.xs()) h = Mix(h, std::bit_cast<uint64_t>(x));
  for (const double y : db.ys()) h = Mix(h, std::bit_cast<uint64_t>(y));
  for (const UserId u : db.users()) h = Mix(h, u);
  for (const TokenSignature s : db.sigs()) h = Mix(h, s);
  for (const uint32_t o : db.insertion_order()) h = Mix(h, o);
  for (ObjectId id = 0; id < db.num_objects(); ++id) {
    for (const TokenId t : db.ObjectTokens(id)) h = Mix(h, t);
  }
  for (TokenId t = 0; t < db.dictionary().size(); ++t) {
    for (const char c : db.dictionary().TokenString(t)) {
      h = Mix(h, static_cast<unsigned char>(c));
    }
    h = Mix(h, db.dictionary().Frequency(t));
  }
  return h;
}

// One insert per dirty user, at the location of one of the user's
// published points (guaranteed inside bounds — the splice path's bounds
// guard never trips) with a fresh keyword (the dictionary delta is
// exercised on every round).
std::vector<RawObject> MakeDirtyBatch(const ObjectDatabase& db,
                                      size_t dirty_users, uint64_t round,
                                      Rng* rng) {
  const size_t num_users = db.num_users();
  std::vector<uint32_t> picks(num_users);
  for (size_t u = 0; u < num_users; ++u) picks[u] = static_cast<uint32_t>(u);
  for (size_t i = 0; i < dirty_users && i + 1 < num_users; ++i) {
    std::swap(picks[i], picks[i + rng->NextBelow(num_users - i)]);
  }
  std::vector<RawObject> batch;
  batch.reserve(dirty_users);
  for (size_t i = 0; i < dirty_users; ++i) {
    const UserId u = picks[i];
    const STObject& anchor =
        db.UserObjects(u)[rng->NextBelow(db.UserObjectCount(u))];
    RawObject object;
    object.user = std::string(db.UserName(u));
    object.loc = anchor.loc;
    object.keywords = {"upd" + std::to_string(round) + "_" +
                       std::to_string(i)};
    batch.push_back(object);
  }
  return batch;
}

struct SweepRow {
  double dirty_pct = 0;
  size_t dirty_users = 0;
  double delta_publish_ms = 0;
  double full_publish_ms = 0;
  uint64_t blocks_reused = 0;
  uint64_t blocks_rebuilt = 0;
};

}  // namespace
}  // namespace stps::bench

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;

  bool smoke = false;
  std::string out_path = "BENCH_update.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const size_t users = smoke ? 300 : 3000;
  const size_t rounds = smoke ? 2 : 3;
  const std::vector<double> sweep = smoke
                                        ? std::vector<double>{0.01}
                                        : std::vector<double>{0.005, 0.01,
                                                              0.02, 0.05};

  const ObjectDatabase& dataset = GetDataset(DatasetKind::kCheckinSparse,
                                             users);
  UpdateOptions delta_options;
  delta_options.delta_publish_max_fraction = 0.25;
  UpdatableDatabase delta_db(delta_options);
  delta_db.SeedFrom(dataset);
  UpdateOptions full_options;
  full_options.delta_publish_max_fraction = 0.0;  // always rebuild
  UpdatableDatabase full_db(full_options);
  full_db.SeedFrom(dataset);

  std::printf("%9s %11s %9s %9s %8s\n", "dirty_pct", "dirty_users",
              "delta_ms", "full_ms", "speedup");

  Rng rng(kBenchSeed);
  std::vector<SweepRow> rows;
  uint64_t round_id = 0;
  for (const double fraction : sweep) {
    SweepRow row;
    row.dirty_pct = fraction * 100.0;
    row.dirty_users = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(users)));
    double best_delta = 0, best_full = 0;
    for (size_t r = 0; r < rounds; ++r) {
      const std::vector<RawObject> batch = MakeDirtyBatch(
          delta_db.snapshot()->db, row.dirty_users, round_id++, &rng);
      delta_db.InsertObjects(std::span<const RawObject>(batch));
      full_db.InsertObjects(std::span<const RawObject>(batch));
      const PublishResult delta_result = delta_db.PublishIfDirty();
      const PublishResult full_result = full_db.PublishIfDirty();
      if (!delta_result.published || !delta_result.delta) {
        std::fprintf(stderr,
                     "delta store took the wrong path at %.1f%% dirty\n",
                     row.dirty_pct);
        return 1;
      }
      if (!full_result.published || full_result.delta) {
        std::fprintf(stderr,
                     "full store took the wrong path at %.1f%% dirty\n",
                     row.dirty_pct);
        return 1;
      }
      if (DatabaseChecksum(delta_result.snapshot->db) !=
          DatabaseChecksum(full_result.snapshot->db)) {
        std::fprintf(stderr, "splice diverged from rebuild at %.1f%% dirty\n",
                     row.dirty_pct);
        return 1;
      }
      if (r == 0 || delta_result.publish_ms < best_delta) {
        best_delta = delta_result.publish_ms;
      }
      if (r == 0 || full_result.publish_ms < best_full) {
        best_full = full_result.publish_ms;
      }
    }
    row.delta_publish_ms = best_delta;
    row.full_publish_ms = best_full;
    row.blocks_reused = delta_db.stats().blocks_reused;
    row.blocks_rebuilt = delta_db.stats().blocks_rebuilt;
    rows.push_back(row);
    std::printf("%8.1f%% %11zu %9.3f %9.3f %7.1fx\n", row.dirty_pct,
                row.dirty_users, row.delta_publish_ms, row.full_publish_ms,
                row.full_publish_ms /
                    (row.delta_publish_ms > 0 ? row.delta_publish_ms : 1e-6));
  }

  // Headline: the speedup at the 1%-dirty point (the sweep always has
  // one; in smoke mode it is the only point).
  double delta_publish_speedup = 0.0;
  for (const SweepRow& row : rows) {
    if (row.dirty_pct > 0.9 && row.dirty_pct < 1.1) {
      delta_publish_speedup =
          row.full_publish_ms /
          (row.delta_publish_ms > 0 ? row.delta_publish_ms : 1e-6);
    }
  }

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"update\",\n  \"dataset\": "
               "\"CheckinSparse\",\n  \"users\": %zu,\n  \"rows\": [\n",
               users);
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(json,
                 "%s    {\"dirty_pct\": %.1f, \"dirty_users\": %zu, "
                 "\"delta_publish_ms\": %.3f, \"full_publish_ms\": %.3f, "
                 "\"blocks_reused\": %" PRIu64 ", \"blocks_rebuilt\": %" PRIu64
                 "}",
                 i == 0 ? "" : ",\n", r.dirty_pct, r.dirty_users,
                 r.delta_publish_ms, r.full_publish_ms, r.blocks_reused,
                 r.blocks_rebuilt);
  }
  std::fprintf(json,
               "\n  ],\n  \"delta_publish_speedup\": %.2f,\n"
               "  \"delta_full_checksum_match\": 1.0\n}\n",
               delta_publish_speedup);
  std::fclose(json);

  std::printf("\ndelta publish vs full rebuild at 1%% dirty (%zu users): "
              "%.1fx faster\n",
              users, delta_publish_speedup);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
