// Prepare mode: input generation. Generates the workload's dataset from
// the seed and writes it as a v3 snapshot, the file every run mode loads.

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <random>

#include "bench_common.h"
#include "datagen/generator.h"
#include "io/binary.h"

namespace perfbench {

namespace {

// Seed of the base corpus every workload draws its copies from.
constexpr uint64_t kBaseSeed = 20160315;

/// A copy of `base` that differs in every input byte but not in the work
/// it takes: users are renamed and shuffled, tokens renamed through a
/// permutation, and every location shifted by one offset. All three are
/// drawn from `seed`.
stps::ObjectDatabase IsomorphicCopy(const stps::ObjectDatabase& base,
                                    uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> users(base.num_users());
  std::iota(users.begin(), users.end(), 0u);
  std::shuffle(users.begin(), users.end(), rng);
  std::vector<uint32_t> tokens(base.dictionary().size());
  std::iota(tokens.begin(), tokens.end(), 0u);
  std::shuffle(tokens.begin(), tokens.end(), rng);
  std::uniform_real_distribution<double> shift(-0.05, 0.05);
  const double dx = shift(rng);
  const double dy = shift(rng);

  // Each user's objects in their original insertion order.
  const std::span<const uint32_t> order = base.insertion_order();
  stps::DatabaseBuilder builder;
  std::vector<std::string> keywords;
  for (size_t rank = 0; rank < users.size(); ++rank) {
    const stps::UserId u = users[rank];
    std::vector<const stps::STObject*> objects;
    for (const stps::STObject& o : base.UserObjects(u)) objects.push_back(&o);
    std::sort(objects.begin(), objects.end(),
              [&](const stps::STObject* a, const stps::STObject* b) {
                return order[a->id] < order[b->id];
              });
    const std::string name = "u" + std::to_string(rank);
    for (const stps::STObject* o : objects) {
      keywords.clear();
      for (const stps::TokenId t : o->doc) {
        keywords.push_back("k" + std::to_string(tokens[t]));
      }
      builder.AddObject(name, {o->loc.x + dx, o->loc.y + dy},
                        std::span<const std::string>(keywords), o->time);
    }
  }
  return std::move(builder).Build();
}

}  // namespace

int RunPrepare(const RunOptions& options, JsonWriter* json) {
  Tracer tracer(options.trace);
  const size_t root = tracer.Open("bench.prepare");
  const WorkloadSpec& w = *options.workload;

  double start = NowMs();
  stps::ObjectDatabase db;
  {
    ScopedSpan span(&tracer, "datagen.generate");
    db = IsomorphicCopy(
        stps::GenerateDataset(stps::PresetSpec(w.kind, w.num_users, kBaseSeed)),
        options.seed);
  }
  const double generate_ms = NowMs() - start;

  start = NowMs();
  stps::Status status;
  {
    ScopedSpan span(&tracer, "io.write");
    status = stps::WriteBinary(db, options.snapshot);
  }
  const double write_ms = NowMs() - start;
  tracer.Close(root);
  if (!status.ok()) {
    std::fprintf(stderr, "prepare: %s\n", status.ToString().c_str());
    return 1;
  }

  json->BeginObject();
  json->Field("mode", "prepare");
  json->Field("generate_ms", generate_ms);
  json->Field("write_ms", write_ms);
  json->Field("objects", static_cast<double>(db.num_objects()));
  json->Field("users", static_cast<double>(db.num_users()));
  json->Field("tokens", static_cast<double>(db.total_tokens()));
  json->Field("file_bytes", static_cast<double>(
                                std::filesystem::file_size(options.snapshot)));
  json->Key("spans");
  tracer.Write(json);
  json->EndObject();
  return 0;
}

}  // namespace perfbench
