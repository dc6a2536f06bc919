// Delta publish correctness: the O(delta) splice path of
// UpdatableDatabase::Publish must produce a database *structurally
// bit-identical* to a fresh DatabaseBuilder::Build over the survivors —
// every column, the dictionary, and the planner stats — not merely one that answers queries the same way. The tests
// here force the delta and full paths alternately (the update_test
// differential only hits whichever path the thresholds pick), verify
// the fallback triggers (bounds growth, boundary deletes, dirty
// fraction, disabled delta), check the PublishResult/UpdateStats
// publish counters, and run concurrent readers against delta publishes
// (the TSan target; see scripts/run_tsan_tests.sh).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stpsjoin.h"
#include "core/update.h"
#include "planner/planner_stats.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::SameResults;

// Four immortal corner check-ins pinning bounds() to [0,1]x[0,1]: while
// the anchor user is never deleted and every other point stays strictly
// inside, no mutation can grow the bounds or delete a boundary point, so
// the delta path is never blocked by the global-structure guards.
std::vector<RawObject> AnchorObjects() {
  std::vector<RawObject> anchors;
  for (const Point corner :
       {Point{0.0, 0.0}, Point{0.0, 1.0}, Point{1.0, 0.0}, Point{1.0, 1.0}}) {
    anchors.push_back({"anchor", corner, {"anchorkw"}, 0.0});
  }
  return anchors;
}

// Deterministic in-bounds check-in stream (strictly inside the anchor
// frame) with enough collisions that joins return real results.
RawObject RandomInterior(Rng* rng, size_t user_pool, size_t vocabulary) {
  RawObject object;
  object.user = "user" + std::to_string(rng->NextBelow(user_pool));
  const double cx = 0.25 + 0.2 * static_cast<double>(rng->NextBelow(3));
  object.loc = {std::clamp(rng->Gaussian(cx, 0.05), 0.05, 0.95),
                std::clamp(rng->Gaussian(cx, 0.05), 0.05, 0.95)};
  const size_t tokens = 1 + rng->NextBelow(4);
  for (size_t t = 0; t < tokens; ++t) {
    object.keywords.push_back("kw" +
                              std::to_string(rng->NextBelow(vocabulary)));
  }
  return object;
}

ObjectDatabase BuildOracle(const std::vector<RawObject>& log,
                           const std::vector<bool>& deleted) {
  DatabaseBuilder builder;
  for (size_t i = 0; i < log.size(); ++i) {
    if (deleted[i]) continue;
    builder.AddObject(log[i].user, log[i].loc,
                      std::span<const std::string>(log[i].keywords),
                      log[i].time);
  }
  return std::move(builder).Build();
}

template <typename T>
void ExpectSpansEqual(std::span<const T> lhs, std::span<const T> rhs,
                      const char* what) {
  ASSERT_EQ(lhs.size(), rhs.size()) << what;
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_EQ(lhs[i], rhs[i]) << what << "[" << i << "]";
  }
}

// The strong contract: every physical structure of the two databases is
// element-wise identical. Queries cannot distinguish databases that pass
// this — including their JoinStats and planner estimates.
void ExpectSameDatabase(const ObjectDatabase& lhs, const ObjectDatabase& rhs) {
  ASSERT_EQ(lhs.num_objects(), rhs.num_objects());
  ASSERT_EQ(lhs.num_users(), rhs.num_users());
  EXPECT_EQ(lhs.bounds().min_x, rhs.bounds().min_x);
  EXPECT_EQ(lhs.bounds().min_y, rhs.bounds().min_y);
  EXPECT_EQ(lhs.bounds().max_x, rhs.bounds().max_x);
  EXPECT_EQ(lhs.bounds().max_y, rhs.bounds().max_y);

  for (UserId u = 0; u < lhs.num_users(); ++u) {
    ASSERT_EQ(lhs.UserName(u), rhs.UserName(u)) << "user " << u;
    ASSERT_EQ(lhs.UserObjectCount(u), rhs.UserObjectCount(u)) << "user " << u;
  }

  ExpectSpansEqual(lhs.xs(), rhs.xs(), "xs");
  ExpectSpansEqual(lhs.ys(), rhs.ys(), "ys");
  ExpectSpansEqual(lhs.users(), rhs.users(), "users");
  ExpectSpansEqual(lhs.sigs(), rhs.sigs(), "sigs");
  ExpectSpansEqual(lhs.insertion_order(), rhs.insertion_order(),
                   "insertion_order");

  for (ObjectId id = 0; id < lhs.num_objects(); ++id) {
    const STObject& a = lhs.object(id);
    const STObject& b = rhs.object(id);
    ASSERT_EQ(a.user, b.user) << "object " << id;
    ASSERT_EQ(a.loc.x, b.loc.x) << "object " << id;
    ASSERT_EQ(a.loc.y, b.loc.y) << "object " << id;
    ASSERT_EQ(a.time, b.time) << "object " << id;
    ASSERT_EQ(a.sig, b.sig) << "object " << id;
    ExpectSpansEqual(lhs.ObjectTokens(id), rhs.ObjectTokens(id), "tokens");
  }

  // Dictionary: same token strings in the same id order with the same
  // recorded frequencies.
  ASSERT_EQ(lhs.dictionary().size(), rhs.dictionary().size());
  for (TokenId t = 0; t < lhs.dictionary().size(); ++t) {
    ASSERT_EQ(lhs.dictionary().TokenString(t), rhs.dictionary().TokenString(t))
        << "token " << t;
    ASSERT_EQ(lhs.dictionary().Frequency(t), rhs.dictionary().Frequency(t))
        << "token " << t;
  }

  ASSERT_TRUE(lhs.has_planner_stats());
  ASSERT_TRUE(rhs.has_planner_stats());
  EXPECT_TRUE(lhs.planner_stats() == rhs.planner_stats());
}

// Join-level agreement at the requested thread counts.
// Weaker than ExpectSameDatabase but exercises the actual kernels,
// including kAuto (which needs real planner stats to plan).
void ExpectSameJoinsAllModes(const ObjectDatabase& lhs,
                             const ObjectDatabase& rhs) {
  STPSQuery join;
  join.eps_loc = 0.15;
  join.eps_doc = 0.25;
  join.eps_u = 0.2;
  const std::vector<ScoredUserPair> brute = BruteForceSTPSJoin(lhs, join);
  EXPECT_TRUE(SameResults(brute, BruteForceSTPSJoin(rhs, join), 0.0));
  for (const int threads : {1, 2, 8}) {
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSPPJF, JoinAlgorithm::kAuto}) {
      JoinOptions options;
      options.algorithm = algorithm;
      options.threads = threads;
      const auto l = RunSTPSJoin(lhs, join, options);
      EXPECT_TRUE(SameResults(l, RunSTPSJoin(rhs, join, options), 0.0))
          << "threads=" << threads
          << " algorithm=" << static_cast<int>(algorithm);
      EXPECT_TRUE(SameResults(l, brute, 0.0));
    }
  }
  TopKQuery topk;
  topk.eps_loc = 0.15;
  topk.eps_doc = 0.25;
  topk.k = 5;
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kP, TopKAlgorithm::kAuto}) {
    EXPECT_TRUE(SameResults(RunTopKSTPSJoin(lhs, topk, algorithm),
                            RunTopKSTPSJoin(rhs, topk, algorithm), 0.0));
  }
}

// Seeds db (and the shadow log) with the anchor frame plus `count`
// interior objects, publishing the base epoch (a full build).
void SeedBase(UpdatableDatabase* db, Rng* rng, size_t count, size_t user_pool,
              std::vector<RawObject>* log, std::vector<bool>* deleted) {
  std::vector<RawObject> batch = AnchorObjects();
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(RandomInterior(rng, user_pool, 18));
  }
  for (const RawObject& object : batch) {
    log->push_back(object);
    deleted->push_back(false);
  }
  db->InsertObjects(std::span<const RawObject>(batch));
  db->Publish();
}

void DeleteUserEverywhere(UpdatableDatabase* db, const std::string& victim,
                          std::vector<RawObject>* log,
                          std::vector<bool>* deleted) {
  db->DeleteUser(victim);
  for (size_t i = 0; i < log->size(); ++i) {
    if ((*log)[i].user == victim) (*deleted)[i] = true;
  }
}

TEST(DeltaPublishTest, SmallDeltaTakesSplicePathAndIsBitIdentical) {
  Rng rng(101);
  UpdatableDatabase db;  // default delta_publish_max_fraction = 0.25
  std::vector<RawObject> log;
  std::vector<bool> deleted;
  SeedBase(&db, &rng, 120, /*user_pool=*/30, &log, &deleted);
  ASSERT_EQ(db.stats().full_publishes, 1u);  // seed epoch: no previous db

  // Dirty exactly one of ~31 users (3%): well under the 25% threshold.
  std::vector<RawObject> batch;
  for (int i = 0; i < 3; ++i) {
    RawObject object = RandomInterior(&rng, 30, 18);
    object.user = "user0";
    batch.push_back(object);
    log.push_back(object);
    deleted.push_back(false);
  }
  db.InsertObjects(std::span<const RawObject>(batch));
  const PublishResult result = db.PublishIfDirty();
  EXPECT_TRUE(result.published);
  EXPECT_TRUE(result.delta);
  EXPECT_GE(result.publish_ms, 0.0);

  const UpdateStats stats = db.stats();
  EXPECT_EQ(stats.delta_publishes, 1u);
  EXPECT_EQ(stats.full_publishes, 1u);
  EXPECT_EQ(stats.dirty_users_published, 1u);
  EXPECT_GT(stats.blocks_reused, 0u);   // the ~30 clean users
  EXPECT_GT(stats.blocks_rebuilt, 0u);  // seed epoch + user0 now
  EXPECT_TRUE(stats.last_publish_delta);

  const ObjectDatabase oracle = BuildOracle(log, deleted);
  ExpectSameDatabase(result.snapshot->db, oracle);
  ExpectSameJoinsAllModes(result.snapshot->db, oracle);
}

TEST(DeltaPublishTest, DeleteOnlyDeltaIsBitIdentical) {
  Rng rng(103);
  UpdatableDatabase db;
  std::vector<RawObject> log;
  std::vector<bool> deleted;
  SeedBase(&db, &rng, 120, /*user_pool=*/30, &log, &deleted);

  DeleteUserEverywhere(&db, "user3", &log, &deleted);
  const PublishResult result = db.PublishIfDirty();
  EXPECT_TRUE(result.published);
  EXPECT_TRUE(result.delta);
  const ObjectDatabase oracle = BuildOracle(log, deleted);
  ExpectSameDatabase(result.snapshot->db, oracle);

  // Reinserting the deleted user in the same window as another delete
  // still splices: both are dirty, the other ~28 users are reused.
  DeleteUserEverywhere(&db, "user5", &log, &deleted);
  RawObject back = RandomInterior(&rng, 30, 18);
  back.user = "user3";
  db.InsertObject(back);
  log.push_back(back);
  deleted.push_back(false);
  const PublishResult second = db.PublishIfDirty();
  EXPECT_TRUE(second.published);
  EXPECT_TRUE(second.delta);
  const ObjectDatabase oracle2 = BuildOracle(log, deleted);
  ExpectSameDatabase(second.snapshot->db, oracle2);
  ExpectSameJoinsAllModes(second.snapshot->db, oracle2);
}

TEST(DeltaPublishTest, FallbackTriggers) {
  // (a) Out-of-bounds insert forces the full path.
  {
    Rng rng(107);
    UpdatableDatabase db;
    std::vector<RawObject> log;
    std::vector<bool> deleted;
    SeedBase(&db, &rng, 60, /*user_pool=*/20, &log, &deleted);
    RawObject outside = RandomInterior(&rng, 20, 18);
    outside.loc = {1.5, 0.5};  // outside the anchor frame: bounds grow
    db.InsertObject(outside);
    log.push_back(outside);
    deleted.push_back(false);
    const PublishResult result = db.PublishIfDirty();
    EXPECT_TRUE(result.published);
    EXPECT_FALSE(result.delta);
    EXPECT_FALSE(db.stats().last_publish_delta);
    ExpectSameDatabase(result.snapshot->db, BuildOracle(log, deleted));
  }
  // (b) Deleting a boundary-defining user forces the full path (bounds
  // may shrink, which would change every Z-order key).
  {
    Rng rng(109);
    UpdatableDatabase db;
    std::vector<RawObject> log;
    std::vector<bool> deleted;
    SeedBase(&db, &rng, 60, /*user_pool=*/20, &log, &deleted);
    DeleteUserEverywhere(&db, "anchor", &log, &deleted);
    const PublishResult result = db.PublishIfDirty();
    EXPECT_TRUE(result.published);
    EXPECT_FALSE(result.delta);
    ExpectSameDatabase(result.snapshot->db, BuildOracle(log, deleted));
  }
  // (c) Dirty fraction above the threshold forces the full path.
  {
    Rng rng(113);
    UpdateOptions options;
    options.delta_publish_max_fraction = 0.1;
    UpdatableDatabase db(options);
    std::vector<RawObject> log;
    std::vector<bool> deleted;
    SeedBase(&db, &rng, 60, /*user_pool=*/10, &log, &deleted);
    // Touch ~half the users: far above 10%.
    for (int u = 0; u < 5; ++u) {
      RawObject object = RandomInterior(&rng, 10, 18);
      object.user = "user" + std::to_string(u);
      db.InsertObject(object);
      log.push_back(object);
      deleted.push_back(false);
    }
    const PublishResult result = db.PublishIfDirty();
    EXPECT_TRUE(result.published);
    EXPECT_FALSE(result.delta);
    EXPECT_EQ(db.stats().delta_publishes, 0u);
    ExpectSameDatabase(result.snapshot->db, BuildOracle(log, deleted));
  }
  // (d) delta_publish_max_fraction <= 0 disables the delta path even for
  // a one-user delta.
  {
    Rng rng(127);
    UpdateOptions options;
    options.delta_publish_max_fraction = 0.0;
    UpdatableDatabase db(options);
    std::vector<RawObject> log;
    std::vector<bool> deleted;
    SeedBase(&db, &rng, 60, /*user_pool=*/20, &log, &deleted);
    RawObject object = RandomInterior(&rng, 20, 18);
    db.InsertObject(object);
    log.push_back(object);
    deleted.push_back(false);
    const PublishResult result = db.PublishIfDirty();
    EXPECT_TRUE(result.published);
    EXPECT_FALSE(result.delta);
    EXPECT_EQ(db.stats().delta_publishes, 0u);
    EXPECT_EQ(db.stats().full_publishes, 2u);
    ExpectSameDatabase(result.snapshot->db, BuildOracle(log, deleted));
  }
}

// The interleaved differential fuzz, forcing the two paths alternately:
// odd rounds make a small (1-2 user) delta, even rounds a sweeping one,
// and a delta-disabled twin database consumes the same stream so every
// comparison also checks splice == full == oracle three ways.
TEST(DeltaPublishTest, ForcedAlternationDifferential) {
  Rng rng(131);
  UpdateOptions delta_options;
  delta_options.delta_publish_max_fraction = 0.3;
  UpdatableDatabase db(delta_options);
  UpdateOptions full_options;
  full_options.delta_publish_max_fraction = 0.0;  // always full rebuild
  UpdatableDatabase full_db(full_options);

  std::vector<RawObject> log;
  std::vector<bool> deleted;
  {
    Rng seed_rng(131);
    SeedBase(&db, &seed_rng, 100, /*user_pool=*/25, &log, &deleted);
  }
  // The twin consumes the exact same seed stream.
  full_db.InsertObjects(std::span<const RawObject>(log));
  full_db.Publish();

  for (size_t round = 1; round <= 10; ++round) {
    const bool small = (round % 2 == 1);
    std::vector<RawObject> batch;
    if (small) {
      // 1-2 dirty users out of ~26 — forces the splice path.
      const size_t victims = 1 + rng.NextBelow(2);
      for (size_t v = 0; v < victims; ++v) {
        const std::string user = "user" + std::to_string(rng.NextBelow(25));
        if (rng.Bernoulli(0.35)) {
          DeleteUserEverywhere(&db, user, &log, &deleted);
          full_db.DeleteUser(user);
        } else {
          RawObject object = RandomInterior(&rng, 25, 18);
          object.user = user;
          batch.push_back(object);
        }
      }
    } else {
      // Touch ~half the pool — forces the full path.
      for (size_t u = 0; u < 25; u += 2) {
        RawObject object = RandomInterior(&rng, 25, 18);
        object.user = "user" + std::to_string(u);
        batch.push_back(object);
      }
    }
    if (!batch.empty()) {
      db.InsertObjects(std::span<const RawObject>(batch));
      full_db.InsertObjects(std::span<const RawObject>(batch));
      for (const RawObject& object : batch) {
        log.push_back(object);
        deleted.push_back(false);
      }
    }
    const PublishResult result = db.PublishIfDirty();
    const PublishResult full_result = full_db.PublishIfDirty();
    if (result.published) {
      EXPECT_EQ(result.delta, small)
          << "round " << round << " took the wrong publish path";
    }
    if (full_result.published) {
      EXPECT_FALSE(full_result.delta);
    }
    const ObjectDatabase oracle = BuildOracle(log, deleted);
    ExpectSameDatabase(result.snapshot->db, oracle);
    ExpectSameDatabase(full_result.snapshot->db, oracle);
    if (round == 5 || round == 10) {
      ExpectSameJoinsAllModes(result.snapshot->db, oracle);
    }
  }
  // Both paths actually ran.
  EXPECT_GE(db.stats().delta_publishes, 4u);
  EXPECT_GE(db.stats().full_publishes, 5u);  // seed + 5 sweeping rounds
  EXPECT_GT(db.stats().blocks_reused, 0u);
  EXPECT_EQ(full_db.stats().delta_publishes, 0u);
}

TEST(DeltaPublishTest, FormatUpdateStatsMentionsPublishPaths) {
  Rng rng(137);
  UpdatableDatabase db;
  std::vector<RawObject> log;
  std::vector<bool> deleted;
  SeedBase(&db, &rng, 40, /*user_pool=*/15, &log, &deleted);
  RawObject object = RandomInterior(&rng, 15, 18);
  db.InsertObject(object);
  db.PublishIfDirty();
  const std::string formatted = FormatUpdateStats(db.stats());
  EXPECT_NE(formatted.find("delta=1"), std::string::npos) << formatted;
  EXPECT_NE(formatted.find("full=1"), std::string::npos) << formatted;
  EXPECT_NE(formatted.find("reused="), std::string::npos) << formatted;
}

// TSan target: readers join on their snapshots while the writer streams
// small deltas and publishes through the splice path. Readers check
// internal consistency (index join == brute force) so a torn splice
// (e.g. a span into a freed previous epoch) surfaces as a wrong result
// or a sanitizer report.
TEST(DeltaPublishConcurrencyTest, ReadersDuringDeltaPublishes) {
  Rng seed_rng(139);
  UpdatableDatabase db;
  std::vector<RawObject> log;
  std::vector<bool> deleted;
  SeedBase(&db, &seed_rng, 80, /*user_pool=*/12, &log, &deleted);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &stop, &failures, r] {
      STPSQuery query;
      query.eps_loc = 0.15;
      query.eps_doc = 0.25;
      query.eps_u = 0.2;
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snapshot = db.snapshot();
        if (snapshot->epoch < last_epoch) failures.fetch_add(1);
        last_epoch = snapshot->epoch;
        JoinOptions options;
        options.algorithm = JoinAlgorithm::kSPPJF;
        options.threads = (r == 0) ? 2 : 1;
        const auto fast = RunSTPSJoin(snapshot->db, query, options);
        const auto brute = BruteForceSTPSJoin(snapshot->db, query);
        if (!SameResults(fast, brute, 0.0)) failures.fetch_add(1);
      }
    });
  }

  Rng rng(149);
  for (size_t i = 0; i < 30; ++i) {
    RawObject object = RandomInterior(&rng, 12, 18);
    db.InsertObject(object);
    if (i % 3 == 2) db.PublishIfDirty();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db.stats().delta_publishes, 0u);
}

}  // namespace
}  // namespace stps
