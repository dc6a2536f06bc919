// UpdatableDatabase correctness: epoch/snapshot semantics, free-list and
// compaction bookkeeping, and the differential update contract — after
// ANY interleaving of InsertObjects/DeleteUser, the published snapshot
// answers every join / top-k variant bit-identically to a fresh
// DatabaseBuilder::Build over the surviving raw objects.
//
// The concurrent tests double as the TSan reader/writer target (see
// scripts/run_tsan_tests.sh): readers hold snapshots and run joins while
// writers mutate and publish.

#include "core/update.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stpsjoin.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::SameResults;

// Deterministic raw check-in stream with enough user/spatial/token
// collisions that joins at the test thresholds return real results.
RawObject RandomRaw(Rng* rng, size_t user_pool, size_t vocabulary) {
  RawObject object;
  object.user = "user" + std::to_string(rng->NextBelow(user_pool));
  if (rng->Bernoulli(0.7)) {
    // Hotspot: most points cluster so eps_loc = 0.15 connects users.
    const double cx = 0.2 + 0.15 * static_cast<double>(rng->NextBelow(3));
    object.loc = {rng->Gaussian(cx, 0.03), rng->Gaussian(cx, 0.03)};
  } else {
    object.loc = {rng->Uniform(0, 1), rng->Uniform(0, 1)};
  }
  const size_t tokens = 1 + rng->NextBelow(4);
  for (size_t t = 0; t < tokens; ++t) {
    object.keywords.push_back("kw" +
                              std::to_string(rng->NextBelow(vocabulary)));
  }
  object.time = 0.0;
  return object;
}

// The oracle: the surviving raw objects in insertion order, exactly what
// the update contract promises the snapshot is equivalent to.
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

// Runs one join/top-k configuration on both databases and demands
// bit-identical results (ids and scores).
void ExpectSameJoins(const ObjectDatabase& lhs, const ObjectDatabase& rhs) {
  STPSQuery join;
  join.eps_loc = 0.15;
  join.eps_doc = 0.25;
  join.eps_u = 0.2;

  const std::vector<ScoredUserPair> brute_l = BruteForceSTPSJoin(lhs, join);
  const std::vector<ScoredUserPair> brute_r = BruteForceSTPSJoin(rhs, join);
  EXPECT_TRUE(SameResults(brute_l, brute_r, 0.0));

  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJC,
        JoinAlgorithm::kSPPJD, JoinAlgorithm::kAuto}) {
    JoinOptions options;
    options.algorithm = algorithm;
    EXPECT_TRUE(SameResults(RunSTPSJoin(lhs, join, options),
                            RunSTPSJoin(rhs, join, options), 0.0))
        << "join algorithm " << static_cast<int>(algorithm);
  }
  {
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kSPPJF;
    options.threads = 8;
    EXPECT_TRUE(SameResults(RunSTPSJoin(lhs, join, options),
                            RunSTPSJoin(rhs, join, options), 0.0));
  }
  {
    STPSQuery sketch = join;
    sketch.sketch.enabled = true;
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kSPPJF;
    EXPECT_TRUE(SameResults(RunSTPSJoin(lhs, sketch, options),
                            RunSTPSJoin(rhs, sketch, options), 0.0));
    EXPECT_TRUE(SameResults(RunSTPSJoin(lhs, sketch, options), brute_l, 0.0));
  }

  TopKQuery topk;
  topk.eps_loc = 0.15;
  topk.eps_doc = 0.25;
  topk.k = 5;
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kF, TopKAlgorithm::kP, TopKAlgorithm::kAuto}) {
    EXPECT_TRUE(SameResults(RunTopKSTPSJoin(lhs, topk, algorithm),
                            RunTopKSTPSJoin(rhs, topk, algorithm), 0.0))
        << "topk algorithm " << static_cast<int>(algorithm);
  }
  {
    TopKQuery parallel = topk;
    parallel.parallel.num_threads = 2;
    EXPECT_TRUE(
        SameResults(RunTopKSTPSJoin(lhs, parallel, TopKAlgorithm::kP),
                    RunTopKSTPSJoin(rhs, parallel, TopKAlgorithm::kP), 0.0));
  }

  // The single-user probe must agree with the brute join's rows.
  for (UserId u = 0; u < lhs.num_users(); ++u) {
    std::vector<ScoredUserPair> expected;
    for (const ScoredUserPair& pair : brute_l) {
      if (pair.a == u || pair.b == u) expected.push_back(pair);
    }
    std::sort(expected.begin(), expected.end(), TopKBetter);
    EXPECT_TRUE(SameResults(FindSimilarUsers(lhs, u, join), expected, 0.0));
  }
}

TEST(UpdatableDatabaseTest, StartsAtEmptyEpochZero) {
  UpdatableDatabase db;
  const auto snapshot = db.snapshot();
  EXPECT_EQ(snapshot->epoch, 0u);
  EXPECT_EQ(snapshot->db.num_objects(), 0u);
  EXPECT_EQ(snapshot->db.num_users(), 0u);
  EXPECT_TRUE(snapshot->db.has_planner_stats());
  EXPECT_FALSE(db.dirty());
  // Queries on the empty epoch are well-defined.
  STPSQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.2;
  query.eps_u = 0.2;
  EXPECT_TRUE(RunSTPSJoin(snapshot->db, query).empty());
}

TEST(UpdatableDatabaseTest, InsertPublishDeleteRoundTrip) {
  UpdatableDatabase db;
  RawObject a{"alice", {0.1, 0.1}, {"coffee", "park"}, 0.0};
  RawObject b{"bob", {0.11, 0.1}, {"coffee"}, 0.0};
  db.InsertObject(a);
  db.InsertObject(b);
  EXPECT_TRUE(db.dirty());
  EXPECT_EQ(db.live_objects(), 2u);
  EXPECT_EQ(db.epoch(), 0u);  // nothing published yet

  const auto before = db.snapshot();
  const auto published = db.Publish();
  EXPECT_EQ(published->epoch, 1u);
  EXPECT_EQ(published->db.num_objects(), 2u);
  EXPECT_EQ(published->db.num_users(), 2u);
  EXPECT_FALSE(db.dirty());
  // RCU: the pre-publish snapshot is untouched.
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_EQ(before->db.num_objects(), 0u);

  EXPECT_TRUE(db.DeleteUser("alice"));
  EXPECT_FALSE(db.DeleteUser("alice"));    // already gone
  EXPECT_FALSE(db.DeleteUser("charlie"));  // never existed
  EXPECT_EQ(db.live_objects(), 1u);
  EXPECT_EQ(db.live_users(), 1u);
  // The published snapshot still serves the old view until re-publish.
  EXPECT_EQ(db.snapshot()->db.num_objects(), 2u);
  const auto next = db.Publish();
  EXPECT_EQ(next->epoch, 2u);
  EXPECT_EQ(next->db.num_objects(), 1u);
  EXPECT_EQ(next->db.UserName(0), "bob");

  // Deleting every user publishes back down to an empty database.
  EXPECT_TRUE(db.DeleteUser("bob"));
  EXPECT_EQ(db.Publish()->db.num_objects(), 0u);

  // A deleted user can check in again.
  db.InsertObject(a);
  const auto again = db.Publish();
  EXPECT_EQ(again->db.num_users(), 1u);
  EXPECT_EQ(again->db.UserName(0), "alice");
}

TEST(UpdatableDatabaseTest, PublishIfDirtyAndThreshold) {
  UpdateOptions options;
  options.publish_threshold = 3;
  UpdatableDatabase db(options);
  RawObject a{"alice", {0.1, 0.1}, {"coffee"}, 0.0};
  db.InsertObject(a);
  db.InsertObject(a);
  EXPECT_EQ(db.epoch(), 0u);  // below threshold
  db.InsertObject(a);
  EXPECT_EQ(db.epoch(), 1u);  // third mutation auto-published
  EXPECT_FALSE(db.dirty());
  const PublishResult clean = db.PublishIfDirty();
  EXPECT_EQ(clean.snapshot->epoch, 1u);  // no-op when clean
  EXPECT_FALSE(clean.published);
  db.InsertObject(a);
  const PublishResult published = db.PublishIfDirty();
  EXPECT_EQ(published.snapshot->epoch, 2u);
  EXPECT_TRUE(published.published);
  EXPECT_GE(published.publish_ms, 0.0);
}

TEST(UpdatableDatabaseTest, SeedFromDatabaseIsEquivalent) {
  testing_util::RandomDbSpec spec;
  spec.num_users = 20;
  spec.seed = 7;
  const ObjectDatabase original = testing_util::BuildRandomDatabase(spec);
  UpdatableDatabase db;
  db.SeedFrom(original);
  const auto snapshot = db.snapshot();
  ASSERT_EQ(snapshot->db.num_objects(), original.num_objects());
  ASSERT_EQ(snapshot->db.num_users(), original.num_users());
  for (UserId u = 0; u < original.num_users(); ++u) {
    EXPECT_EQ(snapshot->db.UserName(u), original.UserName(u));
  }
  ExpectSameJoins(snapshot->db, original);
}

// The differential interleaving fuzz: random insert/delete streams, with
// publishes compared against the rebuild-from-survivors oracle across
// all join and top-k variants.
void RunDifferential(uint64_t seed, const UpdateOptions& options,
                     size_t rounds, size_t compare_every) {
  Rng rng(seed);
  UpdatableDatabase db(options);
  std::vector<RawObject> log;
  std::vector<bool> deleted;

  for (size_t round = 1; round <= rounds; ++round) {
    if (!log.empty() && rng.Bernoulli(0.3)) {
      // Delete a random user (sometimes one that is already gone).
      const std::string victim =
          "user" + std::to_string(rng.NextBelow(12));
      bool any_live = false;
      for (size_t i = 0; i < log.size(); ++i) {
        if (!deleted[i] && log[i].user == victim) any_live = true;
      }
      EXPECT_EQ(db.DeleteUser(victim), any_live);
      for (size_t i = 0; i < log.size(); ++i) {
        if (log[i].user == victim) deleted[i] = true;
      }
    } else {
      const size_t batch = 1 + rng.NextBelow(5);
      std::vector<RawObject> objects;
      for (size_t i = 0; i < batch; ++i) {
        objects.push_back(RandomRaw(&rng, 12, 18));
        log.push_back(objects.back());
        deleted.push_back(false);
      }
      db.InsertObjects(std::span<const RawObject>(objects));
    }

    if (round % compare_every == 0 || round == rounds) {
      const auto snapshot = db.PublishIfDirty().snapshot;
      const ObjectDatabase oracle = BuildOracle(log, deleted);
      ASSERT_EQ(snapshot->db.num_objects(), oracle.num_objects());
      ASSERT_EQ(snapshot->db.num_users(), oracle.num_users());
      for (UserId u = 0; u < oracle.num_users(); ++u) {
        ASSERT_EQ(snapshot->db.UserName(u), oracle.UserName(u));
      }
      ExpectSameJoins(snapshot->db, oracle);
    }
  }
}

TEST(UpdatableDatabaseTest, DifferentialInterleavings) {
  RunDifferential(/*seed=*/11, UpdateOptions{}, /*rounds=*/24,
                  /*compare_every=*/8);
}

TEST(UpdatableDatabaseTest, DifferentialWithEagerCompaction) {
  UpdateOptions options;
  options.compact_fraction = 0.0;  // compact on every delete
  RunDifferential(/*seed=*/13, options, /*rounds=*/24, /*compare_every=*/8);
}

TEST(UpdatableDatabaseTest, DifferentialWithAutoPublish) {
  UpdateOptions options;
  options.publish_threshold = 7;
  RunDifferential(/*seed=*/17, options, /*rounds=*/20, /*compare_every=*/10);
}

TEST(UpdatableDatabaseTest, CompactionReclaimsAndPreservesResults) {
  UpdateOptions options;
  options.compact_fraction = 0.1;
  UpdatableDatabase db(options);
  Rng rng(23);
  std::vector<RawObject> log;
  std::vector<bool> deleted;
  // Insert-heavy phase, then delete most users: forces both arena and
  // slot compactions through the 10% threshold.
  for (size_t i = 0; i < 120; ++i) {
    log.push_back(RandomRaw(&rng, 10, 16));
    deleted.push_back(false);
    db.InsertObject(log.back());
  }
  for (size_t u = 0; u < 10; u += 2) {
    const std::string victim = "user" + std::to_string(u);
    db.DeleteUser(victim);
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].user == victim) deleted[i] = true;
    }
  }
  const UpdateStats stats = db.stats();
  EXPECT_GT(stats.arena_compactions + stats.slot_compactions, 0u);
  const auto snapshot = db.Publish();
  const ObjectDatabase oracle = BuildOracle(log, deleted);
  ASSERT_EQ(snapshot->db.num_objects(), oracle.num_objects());
  ExpectSameJoins(snapshot->db, oracle);

  // Freed slots are actually reused: inserting after the deletes does
  // not grow the store past its prior footprint.
  const size_t live_before = db.live_objects();
  db.InsertObject(RandomRaw(&rng, 10, 16));
  EXPECT_EQ(db.live_objects(), live_before + 1);
}

// TSan target: concurrent readers run joins on their snapshots while a
// writer inserts, deletes, and publishes. Readers check internal
// consistency (index join == brute force on the same snapshot) and that
// epochs never move backwards.
TEST(UpdatableDatabaseConcurrencyTest, ReadersNeverBlockOrTear) {
  UpdateOptions options;
  options.publish_threshold = 5;
  UpdatableDatabase db(options);
  {
    Rng seed_rng(31);
    std::vector<RawObject> initial;
    for (size_t i = 0; i < 40; ++i) initial.push_back(RandomRaw(&seed_rng, 8, 14));
    db.InsertObjects(std::span<const RawObject>(initial));
    db.Publish();
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &stop, &failures, r] {
      uint64_t last_epoch = 0;
      STPSQuery query;
      query.eps_loc = 0.15;
      query.eps_doc = 0.25;
      query.eps_u = 0.2;
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

  std::thread writer([&db] {
    Rng rng(37);
    for (size_t i = 0; i < 60; ++i) {
      if (rng.Bernoulli(0.25)) {
        db.DeleteUser("user" + std::to_string(rng.NextBelow(8)));
      } else {
        db.InsertObject(RandomRaw(&rng, 8, 14));
      }
      if (i % 10 == 9) db.Publish();
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(db.epoch(), 6u);
}

// Two concurrent writers plus a deleter: the store serialises mutations
// without losing or duplicating objects.
TEST(UpdatableDatabaseConcurrencyTest, ConcurrentWritersSerialise) {
  UpdatableDatabase db;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&db, w] {
      for (int i = 0; i < 50; ++i) {
        RawObject object;
        object.user = "writer" + std::to_string(w);
        object.loc = {0.1 * w, 0.1};
        object.keywords = {"kw" + std::to_string(i % 5)};
        db.InsertObject(object);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(db.live_objects(), 100u);
  const auto snapshot = db.Publish();
  EXPECT_EQ(snapshot->db.num_objects(), 100u);
  EXPECT_EQ(snapshot->db.num_users(), 2u);
  EXPECT_TRUE(db.DeleteUser("writer0"));
  EXPECT_EQ(db.Publish()->db.num_objects(), 50u);
}

}  // namespace
}  // namespace stps
