#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/user_grid.h"
#include "test_util.h"
#include "text/token_set.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

class LeafIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(LeafIndexTest, UserLeavesPartitionTheUserObjects) {
  const int fanout = GetParam();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const LeafPartitionIndex index(db, 0.05, fanout);
  EXPECT_GT(index.num_leaves(), 0u);
  for (UserId u = 0; u < db.num_users(); ++u) {
    size_t total = 0;
    int64_t prev = -1;
    for (const UserPartition& leaf : index.UserLeaves(u)) {
      EXPECT_GT(leaf.id, prev);
      prev = leaf.id;
      EXPECT_LT(static_cast<size_t>(leaf.id), index.num_leaves());
      EXPECT_FALSE(leaf.objects.empty());
      for (const ObjectRef& ref : leaf.objects) {
        EXPECT_EQ(ref.object->user, u);
        EXPECT_EQ(db.LocalIndex(*ref.object), ref.local);
      }
      total += leaf.objects.size();
    }
    EXPECT_EQ(total, db.UserObjectCount(u));
  }
}

TEST_P(LeafIndexTest, TokenUsersAreSortedAndComplete) {
  const int fanout = GetParam();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const LeafPartitionIndex index(db, 0.05, fanout);
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (const UserPartition& leaf : index.UserLeaves(u)) {
      const TokenVector tokens =
          DistinctTokens(std::span<const ObjectRef>(leaf.objects));
      for (const TokenId t : tokens) {
        const std::vector<UserId>* users =
            index.TokenUsers(static_cast<uint32_t>(leaf.id), t);
        ASSERT_NE(users, nullptr);
        EXPECT_TRUE(std::is_sorted(users->begin(), users->end()));
        EXPECT_TRUE(std::binary_search(users->begin(), users->end(), u));
      }
    }
  }
}

TEST_P(LeafIndexTest, AdjacencyCoversEveryCloseObjectPair) {
  const int fanout = GetParam();
  const double eps_loc = 0.06;
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const LeafPartitionIndex index(db, eps_loc, fanout);
  // Locate each object's leaf.
  std::vector<uint32_t> leaf_of(db.num_objects(), 0);
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (const UserPartition& leaf : index.UserLeaves(u)) {
      for (const ObjectRef& ref : leaf.objects) {
        leaf_of[ref.object->id] = static_cast<uint32_t>(leaf.id);
      }
    }
  }
  // Every spatially-close object pair must live in adjacent leaves, and
  // both objects must lie inside the intersection of the extended MBRs
  // (the region PPJ-D restricts its joins to).
  for (ObjectId a = 0; a < db.num_objects(); ++a) {
    for (ObjectId b = a + 1; b < db.num_objects(); ++b) {
      const STObject& oa = db.object(a);
      const STObject& ob = db.object(b);
      if (!WithinDistance(oa.loc, ob.loc, eps_loc)) continue;
      const uint32_t la = leaf_of[a], lb = leaf_of[b];
      const auto& relevant = index.RelevantLeaves(la);
      ASSERT_TRUE(std::binary_search(relevant.begin(), relevant.end(), lb))
          << "close objects in non-adjacent leaves";
      const Rect box =
          index.ExtendedMbr(la).Intersection(index.ExtendedMbr(lb));
      EXPECT_TRUE(box.Contains(oa.loc));
      EXPECT_TRUE(box.Contains(ob.loc));
    }
  }
}

TEST_P(LeafIndexTest, PPJDPairEqualsExactSigma) {
  const int fanout = GetParam();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const MatchThresholds t{0.06, 0.3};
  const LeafPartitionIndex index(db, t.eps_loc, fanout);
  for (UserId a = 0; a < 15 && a < db.num_users(); ++a) {
    for (UserId b = a + 1; b < 15 && b < db.num_users(); ++b) {
      const double expected =
          ExactSigma(db.UserObjects(a), db.UserObjects(b), t);
      const size_t matched =
          ExactSigmaMatched(db.UserObjects(a), db.UserObjects(b), t);
      const size_t total = db.UserObjectCount(a) + db.UserObjectCount(b);
      const double unbounded =
          PPJDPair(index.UserLeaves(a), db.UserObjectCount(a),
                   index.UserLeaves(b), db.UserObjectCount(b), index, t,
                   /*eps_u=*/0.0);
      ASSERT_DOUBLE_EQ(unbounded, expected);
      // Bounded: exact when the pair truly meets eps_u, pruned to 0
      // otherwise. The decision is the exact counting predicate — a
      // rounded-quotient oracle (expected >= eps_u) would be wrong when
      // matched/total rounds up across the threshold (e.g. sigma = 1/5
      // rounds to a double above 0.2, yet 1/5 < the double 0.2).
      for (const double eps_u : {0.2, 0.5}) {
        const double bounded =
            PPJDPair(index.UserLeaves(a), db.UserObjectCount(a),
                     index.UserLeaves(b), db.UserObjectCount(b), index, t,
                     eps_u);
        if (SigmaAtLeast(matched, total, eps_u)) {
          ASSERT_DOUBLE_EQ(bounded, expected);
        } else {
          ASSERT_EQ(bounded, 0.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, LeafIndexTest,
                         ::testing::Values(4, 16, 64, 200));

// The processing orders the drivers build the index with: user ids
// (S-PPJ-F) and ascending |Du| with id ties (TOPK-S-PPJ-F/-P).
std::vector<std::vector<UserId>> ProcessingOrders(const ObjectDatabase& db) {
  std::vector<UserId> identity(db.num_users());
  std::iota(identity.begin(), identity.end(), 0u);
  std::vector<UserId> by_size = identity;
  std::stable_sort(by_size.begin(), by_size.end(), [&db](UserId a, UserId b) {
    return db.UserObjectCount(a) < db.UserObjectCount(b);
  });
  return {identity, by_size};
}

struct GridIndexCase {
  uint64_t seed;
  double eps_loc;
};

void PrintTo(const GridIndexCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", eps_loc " << c.eps_loc;
}

class SpatioTextualGridIndexTest
    : public ::testing::TestWithParam<GridIndexCase> {
 protected:
  ObjectDatabase BuildDb() const {
    RandomDbSpec spec;
    spec.seed = GetParam().seed;
    spec.min_tokens = 0;  // some objects carry no keyword at all
    return BuildRandomDatabase(spec);
  }
};

TEST_P(SpatioTextualGridIndexTest, ListsEqualNaiveReference) {
  const ObjectDatabase db = BuildDb();
  const UserGrid grid(db, GetParam().eps_loc);
  for (const std::vector<UserId>& order : ProcessingOrders(db)) {
    const SpatioTextualGridIndex index(grid, order);
    // Reference: (cell, token) -> users and cell -> users, appended in
    // processing order.
    std::map<std::pair<CellId, TokenId>, std::vector<UserId>> token_users;
    std::map<CellId, std::vector<UserId>> cell_users;
    for (uint32_t r = 0; r < order.size(); ++r) {
      ASSERT_EQ(index.Rank(order[r]), r);
      for (const UserPartition& cell : grid.UserCells(order[r])) {
        cell_users[cell.id].push_back(order[r]);
        for (const TokenId t :
             DistinctTokens(std::span<const ObjectRef>(cell.objects))) {
          token_users[{cell.id, t}].push_back(order[r]);
        }
      }
    }
    ASSERT_EQ(index.num_cells(), cell_users.size());
    for (const auto& [cell, users] : cell_users) {
      const uint32_t slot = index.FindCell(cell);
      ASSERT_NE(slot, SpatioTextualGridIndex::kNoSlot);
      const std::span<const UserId> got = index.CellUsers(slot);
      EXPECT_EQ(std::vector<UserId>(got.begin(), got.end()), users);
      // The cell's token run: exactly the reference's tokens of this
      // cell, ascending, each with its user list.
      std::vector<TokenId> expected_tokens;
      for (auto it = token_users.lower_bound({cell, 0});
           it != token_users.end() && it->first.first == cell; ++it) {
        expected_tokens.push_back(it->first.second);
      }
      const std::span<const TokenId> tokens = index.CellTokens(slot);
      ASSERT_EQ(std::vector<TokenId>(tokens.begin(), tokens.end()),
                expected_tokens);
      for (size_t i = 0; i < tokens.size(); ++i) {
        const std::span<const UserId> entry = index.TokenUsers(slot, i);
        EXPECT_EQ(std::vector<UserId>(entry.begin(), entry.end()),
                  token_users.at({cell, tokens[i]}));
      }
    }
  }
}

TEST(SpatioTextualGridIndexCellUsersTest, IncludeTokenlessObjects) {
  // "b"'s only object in the shared cell carries no keyword: it has no
  // token entry there, yet the spatial/textual breakdown must see it.
  DatabaseBuilder builder;
  const std::vector<std::string> cafe = {"cafe"};
  const std::vector<std::string> none;
  builder.AddObject("a", Point{0.25, 0.25}, std::span<const std::string>(cafe));
  builder.AddObject("b", Point{0.26, 0.25}, std::span<const std::string>(none));
  builder.AddObject("b", Point{0.9, 0.9}, std::span<const std::string>(cafe));
  const ObjectDatabase db = std::move(builder).Build();
  const UserGrid grid(db, 0.1);
  const SpatioTextualGridIndex index(grid, std::vector<UserId>{0, 1});
  const CellId shared = grid.geometry().CellOf(Point{0.25, 0.25});
  const uint32_t slot = index.FindCell(shared);
  ASSERT_NE(slot, SpatioTextualGridIndex::kNoSlot);
  const std::span<const UserId> users = index.CellUsers(slot);
  EXPECT_EQ(std::vector<UserId>(users.begin(), users.end()),
            (std::vector<UserId>{0, 1}));
  ASSERT_EQ(index.CellTokens(slot).size(), 1u);
  const std::span<const UserId> cafe_users = index.TokenUsers(slot, 0);
  EXPECT_EQ(std::vector<UserId>(cafe_users.begin(), cafe_users.end()),
            (std::vector<UserId>{0}));
  // The co-location count sees "a" from "b"; the token probe does not.
  UserCandidateTable<CandidateCells> candidates;
  candidates.BeginRound(db.num_users());
  size_t colocated = 0;
  CollectCandidates(grid.geometry(), index, grid.UserCells(1), 1,
                    &candidates, nullptr, &colocated);
  EXPECT_EQ(candidates.size(), 0u);
  EXPECT_EQ(colocated, 1u);
}

TEST_P(SpatioTextualGridIndexTest, FindCellMissesAbsentIds) {
  const ObjectDatabase db = BuildDb();
  const UserGrid grid(db, GetParam().eps_loc);
  const GridGeometry& geometry = grid.geometry();
  const SpatioTextualGridIndex index(grid, ProcessingOrders(db)[0]);
  constexpr uint32_t kNone = SpatioTextualGridIndex::kNoSlot;
  EXPECT_EQ(index.FindCell(-1), kNone);
  EXPECT_EQ(index.FindCell(-1234567), kNone);
  EXPECT_EQ(index.FindCell(std::numeric_limits<CellId>::min()), kNone);
  const CellId past = geometry.columns() * geometry.rows();
  EXPECT_EQ(index.FindCell(past), kNone);
  EXPECT_EQ(index.FindCell(past + 1), kNone);
  EXPECT_EQ(index.FindCell(std::numeric_limits<CellId>::max()), kNone);
  std::set<CellId> occupied;
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (const UserPartition& cell : grid.UserCells(u)) {
      occupied.insert(cell.id);
    }
  }
  std::vector<CellId> neighbors;
  for (const CellId cell : occupied) {
    neighbors.clear();
    geometry.AppendNeighborhood(cell, /*include_self=*/false, &neighbors);
    for (const CellId n : neighbors) {
      if (occupied.count(n) == 0) {
        EXPECT_EQ(index.FindCell(n), kNone);
      }
    }
  }
}

// S-PPJ-F's filter counters against a brute-force oracle over object
// pairs: a filter returning extra candidates keeps results exact and only
// costs time, so no result comparison would catch it.
TEST_P(SpatioTextualGridIndexTest, FilterCountersEqualBruteForceCounts) {
  const ObjectDatabase db = BuildDb();
  const STPSQuery query{GetParam().eps_loc, 0.3, 0.3};
  const GridGeometry geometry = UserGrid(db, query.eps_loc).geometry();
  const auto adjacent = [&geometry](const STObject& a, const STObject& b) {
    return std::abs(geometry.ColumnOf(a.loc) - geometry.ColumnOf(b.loc)) <=
               1 &&
           std::abs(geometry.RowOf(a.loc) - geometry.RowOf(b.loc)) <= 1;
  };
  uint64_t share_token = 0;  // v < u sharing a token in adjacent cells
  uint64_t apart = 0;        // v < u with no objects in adjacent cells
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (UserId v = 0; v < u; ++v) {
      bool near = false;
      bool shared = false;
      for (const STObject& a : db.UserObjects(u)) {
        for (const STObject& b : db.UserObjects(v)) {
          if (!adjacent(a, b)) continue;
          near = true;
          for (const TokenId t : a.doc) {
            if (std::find(b.doc.begin(), b.doc.end(), t) != b.doc.end()) {
              shared = true;
            }
          }
        }
      }
      share_token += shared ? 1 : 0;
      apart += near ? 0 : 1;
    }
  }
  JoinStats stats;
  SPPJF(db, query, &stats);
  EXPECT_EQ(stats.pairs_candidate, share_token);
  EXPECT_EQ(stats.pairs_pruned_spatial, apart);
  const uint64_t pairs = db.num_users() * (db.num_users() - 1) / 2;
  EXPECT_EQ(stats.pairs_pruned_textual, pairs - apart - share_token);
}

// eps_loc 10 makes one cell cover the whole unit world.
INSTANTIATE_TEST_SUITE_P(
    SeedsAndCells, SpatioTextualGridIndexTest,
    ::testing::Values(GridIndexCase{1, 0.05}, GridIndexCase{2, 0.02},
                      GridIndexCase{3, 0.1}, GridIndexCase{4, 0.005},
                      GridIndexCase{5, 10.0}));

}  // namespace
}  // namespace stps
