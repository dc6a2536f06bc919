#include "core/database.h"

#include <algorithm>
#include <numeric>

#include "planner/planner_stats.h"
#include "spatial/batch.h"
#include "text/token_set.h"

namespace stps {

namespace {

template <typename StringLike>
void AddObjectImpl(std::unordered_map<std::string, uint32_t>* user_index,
                   std::vector<std::string>* user_names,
                   Dictionary* dictionary, std::string_view user_key,
                   std::span<const StringLike> keywords, uint32_t* out_user,
                   TokenVector* out_tokens) {
  auto [it, inserted] =
      user_index->try_emplace(std::string(user_key),
                              static_cast<uint32_t>(user_names->size()));
  if (inserted) user_names->emplace_back(user_key);
  *out_user = it->second;
  out_tokens->clear();
  out_tokens->reserve(keywords.size());
  for (const auto& kw : keywords) {
    out_tokens->push_back(
        dictionary->Intern(std::string_view(kw), /*count_occurrence=*/false));
  }
  // Document frequency counts each token once per object.
  NormalizeTokenSet(out_tokens);
  for (const TokenId t : *out_tokens) dictionary->CountOccurrence(t);
}

}  // namespace

void DatabaseBuilder::AddObject(std::string_view user_key, Point loc,
                                std::span<const std::string_view> keywords,
                                double time) {
  PendingObject obj;
  obj.loc = loc;
  obj.time = time;
  AddObjectImpl(&user_index_, &user_names_, &dictionary_, user_key, keywords,
                &obj.user, &obj.tokens);
  objects_.push_back(std::move(obj));
}

void DatabaseBuilder::AddObject(std::string_view user_key, Point loc,
                                std::span<const std::string> keywords,
                                double time) {
  PendingObject obj;
  obj.loc = loc;
  obj.time = time;
  AddObjectImpl(&user_index_, &user_names_, &dictionary_, user_key, keywords,
                &obj.user, &obj.tokens);
  objects_.push_back(std::move(obj));
}

ObjectDatabase DatabaseBuilder::Build() && {
  ObjectDatabase db;
  const std::vector<TokenId> permutation = dictionary_.FinalizeByFrequency();
  db.dictionary_ = std::move(dictionary_);
  db.user_names_ = StringTable(std::move(user_names_), std::move(user_index_));

  const size_t num_users = db.user_names_.size();
  const size_t n = objects_.size();
  // Bounds first: the Z-order keys quantize against them.
  for (const PendingObject& o : objects_) db.bounds_.ExpandToInclude(o.loc);

  // Per-user slot ranges (users keep their dense-id order).
  std::vector<uint32_t> counts(num_users, 0);
  for (const PendingObject& o : objects_) ++counts[o.user];
  std::vector<uint32_t> user_begin(num_users + 1, 0);
  for (size_t u = 0; u < num_users; ++u) {
    user_begin[u + 1] = user_begin[u] + counts[u];
  }
  db.user_begin_ = std::move(user_begin);

  // Physical slot order: (user, Morton key), stable so equal-key objects
  // keep their insertion order. `order[slot]` is the AddObject sequence
  // number landing in that slot — the permutation table we also publish.
  std::vector<uint64_t> zkey(n);
  for (size_t k = 0; k < n; ++k) {
    zkey[k] = ZOrderKey(db.bounds_, objects_[k].loc);
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [this, &zkey](uint32_t a, uint32_t b) {
                     if (objects_[a].user != objects_[b].user) {
                       return objects_[a].user < objects_[b].user;
                     }
                     return zkey[a] < zkey[b];
                   });

  // Pass 1: walk the slots in order, remap each object's tokens into the
  // frequency order (Remap re-sorts, keeping the set canonical), size the
  // CSR arena with a prefix sum over slots, and copy the tokens in. The
  // arena is complete before it moves into its column: pass 2's doc spans
  // point at the column's final storage.
  std::vector<uint32_t> token_begin(n + 1, 0);
  for (size_t slot = 0; slot < n; ++slot) {
    PendingObject& o = objects_[order[slot]];
    Dictionary::Remap(permutation, &o.tokens);
    token_begin[slot + 1] = static_cast<uint32_t>(o.tokens.size());
  }
  for (size_t i = 0; i < n; ++i) {
    token_begin[i + 1] += token_begin[i];
  }
  std::vector<TokenId> token_data(token_begin.back());
  for (size_t slot = 0; slot < n; ++slot) {
    const PendingObject& o = objects_[order[slot]];
    std::copy(o.tokens.begin(), o.tokens.end(),
              token_data.begin() + token_begin[slot]);
  }
  db.token_begin_ = std::move(token_begin);
  db.token_data_ = std::move(token_data);

  // Pass 2: point every object's doc span (plus its bitmap signature) at
  // its contiguous arena run, and mirror the slot into the SoA arrays the
  // batch kernels stream.
  std::vector<double> xs(n), ys(n);
  std::vector<UserId> users(n);
  std::vector<TokenSignature> sigs(n);
  db.objects_.resize(n);
  for (size_t slot = 0; slot < n; ++slot) {
    const PendingObject& o = objects_[order[slot]];
    STObject& out = db.objects_[slot];
    out.id = static_cast<ObjectId>(slot);
    out.user = o.user;
    out.loc = o.loc;
    out.time = o.time;
    out.set_doc(db.ObjectTokens(slot));
    xs[slot] = o.loc.x;
    ys[slot] = o.loc.y;
    users[slot] = o.user;
    sigs[slot] = out.sig;
  }
  db.xs_ = std::move(xs);
  db.ys_ = std::move(ys);
  db.users_ = std::move(users);
  db.sigs_ = std::move(sigs);
  db.insertion_order_ = std::move(order);
  objects_.clear();
  // Planner statistics read the finished database, so they are the last
  // construction step; caching them here is what lets
  // ComputeDatasetStats and the query planner skip their own scans (and
  // io/binary.cc serialize the summary).
  db.planner_stats_ =
      std::make_shared<const PlannerStats>(ComputePlannerStats(db));
  return db;
}

}  // namespace stps
