#include "serve/top_k_server.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/facet_store.h"
#include "common/thread_pool.h"
#include "core/mar.h"
#include "core/mars.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "models/cml.h"
#include "models/lrml.h"
#include "models/metricf.h"
#include "models/recommender.h"
#include "models/sml.h"
#include "models/transcf.h"
#include "serve/write_tracker.h"

namespace mars {
namespace {

/// Brute-force reference: ScoreItems over the whole catalog, ranked
/// (score desc, id asc) — the ordering TopKServer pins.
std::pair<std::vector<ItemId>, std::vector<float>> BruteForceTopK(
    const ItemScorer& scorer, UserId u, size_t num_items, size_t k,
    const ImplicitDataset* exclude = nullptr) {
  std::vector<ItemId> ids;
  for (ItemId v = 0; v < num_items; ++v) {
    if (exclude != nullptr && exclude->HasInteraction(u, v)) continue;
    ids.push_back(v);
  }
  std::vector<float> scores(ids.size());
  scorer.ScoreItems(u, ids, scores.data());
  std::vector<std::pair<float, ItemId>> ranked(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) ranked[i] = {scores[i], ids[i]};
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  ranked.resize(std::min(k, ranked.size()));
  std::vector<ItemId> top;
  std::vector<float> top_scores;
  for (const auto& [s, v] : ranked) {
    top.push_back(v);
    top_scores.push_back(s);
  }
  return {top, top_scores};
}

/// Deterministic synthetic scorer for cache-logic tests; `bias` simulates
/// a model whose weights moved.
class ToyScorer : public ItemScorer {
 public:
  explicit ToyScorer(float bias = 0.0f) : bias_(bias) {}
  float Score(UserId u, ItemId v) const override {
    return bias_ + static_cast<float>((v * 37 + u * 11) % 101);
  }

 private:
  float bias_;
};

std::shared_ptr<ImplicitDataset> SmallDataset(size_t users = 60,
                                              size_t items = 150) {
  SyntheticConfig cfg;
  cfg.num_users = users;
  cfg.num_items = items;
  cfg.target_interactions = users * 12;
  cfg.num_facets = 3;
  cfg.seed = 7;
  return GenerateSyntheticDataset(cfg);
}

TrainOptions QuickTrain() {
  TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 0.1;
  options.seed = 42;
  return options;
}

void ExpectServerMatchesBruteForce(Recommender* model,
                                   const ImplicitDataset& data) {
  const size_t k = 7;
  TopKServerOptions opts;
  opts.k = k;
  opts.sweep_shards = 5;  // force a multi-shard merge even without a pool
  TopKServer server(UnownedSnapshot(model), data.num_users(), data.num_items(),
                    opts);
  for (UserId u = 0; u < 8; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(*model, u, data.num_items(), k);
    const TopKResponse got = server.TopK(u);
    ASSERT_EQ(got.items.size(), want_items.size()) << model->name();
    for (size_t i = 0; i < want_items.size(); ++i) {
      EXPECT_EQ(got.items[i], want_items[i])
          << model->name() << " user " << u << " rank " << i;
      EXPECT_EQ(got.scores[i], want_scores[i])
          << model->name() << " user " << u << " rank " << i;
    }
  }
}

TEST(TopKServerModelEquivalence, Mars) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 4;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MarsSingleFacet) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 1;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MarFree) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kFree);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MarProjected) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kProjected);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Bpr) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Cml) {
  const auto data = SmallDataset();
  Cml model(CmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Sml) {
  const auto data = SmallDataset();
  Sml model(SmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MetricF) {
  const auto data = SmallDataset();
  MetricF model(MetricFConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, TransCf) {
  const auto data = SmallDataset();
  TransCf model(TransCfConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Lrml) {
  const auto data = SmallDataset();
  Lrml model(LrmlConfig{.dim = 16, .memory_slots = 4});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerTest, ParallelSweepMatchesSerial) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());

  ThreadPool pool(3);
  TopKServerOptions par;
  par.k = 9;
  par.pool = &pool;
  par.sweep_shards = 6;
  TopKServer parallel_server(UnownedSnapshot(&model), data->num_users(),
                             data->num_items(), par);
  TopKServerOptions ser;
  ser.k = 9;
  TopKServer serial_server(UnownedSnapshot(&model), data->num_users(),
                           data->num_items(), ser);

  for (UserId u = 0; u < 10; ++u) {
    const TopKResponse a = parallel_server.TopK(u);
    const TopKResponse b = serial_server.TopK(u);
    EXPECT_EQ(a.items, b.items) << "user " << u;
    EXPECT_EQ(a.scores, b.scores) << "user " << u;
  }
}

TEST(TopKServerTest, NonThreadSafeModelIsSweptSeriallyAndCorrectly) {
  // A pool is configured but the scorer declares thread_safe() == false
  // (internal scratch): the sweep must fall back to serial — same guard
  // the evaluator applies — and still produce the pinned ranking.
  class ScratchScorer : public ToyScorer {
   public:
    bool thread_safe() const override { return false; }
  };
  ScratchScorer scorer;
  ThreadPool pool(3);
  TopKServerOptions opts;
  opts.k = 6;
  opts.pool = &pool;
  opts.sweep_shards = 4;
  TopKServer server(UnownedSnapshot(&scorer), 10, 40, opts);
  const auto [want_items, want_scores] = BruteForceTopK(scorer, 1, 40, 6);
  const TopKResponse got = server.TopK(1);
  EXPECT_EQ(got.items, want_items);
  EXPECT_EQ(got.scores, want_scores);
}

TEST(TopKServerTest, KLargerThanCatalogReturnsWholeCatalogRanked) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 50;
  opts.sweep_shards = 4;
  TopKServer server(UnownedSnapshot(&scorer), /*num_users=*/10, /*num_items=*/5,
                    opts);
  const TopKResponse result = server.TopK(3);
  ASSERT_EQ(result.items.size(), 5u);
  const auto [want_items, want_scores] = BruteForceTopK(scorer, 3, 5, 50);
  EXPECT_EQ(result.items, want_items);
  EXPECT_EQ(result.scores, want_scores);
}

TEST(TopKServerTest, TiesBreakTowardSmallerItemId) {
  class ConstantScorer : public ItemScorer {
   public:
    float Score(UserId, ItemId) const override { return 1.0f; }
  };
  ConstantScorer scorer;
  TopKServerOptions opts;
  opts.k = 4;
  opts.sweep_shards = 3;
  TopKServer server(UnownedSnapshot(&scorer), 2, 20, opts);
  const TopKResponse result = server.TopK(0);
  EXPECT_EQ(result.items, (std::vector<ItemId>{0, 1, 2, 3}));
}

TEST(TopKServerTest, ExcludesInteractedItemsAndServesZeroInteractionUsers) {
  // User 0 interacted with items {1, 3}; user 2 never interacted at all.
  std::vector<Interaction> log = {
      {0, 1, 0}, {0, 3, 1}, {1, 0, 0}, {1, 4, 1}};
  ImplicitDataset data(/*num_users=*/3, /*num_items=*/6, std::move(log));
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 6;
  opts.exclude_interactions = &data;
  TopKServer server(UnownedSnapshot(&scorer), data.num_users(),
                    data.num_items(), opts);

  const TopKResponse seen = server.TopK(0);
  ASSERT_EQ(seen.items.size(), 4u);  // 6 items minus the 2 interacted
  for (ItemId v : seen.items) {
    EXPECT_FALSE(data.HasInteraction(0, v));
  }
  const auto [want, _] =
      BruteForceTopK(scorer, 0, data.num_items(), 6, &data);
  EXPECT_EQ(seen.items, want);

  // A user with zero interactions is served the full catalog.
  const TopKResponse cold = server.TopK(2);
  EXPECT_EQ(cold.items.size(), 6u);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_TRUE(server.TopK(2).from_cache);
}

TEST(TopKServerTest, CachesAndCountsHits) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  TopKServer server(UnownedSnapshot(&scorer), 20, 30, opts);
  EXPECT_FALSE(server.TopK(5).from_cache);
  EXPECT_TRUE(server.TopK(5).from_cache);
  EXPECT_TRUE(server.TopK(5).from_cache);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.cached_users, 1u);
}

TEST(TopKServerTest, LruEvictionBoundsTheCache) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 2;
  opts.cache.stripes = 1;  // one global LRU — the legacy eviction order
  TopKServer server(UnownedSnapshot(&scorer), 20, 30, opts);
  server.TopK(0);
  server.TopK(1);
  server.TopK(2);  // evicts user 0 (least recently used)
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_EQ(server.stats().cached_users, 2u);
  EXPECT_TRUE(server.TopK(2).from_cache);
  EXPECT_TRUE(server.TopK(1).from_cache);
  EXPECT_FALSE(server.TopK(0).from_cache);  // was evicted
}

TEST(TopKServerTest, StripedCacheDistributesTheBoundByUserShard) {
  // 4 stripes over 40 users: users 0-9 → stripe 0, 10-19 → stripe 1, …
  // Each stripe runs its own LRU over its share of the global bound, so
  // hammering one stripe never evicts another stripe's users.
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 4;
  opts.cache.stripes = 4;
  TopKServer server(UnownedSnapshot(&scorer), 40, 30, opts);
  ASSERT_EQ(server.num_cache_stripes(), 4u);
  server.TopK(35);  // stripe 3
  server.TopK(0);   // stripe 0
  server.TopK(1);   // stripe 0 — evicts user 0 (stripe 0's share is 1)
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_TRUE(server.TopK(35).from_cache);  // other stripe untouched
  EXPECT_TRUE(server.TopK(1).from_cache);
  EXPECT_FALSE(server.TopK(0).from_cache);
}

TEST(TopKServerTest, ZeroCapacityDisablesCaching) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 0;
  TopKServer server(UnownedSnapshot(&scorer), 20, 30, opts);
  EXPECT_FALSE(server.TopK(5).from_cache);
  EXPECT_FALSE(server.TopK(5).from_cache);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

TEST(TopKServerInvalidation, UserShardInvalidatesOnlyItsUsers) {
  ToyScorer scorer;
  const size_t users = 64;
  WriteTracker tracker(users, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;  // candidate lists must match the tracker's shards
  TopKServer server(UnownedSnapshot(&scorer), users, 30, opts);

  const UserId a = 0, b = 63;  // first and last shard
  ASSERT_NE(tracker.UserShardOf(a), tracker.UserShardOf(b));
  server.TopK(a);
  server.TopK(b);

  tracker.MarkUser(a);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 1u);
  EXPECT_FALSE(server.TopK(a).from_cache);  // dropped
  EXPECT_TRUE(server.TopK(b).from_cache);   // untouched shard survives

  // AbsorbWrites consumed the flags.
  EXPECT_FALSE(tracker.AnyDirty());
}

TEST(TopKServerInvalidation, DirtyItemShardRefreshesEntriesInPlace) {
  // A dirty item shard no longer drops cached entries: each surviving
  // entry re-scores just that shard and re-merges. With an unchanged
  // model the refreshed ranking must be identical, and the entries stay
  // warm (hits, not misses). Item 17 dirties the shard of user 0's top
  // item; item 27 *is* user 0's k-th item, re-scored unchanged, which the
  // refresh must keep rather than reject at its own cutoff.
  ToyScorer scorer;
  for (const ItemId dirty_item : {ItemId{17}, ItemId{27}}) {
    SCOPED_TRACE(dirty_item);
    WriteTracker tracker(64, 30, /*num_shards=*/8);
    TopKServerOptions opts;
    opts.k = 3;
    opts.cache.item_shards = 8;
    TopKServer server(UnownedSnapshot(&scorer), 64, 30, opts);
    const TopKResponse before0 = server.TopK(0);
    const TopKResponse before63 = server.TopK(63);

    tracker.MarkItem(dirty_item);
    server.AbsorbWrites(&tracker);
    EXPECT_EQ(server.stats().invalidated, 0u);
    EXPECT_EQ(server.stats().refreshed, 2u);
    // The cheap merge proved exactness (the model didn't change, so the
    // k-th rank held) — no entry was dropped for an unprovable merge.
    EXPECT_EQ(server.stats().refresh_drops, 0u);
    const TopKResponse after0 = server.TopK(0);
    EXPECT_TRUE(after0.from_cache);
    EXPECT_EQ(after0.items, before0.items);
    EXPECT_EQ(after0.scores, before0.scores);
    const TopKResponse after63 = server.TopK(63);
    EXPECT_TRUE(after63.from_cache);
    EXPECT_EQ(after63.items, before63.items);
  }
}

TEST(TopKServerInvalidation, EveryItemShardDirtyDropsInsteadOfRefreshing) {
  // Refreshing every shard costs the same as the cold sweep it would
  // save, so a fully dirty catalog (global-table writers MarkAllItems)
  // falls back to dropping and re-sweeping lazily.
  ToyScorer scorer;
  WriteTracker tracker(64, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(UnownedSnapshot(&scorer), 64, 30, opts);
  server.TopK(0);
  server.TopK(63);

  tracker.MarkAllItems();
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 2u);
  EXPECT_EQ(server.stats().refreshed, 0u);
  EXPECT_FALSE(server.TopK(0).from_cache);
  EXPECT_FALSE(server.TopK(63).from_cache);
}

TEST(TopKServerInvalidation, PrimedEntriesRefreshLikeSweptOnes) {
  // A primed entry that honors the sidecar pairing contract (it *is* the
  // current snapshot's top-k) refreshes in place exactly like one a sweep
  // produced — warm restarts stay warm across mostly-clean epochs.
  ToyScorer scorer;
  WriteTracker tracker(64, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(UnownedSnapshot(&scorer), 64, 30, opts);
  TopKServer reference(UnownedSnapshot(&scorer), 64, 30, opts);
  const TopKResponse truth = reference.TopK(5);
  ASSERT_TRUE(server.Prime(5, truth.items, truth.scores));
  const TopKResponse swept = server.TopK(40);  // real sweep alongside
  tracker.MarkItem(17);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 0u);
  EXPECT_EQ(server.stats().refreshed, 2u);
  const TopKResponse primed_after = server.TopK(5);
  EXPECT_TRUE(primed_after.from_cache);
  EXPECT_EQ(primed_after.items, truth.items);
  EXPECT_EQ(primed_after.scores, truth.scores);
  const TopKResponse after = server.TopK(40);
  EXPECT_TRUE(after.from_cache);
  EXPECT_EQ(after.items, swept.items);
}

TEST(TopKServerInvalidation, CleanTrackerInvalidatesNothing) {
  ToyScorer scorer;
  WriteTracker tracker(64, 30, 8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(UnownedSnapshot(&scorer), 64, 30, opts);
  server.TopK(7);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 0u);
  EXPECT_EQ(server.stats().refreshed, 0u);
  EXPECT_TRUE(server.TopK(7).from_cache);
}

TEST(TopKServerInvalidation, SnapshotVsLiveDivergenceAfterTrainingEpoch) {
  // The serving contract: the server ranks a quiesced snapshot, so after a
  // training epoch the live model diverges until AbsorbWrites+ReplaceModel
  // swap in the fresh snapshot. Simulated with two fits that differ by one
  // epoch (the second reports its writes through the real tracker hook).
  const auto data = SmallDataset(40, 80);
  Bpr before(BprConfig{.dim = 8});
  TrainOptions one_epoch = QuickTrain();
  one_epoch.epochs = 1;
  before.Fit(*data, one_epoch);

  WriteTracker tracker(data->num_users(), data->num_items());
  Bpr after(BprConfig{.dim = 8});
  TrainOptions two_epochs = QuickTrain();
  two_epochs.epochs = 2;
  two_epochs.write_tracker = &tracker;  // dirty-shard reporting from steps
  after.Fit(*data, two_epochs);
  EXPECT_TRUE(tracker.AnyDirty());

  TopKServerOptions opts;
  opts.k = 10;
  TopKServer server(UnownedSnapshot(&before), data->num_users(),
                    data->num_items(), opts);
  const UserId u = 3;
  const TopKResponse stale = server.TopK(u);

  // Live model moved, server not refreshed: still the old snapshot's view.
  const TopKResponse still_stale = server.TopK(u);
  EXPECT_TRUE(still_stale.from_cache);
  EXPECT_EQ(still_stale.scores, stale.scores);
  const auto [live_items, live_scores] =
      BruteForceTopK(after, u, data->num_items(), 10);
  EXPECT_NE(stale.scores, live_scores);  // genuine divergence

  // Publish: swap to the new snapshot *then* absorb the epoch's writes
  // (the epoch contract — refreshes must re-score against the new model).
  // Whether u's entry was dropped (its user shard dirty) or incrementally
  // refreshed, the served ranking must now be the new model's.
  server.ReplaceModel(UnownedSnapshot(&after));
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.epoch(), 1u);
  const TopKResponse fresh = server.TopK(u);
  EXPECT_EQ(fresh.items, live_items);
  EXPECT_EQ(fresh.scores, live_scores);
}

/// Wraps a frozen model and shifts the scores of items inside chosen item
/// ranges by a deterministic per-item amount (mixed signs) — a controlled
/// "epoch" whose score changes are confined to exactly those ranges, so a
/// tracker marking just their shards tells the truth. Shifts ride on top
/// of the wrapped model's own batch kernels, keeping the bit-equality
/// between ScoreItems (brute force) and ScoreItemRangeMulti (server sweep
/// and refresh).
class ShardShiftScorer : public ItemScorer {
 public:
  ShardShiftScorer(const ItemScorer* base, float delta,
                   std::vector<std::pair<ItemId, ItemId>> ranges)
      : base_(base), delta_(delta), ranges_(std::move(ranges)) {}

  float Score(UserId u, ItemId v) const override {
    return base_->Score(u, v) + Shift(v);
  }
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override {
    base_->ScoreItems(u, items, out);
    for (size_t i = 0; i < items.size(); ++i) out[i] += Shift(items[i]);
  }
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override {
    base_->ScoreItemRangeMulti(users, begin, end, out);
    for (size_t b = 0; b < users.size(); ++b) {
      for (ItemId v = begin; v < end; ++v) out[b][v - begin] += Shift(v);
    }
  }
  bool thread_safe() const override { return base_->thread_safe(); }

 private:
  float Shift(ItemId v) const {
    for (const auto& [lo, hi] : ranges_) {
      if (v >= lo && v < hi) {
        return delta_ * static_cast<float>(static_cast<int>(v % 5) - 2);
      }
    }
    return 0.0f;
  }

  const ItemScorer* base_;
  float delta_;
  std::vector<std::pair<ItemId, ItemId>> ranges_;
};

/// The incremental-absorb contract: an epoch that dirties a strict subset
/// of item shards must leave every surviving cache entry *refreshed* —
/// bit-identical to what a cold sweep of the new snapshot would produce —
/// without dropping it.
void ExpectIncrementalAbsorbMatchesColdSweep(Recommender* model,
                                             const ImplicitDataset& data) {
  const size_t kShards = 8;
  const size_t k = 7;
  const size_t users = data.num_users(), items = data.num_items();
  WriteTracker tracker(users, items, kShards);
  ASSERT_EQ(tracker.num_item_shards(), kShards);

  TopKServerOptions opts;
  opts.k = k;
  opts.cache.item_shards = kShards;
  opts.exclude_interactions = &data;
  ShardShiftScorer old_epoch(model, 0.0f, {});
  TopKServer server(UnownedSnapshot(&old_epoch), users, items, opts);
  const size_t probe_users = 10;
  std::vector<TopKResponse> before(probe_users);
  for (UserId u = 0; u < probe_users; ++u) before[u] = server.TopK(u);

  // New epoch: shift scores inside item shards {1, 2, 5} only (a strict
  // subset), scaled to the model's own score spread so rankings actually
  // move. Mark exactly those shards dirty.
  const std::vector<size_t> dirty = {1, 2, 5};
  std::vector<std::pair<ItemId, ItemId>> ranges;
  for (const size_t s : dirty) {
    const auto [lo, hi] = FacetStore::ShardRange(items, s, kShards);
    ranges.emplace_back(static_cast<ItemId>(lo), static_cast<ItemId>(hi));
    tracker.MarkItem(static_cast<ItemId>(lo));
  }
  const float spread = before[0].scores.empty()
                           ? 1.0f
                           : before[0].scores.front() -
                                 before[0].scores.back() + 0.1f;
  ShardShiftScorer new_epoch(model, spread, std::move(ranges));

  server.ReplaceModel(UnownedSnapshot(&new_epoch));
  server.AbsorbWrites(&tracker);
  // Every entry was either refreshed in place (exact merge) or dropped
  // because its k-th-rank cutoff fell (drops also count as invalidated);
  // no user-shard drops occurred.
  const TopKServerStats after_stats = server.stats();
  EXPECT_EQ(after_stats.refreshed + after_stats.refresh_drops, probe_users)
      << model->name();
  EXPECT_EQ(after_stats.invalidated, after_stats.refresh_drops)
      << model->name();

  // The reference is a full *cold sweep* of the new snapshot (a fresh
  // server), which shares the refresh path's ScoreItemRangeMulti kernels —
  // served rankings must be bit-identical to it whether the entry was
  // refreshed in place (cache hit) or dropped and re-swept (miss).
  TopKServer cold(UnownedSnapshot(&new_epoch), users, items, opts);
  bool any_moved = false;
  for (UserId u = 0; u < probe_users; ++u) {
    const TopKResponse got = server.TopK(u);
    const TopKResponse want = cold.TopK(u);
    EXPECT_FALSE(want.from_cache);
    EXPECT_EQ(got.items, want.items) << model->name() << " user " << u;
    EXPECT_EQ(got.scores, want.scores) << model->name() << " user " << u;
    any_moved = any_moved || got.items != before[u].items;
  }
  // The shift is scaled to reorder: a refresh that never changes any
  // ranking would be vacuous.
  EXPECT_TRUE(any_moved) << model->name();
}

TEST(TopKServerIncrementalAbsorb, Mars) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 4;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MarsSingleFacet) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 1;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MarFree) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kFree);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MarProjected) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kProjected);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Bpr) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Cml) {
  const auto data = SmallDataset();
  Cml model(CmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Sml) {
  const auto data = SmallDataset();
  Sml model(SmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MetricF) {
  const auto data = SmallDataset();
  MetricF model(MetricFConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, TransCf) {
  const auto data = SmallDataset();
  TransCf model(TransCfConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Lrml) {
  const auto data = SmallDataset();
  Lrml model(LrmlConfig{.dim = 16, .memory_slots = 4});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerInvalidation, InvalidateAllDropsEverything) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  TopKServer server(UnownedSnapshot(&scorer), 20, 30, opts);
  server.TopK(1);
  server.TopK(2);
  server.InvalidateAll();
  EXPECT_EQ(server.stats().invalidated, 2u);
  EXPECT_EQ(server.stats().cached_users, 0u);
  EXPECT_FALSE(server.TopK(1).from_cache);
}

}  // namespace
}  // namespace mars
