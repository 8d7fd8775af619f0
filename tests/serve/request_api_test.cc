// The TopKRequest/TopKResponse surface (serve/request.h): the reporting
// contract the wire codec relies on. The request form must never abort —
// malformed requests come back as status-stamped empty responses — and a
// well-formed request must be bit-identical to the UserId compat
// overload it generalizes (including the k-prefix rule and the
// bypass-cache flag's freshness semantics).
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "eval/scorer.h"
#include "serve/request.h"
#include "serve/top_k_server.h"

namespace mars {
namespace {

class ToyScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((v * 37 + u * 11) % 101);
  }
};

TopKServer MakeServer(const ToyScorer* scorer, size_t k = 8) {
  TopKServerOptions opts;
  opts.k = k;
  return TopKServer(UnownedSnapshot(scorer), /*num_users=*/40,
                    /*num_items=*/120, opts);
}

TEST(RequestApi, RequestFormMatchesCompatOverloadBitwise) {
  ToyScorer scorer;
  TopKServer via_request = MakeServer(&scorer);
  TopKServer via_user = MakeServer(&scorer);

  for (UserId u : {0u, 7u, 39u}) {
    const TopKResponse got = via_request.TopK(TopKRequest{.user = u});
    const TopKResponse want = via_user.TopK(u);
    EXPECT_EQ(got.status, TopKStatus::kOk);
    EXPECT_EQ(got.items, want.items) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
    EXPECT_EQ(got.epoch, want.epoch) << "user " << u;
  }
}

TEST(RequestApi, KZeroMeansConfiguredDepth) {
  ToyScorer scorer;
  TopKServer server = MakeServer(&scorer, /*k=*/6);
  const TopKResponse got = server.TopK(TopKRequest{.user = 3, .k = 0});
  EXPECT_EQ(got.status, TopKStatus::kOk);
  EXPECT_EQ(got.items.size(), 6u);
  EXPECT_EQ(got.scores.size(), 6u);
}

TEST(RequestApi, SmallerKIsTheExactPrefix) {
  ToyScorer scorer;
  TopKServer server = MakeServer(&scorer, /*k=*/8);
  const TopKResponse full = server.TopK(TopKRequest{.user = 5});
  const TopKResponse prefix = server.TopK(TopKRequest{.user = 5, .k = 3});
  ASSERT_EQ(prefix.items.size(), 3u);
  ASSERT_EQ(prefix.scores.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(prefix.items[i], full.items[i]);
    EXPECT_EQ(prefix.scores[i], full.scores[i]);
  }
  // Truncation happens on the served copy, not in the cache: the full
  // depth stays available afterwards.
  const TopKResponse again = server.TopK(TopKRequest{.user = 5});
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.items, full.items);
}

TEST(RequestApi, MalformedRequestsReportInsteadOfAborting) {
  ToyScorer scorer;
  TopKServer server = MakeServer(&scorer, /*k=*/8);

  const TopKResponse bad_user = server.TopK(TopKRequest{.user = 40});
  EXPECT_EQ(bad_user.status, TopKStatus::kInvalidUser);
  EXPECT_TRUE(bad_user.items.empty());
  EXPECT_TRUE(bad_user.scores.empty());
  EXPECT_EQ(bad_user.epoch, 0u);

  const TopKResponse bad_k = server.TopK(TopKRequest{.user = 1, .k = 9});
  EXPECT_EQ(bad_k.status, TopKStatus::kInvalidK);
  EXPECT_TRUE(bad_k.items.empty());

  const TopKResponse bad_flags =
      server.TopK(TopKRequest{.user = 1, .flags = 1u << 7});
  EXPECT_EQ(bad_flags.status, TopKStatus::kInvalidFlags);
  EXPECT_TRUE(bad_flags.items.empty());
}

TEST(RequestApi, BypassCacheFlagForcesAFreshSweep) {
  ToyScorer scorer;
  TopKServer server = MakeServer(&scorer);

  const TopKResponse cold = server.TopK(TopKRequest{.user = 2});
  EXPECT_FALSE(cold.from_cache);
  const TopKResponse warm = server.TopK(TopKRequest{.user = 2});
  EXPECT_TRUE(warm.from_cache);

  const TopKResponse fresh = server.TopK(
      TopKRequest{.user = 2, .flags = kTopKFlagBypassCache});
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(fresh.items, cold.items);
  EXPECT_EQ(fresh.scores, cold.scores);
}

TEST(RequestApi, BatchStampsInvalidPositionsAndServesTheRest) {
  ToyScorer scorer;
  TopKServer batch_server = MakeServer(&scorer);
  TopKServer solo_server = MakeServer(&scorer);

  const std::vector<TopKRequest> requests = {
      {.user = 3},
      {.user = 99},                  // kInvalidUser
      {.user = 7, .k = 4},           // prefix depth
      {.user = 3},                   // duplicate of position 0
      {.user = 1, .flags = 1u << 5}, // kInvalidFlags
      {.user = 0, .k = 100},         // kInvalidK
  };
  const std::vector<TopKResponse> got =
      batch_server.TopKBatch(std::span<const TopKRequest>(requests));
  ASSERT_EQ(got.size(), requests.size());

  EXPECT_EQ(got[1].status, TopKStatus::kInvalidUser);
  EXPECT_EQ(got[4].status, TopKStatus::kInvalidFlags);
  EXPECT_EQ(got[5].status, TopKStatus::kInvalidK);
  for (size_t i : {1u, 4u, 5u}) {
    EXPECT_TRUE(got[i].items.empty()) << "position " << i;
    EXPECT_TRUE(got[i].scores.empty()) << "position " << i;
  }

  const TopKResponse want3 = solo_server.TopK(3);
  const TopKResponse want7 = solo_server.TopK(7);
  EXPECT_EQ(got[0].status, TopKStatus::kOk);
  EXPECT_EQ(got[0].items, want3.items);
  EXPECT_EQ(got[0].scores, want3.scores);
  EXPECT_EQ(got[3].items, want3.items);
  ASSERT_EQ(got[2].items.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[2].items[i], want7.items[i]);
    EXPECT_EQ(got[2].scores[i], want7.scores[i]);
  }

  // Invalid positions never reach a sweep: only the two distinct valid
  // users were served, and they were swept together.
  const TopKServerStats stats = batch_server.stats();
  EXPECT_EQ(stats.misses, 2u);
}

TEST(RequestApi, CompatOverloadStillAssertsOnCallerBugs) {
  ToyScorer scorer;
  TopKServer server = MakeServer(&scorer);
  EXPECT_DEATH(server.TopK(static_cast<UserId>(1000)), "");
}

}  // namespace
}  // namespace mars
