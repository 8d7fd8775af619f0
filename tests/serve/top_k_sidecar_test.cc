#include "serve/top_k_sidecar.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mars.h"
#include "core/persistence.h"
#include "data/synthetic.h"

namespace mars {
namespace {

struct SidecarFixture : public ::testing::Test {
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.num_users = 60;
    cfg.num_items = 150;
    cfg.target_interactions = 900;
    cfg.seed = 13;
    dataset_ = GenerateSyntheticDataset(cfg);

    MultiFacetConfig mcfg;
    mcfg.dim = 12;
    mcfg.num_facets = 2;
    mcfg.theta_nmf_iterations = 3;
    model_ = std::make_unique<Mars>(mcfg);
    TrainOptions opts;
    opts.epochs = 3;
    opts.learning_rate = 0.2;
    model_->Fit(*dataset_, opts);

    // Unique per test: ctest runs tests of one binary as parallel
    // processes, and a shared path would race.
    path_ = ::testing::TempDir() + "/topk_sidecar_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  TopKServer MakeServer() const {
    TopKServerOptions opts;
    opts.k = 10;
    // One stripe = one global LRU: sidecar order round-trips exactly (the
    // recency-order assertions below depend on it; striped servers only
    // order within each stripe).
    opts.cache.stripes = 1;
    return TopKServer(UnownedSnapshot(model_.get()), dataset_->num_users(),
                      dataset_->num_items(), opts);
  }

  std::shared_ptr<ImplicitDataset> dataset_;
  std::unique_ptr<Mars> model_;
  std::string path_;
};

TEST_F(SidecarFixture, WarmStartEqualsColdSweepRanking) {
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 20; ++u) hot.TopK(u);  // populate via cold sweeps
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  TopKServer fresh = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 20u);
  EXPECT_EQ(fresh.stats().primed, 20u);
  for (UserId u = 0; u < 20; ++u) {
    const TopKResponse warm = fresh.TopK(u);
    EXPECT_TRUE(warm.from_cache) << "u=" << u;
    const TopKResponse cold = hot.TopK(u);
    ASSERT_EQ(warm.items.size(), cold.items.size());
    for (size_t i = 0; i < warm.items.size(); ++i) {
      EXPECT_EQ(warm.items[i], cold.items[i]) << "u=" << u << " pos=" << i;
      EXPECT_EQ(warm.scores[i], cold.scores[i]);
    }
  }
  // No sweeps happened on the warmed server: all 20 queries were hits.
  EXPECT_EQ(fresh.stats().hits, 20u);
  EXPECT_EQ(fresh.stats().misses, 0u);
}

TEST_F(SidecarFixture, WarmStartPreservesLruOrder) {
  TopKServer hot = MakeServer();
  hot.TopK(5);
  hot.TopK(9);
  hot.TopK(2);  // LRU order now: 2, 9, 5
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  // A warmed server with capacity for only 2 entries must keep the two
  // hottest users (2 and 9), not the coldest.
  TopKServerOptions opts;
  opts.k = 10;
  opts.cache.max_users = 2;
  opts.cache.stripes = 1;
  TopKServer tiny(UnownedSnapshot(model_.get()), dataset_->num_users(),
                  dataset_->num_items(), opts);
  WarmFromSidecar(&tiny, path_);
  EXPECT_EQ(tiny.stats().cached_users, 2u);
  EXPECT_TRUE(tiny.TopK(2).from_cache);
  EXPECT_TRUE(tiny.TopK(9).from_cache);
  EXPECT_FALSE(tiny.TopK(5).from_cache);
}

TEST_F(SidecarFixture, WarmedServerServesAMappedSnapshot) {
  // The intended production flow: sweep + save on the training side, then
  // mmap the v3 snapshot and warm a brand-new server from the sidecar.
  const std::string model_path = ::testing::TempDir() + "/sidecar_model.v3";
  ASSERT_TRUE(SaveMarsV3(*model_, model_path));
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 8; ++u) hot.TopK(u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  const auto mapped = LoadMarsMapped(model_path);
  std::remove(model_path.c_str());
  ASSERT_NE(mapped, nullptr);
  TopKServerOptions opts;
  opts.k = 10;
  TopKServer server(UnownedSnapshot(mapped.get()), dataset_->num_users(),
                    dataset_->num_items(), opts);
  EXPECT_EQ(WarmFromSidecar(&server, path_), 8u);
  for (UserId u = 0; u < 8; ++u) {
    const TopKResponse warm = server.TopK(u);
    EXPECT_TRUE(warm.from_cache);
    const TopKResponse reference = hot.TopK(u);
    EXPECT_EQ(warm.items, reference.items);
  }
  // A user outside the sidecar sweeps the mapped tensors directly and must
  // rank exactly like the owned model.
  const TopKResponse swept = server.TopK(30);
  EXPECT_FALSE(swept.from_cache);
  EXPECT_EQ(swept.items, hot.TopK(30).items);
}

TEST_F(SidecarFixture, EmptyCacheRoundTrips) {
  TopKServer empty = MakeServer();
  ASSERT_TRUE(SaveTopKSidecar(empty, path_));
  TopKServer fresh = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);
  EXPECT_EQ(fresh.stats().cached_users, 0u);
}

TEST_F(SidecarFixture, RejectsShapeMismatch) {
  TopKServer hot = MakeServer();
  hot.TopK(0);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  // Different k.
  TopKServerOptions opts;
  opts.k = 5;
  TopKServer other_k(UnownedSnapshot(model_.get()), dataset_->num_users(),
                     dataset_->num_items(), opts);
  EXPECT_EQ(WarmFromSidecar(&other_k, path_), 0u);

  // Different catalog.
  TopKServerOptions opts10;
  opts10.k = 10;
  TopKServer other_catalog(UnownedSnapshot(model_.get()), dataset_->num_users(),
                           dataset_->num_items() - 1, opts10);
  EXPECT_EQ(WarmFromSidecar(&other_catalog, path_), 0u);
}

TEST_F(SidecarFixture, RejectsGarbageAndTruncation) {
  TopKServer fresh = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&fresh, "/no/such/sidecar.bin"), 0u);

  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "not a sidecar";
  }
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);

  // A valid sidecar truncated mid-entry loads *nothing* (all-or-nothing).
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 5; ++u) hot.TopK(u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 10));
  }
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);
  EXPECT_EQ(fresh.stats().cached_users, 0u);

  // An entry pointing outside the catalog is rejected too.
  const size_t header = 4 + 4 + 8 * 4;  // magic, version, k, users, items, n
  std::string corrupt = bytes;
  const uint32_t bogus_item = 1u << 30;
  // First entry: user u32, count u32, then scores — patch the first item id
  // (after count floats of scores).
  uint32_t count;
  std::memcpy(&count, corrupt.data() + header + 4, 4);
  ASSERT_GE(count, 3u);
  const size_t scores_at = header + 8;
  const size_t items_at = scores_at + count * 4;
  std::memcpy(corrupt.data() + items_at, &bogus_item, 4);
  const auto expect_rejected = [&](const std::string& file, const char* why) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u) << why;
    EXPECT_EQ(fresh.stats().cached_users, 0u) << why;
  };
  expect_rejected(corrupt, "out-of-catalog item");

  // The format has no checksum, so entries that are not ranked lists are
  // rejected by content — one bad entry still loads nothing. Every case
  // patches the *last* entry, after intact ones the loader has parsed.
  size_t last = header;
  for (size_t e = 0; e + 1 < 5; ++e) {
    uint32_t c;
    std::memcpy(&c, bytes.data() + last + 4, 4);
    last += 8 + 8 * static_cast<size_t>(c);
  }
  std::memcpy(&count, bytes.data() + last + 4, 4);
  ASSERT_GE(count, 3u);
  const auto patched = [&](size_t offset, const void* value) {
    std::string file = bytes;
    std::memcpy(file.data() + offset, value, 4);
    return file;
  };
  const size_t last_scores = last + 8;
  const size_t last_items = last_scores + count * 4;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  expect_rejected(patched(last_scores + 4, &nan), "NaN score");
  expect_rejected(patched(last_scores, &inf), "infinite score");
  float best;
  std::memcpy(&best, bytes.data() + last_scores, 4);
  const float above_best = best + 1.0f;
  expect_rejected(patched(last_scores + 8, &above_best), "unsorted scores");
  uint32_t first_item;
  std::memcpy(&first_item, bytes.data() + last_items, 4);
  expect_rejected(patched(last_items + 8, &first_item), "repeated item");
}

TEST_F(SidecarFixture, PrimeValidatesInput) {
  TopKServer server = MakeServer();
  // Length mismatch.
  EXPECT_FALSE(server.Prime(0, {1, 2}, {1.0f}));
  // Over-long list (k = 10).
  std::vector<ItemId> items(11);
  std::vector<float> scores(11);
  EXPECT_FALSE(server.Prime(0, items, scores));
  // Out-of-range user.
  EXPECT_FALSE(server.Prime(static_cast<UserId>(dataset_->num_users()),
                            {1}, {1.0f}));
  // Out-of-catalog item id.
  EXPECT_FALSE(server.Prime(0, {static_cast<ItemId>(dataset_->num_items())},
                            {1.0f}));
  // Lists that are not ranked best-first: non-finite scores, scores out
  // of order, a tie out of item-id order, a repeated item (adjacent or
  // not). None may be served verbatim or become a refresh cutoff.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(server.Prime(0, {1, 2}, {0.9f, nan}));
  EXPECT_FALSE(server.Prime(0, {1}, {nan}));
  EXPECT_FALSE(server.Prime(0, {1, 2}, {inf, 0.5f}));
  EXPECT_FALSE(server.Prime(0, {1, 2}, {0.5f, 0.9f}));
  EXPECT_FALSE(server.Prime(0, {5, 2}, {0.5f, 0.5f}));
  EXPECT_FALSE(server.Prime(0, {3, 3}, {0.9f, 0.5f}));
  EXPECT_FALSE(server.Prime(0, {3, 1, 3}, {0.9f, 0.7f, 0.5f}));
  EXPECT_EQ(server.stats().cached_users, 0u);
  EXPECT_EQ(server.stats().primed, 0u);
  // Ties ranked by ascending item id are a valid ranking.
  EXPECT_TRUE(server.Prime(0, {2, 5}, {0.5f, 0.5f}));
  // Valid prime replaces an existing entry.
  EXPECT_TRUE(server.Prime(0, {3, 1}, {0.9f, 0.5f}));
  EXPECT_TRUE(server.Prime(0, {4}, {0.7f}));
  const TopKResponse r = server.TopK(0);
  EXPECT_TRUE(r.from_cache);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], 4u);
  EXPECT_EQ(server.stats().cached_users, 1u);
}

}  // namespace
}  // namespace mars
