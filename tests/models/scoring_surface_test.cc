// The range-scoring surface every servable model exposes (eval/scorer.h):
// models implement ScoreItemRangeMulti once, ScoreItemRange is its B = 1
// form, and both must agree bit for bit with the gather path ScoreItems
// over the same items — the top-k server sweeps through the range forms
// while its ANN re-rank and the brute-force references score through
// ScoreItems. Single-facet MARS included: K = 1 sweeps through the same
// weighted facet dot as every other K.
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mar.h"
#include "core/mars.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "models/cml.h"
#include "models/lrml.h"
#include "models/metricf.h"
#include "models/recommender.h"
#include "models/sml.h"
#include "models/transcf.h"

namespace mars {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<Recommender>()> make;
  /// Epochs to fit before scoring: enough to move every parameter off its
  /// initialisation, few enough to keep the suite fast.
  size_t epochs = 2;
};

MultiFacetConfig FacetConfig(size_t num_facets) {
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = num_facets;
  cfg.theta_init_nmf = false;
  return cfg;
}

std::vector<ModelCase> AllModels() {
  return {
      {"Mars", [] { return std::make_unique<Mars>(FacetConfig(4)); }},
      {"MarsSingleFacet",
       [] { return std::make_unique<Mars>(FacetConfig(1)); }},
      {"MarFree",
       [] { return std::make_unique<Mar>(FacetConfig(3), FacetParam::kFree); }},
      {"MarProjected",
       [] {
         return std::make_unique<Mar>(FacetConfig(3), FacetParam::kProjected);
       }},
      {"Bpr", [] { return std::make_unique<Bpr>(BprConfig{.dim = 16}); }},
      {"Cml", [] { return std::make_unique<Cml>(CmlConfig{.dim = 16}); }},
      {"Sml", [] { return std::make_unique<Sml>(SmlConfig{.dim = 16}); }},
      {"MetricF",
       [] { return std::make_unique<MetricF>(MetricFConfig{.dim = 16}); }},
      {"TransCf",
       [] { return std::make_unique<TransCf>(TransCfConfig{.dim = 16}); }},
      {"Lrml",
       [] {
         return std::make_unique<Lrml>(
             LrmlConfig{.dim = 16, .memory_slots = 4});
       }},
  };
}

class ScoringSurfaceTest : public ::testing::TestWithParam<ModelCase> {};

/// Bitwise float equality: NaN-safe and distinguishes -0 from +0, so the
/// three forms must produce the same bits, not merely compare equal.
bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST_P(ScoringSurfaceTest, RangeFormsAndGatherAreBitEqual) {
  SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 150;
  cfg.target_interactions = 480;
  cfg.num_facets = 3;
  cfg.seed = 7;
  const auto data = GenerateSyntheticDataset(cfg);
  const std::unique_ptr<Recommender> model = GetParam().make();
  TrainOptions train;
  train.epochs = GetParam().epochs;
  train.learning_rate = 0.1;
  train.seed = 42;
  model->Fit(*data, train);

  // Five users (a full AVX2 user quad plus a remainder lane) over an
  // interior range that starts and ends off any vector-width boundary.
  const std::vector<UserId> users = {3, 0, 17, 11, 39};
  const ItemId begin = 5, end = 142;
  const size_t n = end - begin;
  std::vector<ItemId> ids(n);
  std::iota(ids.begin(), ids.end(), begin);

  std::vector<std::vector<float>> multi(users.size(), std::vector<float>(n));
  std::vector<float*> outs(users.size());
  for (size_t b = 0; b < users.size(); ++b) outs[b] = multi[b].data();
  model->ScoreItemRangeMulti(users, begin, end, outs.data());

  for (size_t b = 0; b < users.size(); ++b) {
    std::vector<float> single(n), gather(n);
    model->ScoreItemRange(users[b], begin, end, single.data());
    model->ScoreItems(users[b], ids, gather.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(single[i], multi[b][i]))
          << "user " << users[b] << " item " << ids[i] << ": ScoreItemRange "
          << single[i] << " vs ScoreItemRangeMulti row " << multi[b][i];
      ASSERT_TRUE(SameBits(single[i], gather[i]))
          << "user " << users[b] << " item " << ids[i] << ": ScoreItemRange "
          << single[i] << " vs ScoreItems " << gather[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllServableModels, ScoringSurfaceTest, ::testing::ValuesIn(AllModels()),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.name;
    });

/// Overrides only Score: both range forms must fall back to it, terminate
/// (neither default may call the other back), and agree with it exactly.
class ScoreOnlyScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((v * 37 + u * 11) % 101) - 0.5f * u;
  }
};

TEST(ScoringSurfaceDefaults, ScoreOnlyScorerGetsEqualRangeDefaults) {
  const ScoreOnlyScorer scorer;
  const std::vector<UserId> users = {4, 1, 9};
  const ItemId begin = 3, end = 40;
  const size_t n = end - begin;
  std::vector<std::vector<float>> multi(users.size(), std::vector<float>(n));
  std::vector<float*> outs(users.size());
  for (size_t b = 0; b < users.size(); ++b) outs[b] = multi[b].data();
  scorer.ScoreItemRangeMulti(users, begin, end, outs.data());
  for (size_t b = 0; b < users.size(); ++b) {
    std::vector<float> single(n);
    scorer.ScoreItemRange(users[b], begin, end, single.data());
    for (ItemId v = begin; v < end; ++v) {
      const float want = scorer.Score(users[b], v);
      EXPECT_TRUE(SameBits(single[v - begin], want)) << "item " << v;
      EXPECT_TRUE(SameBits(multi[b][v - begin], want)) << "item " << v;
    }
  }
}

}  // namespace
}  // namespace mars
