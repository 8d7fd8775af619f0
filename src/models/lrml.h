// Latent Relational Metric Learning (LRML) [40].
//
// A memory-based attention module induces a latent relation vector for
// each user-item pair:
//
//   p   = u ⊙ v                         (joint key)
//   a_s = softmax_s(p · k_s)            (attention over S memory slots)
//   r   = Σ_s a_s m_s                   (induced relation)
//   score(u, v) = -||u + r - v||²
//
// trained with the pairwise hinge on sampled triplets; user/item
// embeddings and memory slots are constrained to the unit ball.
#ifndef MARS_MODELS_LRML_H_
#define MARS_MODELS_LRML_H_

#include "common/matrix.h"
#include "models/recommender.h"

namespace mars {

/// Model-specific hyperparameters.
struct LrmlConfig {
  size_t dim = 32;
  size_t memory_slots = 16;
  double margin = 0.5;
};

/// LRML recommender.
class Lrml : public Recommender {
 public:
  explicit Lrml(LrmlConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;
  std::string name() const override { return "LRML"; }

 private:
  /// Computes attention and relation for (u, v); buffers sized by caller.
  void Relation(const float* u, const float* v, float* attention,
                float* relation) const;

  /// Accumulates gradients for one (u, v) pair whose residual gradient is
  /// `grad_e` = dL/de with e = u + r - v, updating u, v, keys and memory.
  void BackwardPair(float* u, float* v, const float* grad_e, float lr);

  LrmlConfig config_;
  Matrix user_;
  Matrix item_;
  Matrix keys_;    // S×D
  Matrix memory_;  // S×D
};

}  // namespace mars

#endif  // MARS_MODELS_LRML_H_
