// Collaborative Translational Metric Learning (TransCF) [33].
//
// Instead of measuring d(u, v) directly, the user is translated by a
// relation vector constructed from neighborhood information:
//
//   α_u = mean of embeddings of items u interacted with
//   β_v = mean of embeddings of users who interacted with v
//   r_uv = α_u ⊙ β_v
//   score(u, v) = -||u + r_uv - v||²
//
// trained with the triplet hinge plus two regularizers from the original
// paper: a distance regularizer pulling the translated user exactly onto
// the positive item, and a neighborhood regularizer pulling entities
// toward their neighborhood means.
//
// Simplification (documented): neighborhood means are treated as constants
// within an epoch and refreshed at epoch boundaries, rather than
// backpropagating into every neighbor embedding; at the scale of this
// reproduction the refreshed means track the embeddings closely.
#ifndef MARS_MODELS_TRANSCF_H_
#define MARS_MODELS_TRANSCF_H_

#include "common/matrix.h"
#include "models/recommender.h"

namespace mars {

/// Model-specific hyperparameters.
struct TransCfConfig {
  size_t dim = 32;
  double margin = 0.5;
  /// Weight of the distance regularizer ||u + r_uv − v||² on positives.
  double lambda_dist = 0.01;
  /// Weight of the neighborhood regularizer.
  double lambda_nbr = 0.01;
};

/// TransCF recommender.
class TransCf : public Recommender {
 public:
  explicit TransCf(TransCfConfig config);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;
  std::string name() const override { return "TransCF"; }

 private:
  void RefreshNeighborhoodMeans(const ImplicitDataset& train);

  TransCfConfig config_;
  Matrix user_;
  Matrix item_;
  Matrix user_nbr_;  // α_u, N×D
  Matrix item_nbr_;  // β_v, M×D
};

}  // namespace mars

#endif  // MARS_MODELS_TRANSCF_H_
