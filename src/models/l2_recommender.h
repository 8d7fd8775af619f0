// Shared scoring surface of the single-space metric models (CML, SML,
// MetricF):
//
//   score(u, v) = -||u - v||²
//
// over one user table and one item table of `dim` columns each. The
// subclasses differ only in how Fit trains the tables; scoring and the
// serving range kernels live here once. They declare no ANN index
// geometry (eval/scorer.h): the exact multi-user sweep serves their misses
// faster than a metric index does at the dims in use.
#ifndef MARS_MODELS_L2_RECOMMENDER_H_
#define MARS_MODELS_L2_RECOMMENDER_H_

#include "common/matrix.h"
#include "models/recommender.h"

namespace mars {

/// Base of the negated-squared-L2 recommenders.
class L2Recommender : public Recommender {
 public:
  float Score(UserId u, ItemId v) const override;
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;

 protected:
  explicit L2Recommender(size_t dim) : dim_(dim) {}

  size_t dim_;
  Matrix user_;
  Matrix item_;
};

}  // namespace mars

#endif  // MARS_MODELS_L2_RECOMMENDER_H_
