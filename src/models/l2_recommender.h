// Shared scoring surface of the single-space metric models (CML, SML,
// MetricF):
//
//   score(u, v) = -||u - v||²
//
// over one user table and one item table of `dim` columns each. The
// subclasses differ only in how Fit trains the tables; scoring, the
// serving range kernels and the ANN index capability live here once.
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

  // ANN capability: L2 geometry — Score is exactly -||u - v||², strictly
  // decreasing in distance, so a metric index (VP-tree) is exact here.
  IndexGeometry index_geometry() const override { return IndexGeometry::kL2; }
  size_t index_dim() const override { return dim_; }
  void CopyIndexVectors(ItemId begin, ItemId end, float* out) const override;
  void WriteIndexQuery(UserId u, float* out) const override;

 protected:
  explicit L2Recommender(size_t dim) : dim_(dim) {}

  size_t dim_;
  Matrix user_;
  Matrix item_;
};

}  // namespace mars

#endif  // MARS_MODELS_L2_RECOMMENDER_H_
