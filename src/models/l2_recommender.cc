#include "models/l2_recommender.h"

#include <vector>

#include "common/kernels.h"
#include "common/vec.h"

namespace mars {

float L2Recommender::Score(UserId u, ItemId v) const {
  return -SquaredDistance(user_.Row(u), item_.Row(v), dim_);
}

void L2Recommender::ScoreItems(UserId u, std::span<const ItemId> items,
                               float* out) const {
  NegatedSquaredDistanceGather(user_.Row(u), item_.data(), item_.cols(),
                               items.data(), items.size(), dim_, out);
}

void L2Recommender::ScoreItemRangeMulti(std::span<const UserId> users,
                                        ItemId begin, ItemId end,
                                        float* const* out) const {
  if (begin >= end || users.empty()) return;
  std::vector<const float*> urows(users.size());
  for (size_t b = 0; b < users.size(); ++b) urows[b] = user_.Row(users[b]);
  NegatedSquaredDistanceBatchMulti(urows.data(), users.size(),
                                   item_.Row(begin), end - begin,
                                   item_.cols(), dim_, out);
}

}  // namespace mars
