// MAR — Multi-fAcet Recommender networks (paper Sec. III).
//
// Users and items carry universal embeddings u, v ∈ R^D that K shared
// projection matrices Φ_k, Ψ_k map into K facet-specific metric spaces
// (Eq. 1–2); similarity is the Θ_u-weighted sum of negative squared
// Euclidean distances across facets (Eq. 3–4). Training minimizes
//
//   L = L_push + λ_pull · L_pull + λ_facet · L_facet          (Eq. 11)
//
// with the per-user adaptive margin γ_u (Eq. 7–8), the absolute pulling
// term (Eq. 9), the facet-separating loss (Eq. 6), frequency-biased user
// sampling (Eq. 10), and the relaxed ball constraint ||u^k|| ≤ 1 enforced
// by a norm-clipped forward whose exact Jacobian the backward pass uses.
//
// The `FacetParam::kFree` mode replaces the shared-projection
// parameterization with free ball-constrained facet tables (the ablation
// of DESIGN.md §2.2).
#ifndef MARS_CORE_MAR_H_
#define MARS_CORE_MAR_H_

#include <vector>

#include "common/facet_store.h"
#include "common/matrix.h"
#include "core/facet_config.h"
#include "models/recommender.h"

namespace mars {

/// MAR recommender.
class Mar : public Recommender {
 public:
  /// `param_mode` defaults to kFree: per Eq. 19 the optimization variables
  /// Ω are the facet embeddings themselves, and empirically the free
  /// parameterization dominates the shared-projection one on sparse data
  /// (see DESIGN.md §2.2 and bench/ablation_param_mode).
  explicit Mar(MultiFacetConfig config,
               FacetParam param_mode = FacetParam::kFree);

  void Fit(const ImplicitDataset& train, const TrainOptions& options) override;
  float Score(UserId u, ItemId v) const override;
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;
  std::string name() const override { return "MAR"; }

  const MultiFacetConfig& config() const { return config_; }
  FacetParam param_mode() const { return param_mode_; }

  /// Facet-specific (clipped) embedding of user `u` in facet `k`.
  std::vector<float> UserFacetEmbedding(UserId u, size_t k) const;
  /// Facet-specific (clipped) embedding of item `v` in facet `k`.
  std::vector<float> ItemFacetEmbedding(ItemId v, size_t k) const;
  /// Softmax facet weights Θ_u of user `u`.
  std::vector<float> FacetWeights(UserId u) const;
  /// Adaptive margin γ_u the trainer used for `u` (after Fit).
  float MarginOf(UserId u) const;

 private:
  /// Projects entity embedding `x` into facet `k` with clip; fills
  /// `clipped` (D floats) and returns the clip scale (1 when inside ball).
  float ProjectFacet(const Matrix& projection, const float* x,
                     float* clipped) const;

  MultiFacetConfig config_;
  FacetParam param_mode_;

  // kProjected parameters.
  Matrix user_universal_;             // N×D
  Matrix item_universal_;             // M×D
  std::vector<Matrix> phi_;           // K of D×D (user projections)
  std::vector<Matrix> psi_;           // K of D×D (item projections)
  // kFree parameters: contiguous [entity][facet][dim] tables (see
  // common/facet_store.h) — the same layout MARS trains on.
  FacetStore user_facets_;            // N×K×D
  FacetStore item_facets_;            // M×K×D

  Matrix theta_logits_;               // N×K
  std::vector<float> margins_;        // γ_u per user
};

}  // namespace mars

#endif  // MARS_CORE_MAR_H_
