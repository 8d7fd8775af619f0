// Minimal scoring interface the evaluator ranks against.
//
// Every recommender implements this; keeping it separate from the model
// base class lets the evaluation substrate stay independent of the model
// library (and lets tests plug in synthetic oracles).
#ifndef MARS_EVAL_SCORER_H_
#define MARS_EVAL_SCORER_H_

#include <cstddef>
#include <span>

#include "data/interaction.h"

namespace mars {

/// Dense-vector geometry of a model's item scores, advertised to the ANN
/// candidate tier (ann/candidate_index.h). A model that opts in exposes one
/// index vector per item and one query vector per user such that ranking by
/// the declared geometry reproduces the ranking of Score():
///
///   kDot — dot(query(u), item(v)) equals Score(u, v) up to floating-point
///          reassociation, so descending dot order is the score order.
///          Models fold affine terms into extra dimensions (e.g. BPR's item
///          bias rides as one appended component against a constant-1 query
///          component; MARS concatenates its K facet rows against
///          theta-and-radius-scaled user facets).
///   kNone — no such vectorization exists (per-candidate projections,
///          neural towers, …), or the exact sweep already serves the model
///          faster than an index would (the single-space metric models:
///          CML, SML, MetricF); the serving layer falls back to the exact
///          full-catalog sweep.
enum class IndexGeometry { kNone, kDot };

/// Scores user-item pairs; higher means "more recommended".
class ItemScorer {
 public:
  virtual ~ItemScorer() = default;

  /// Preference score of user `u` for item `v`.
  virtual float Score(UserId u, ItemId v) const = 0;

  /// Batch scoring; the default loops over Score. Models override this when
  /// per-user work (projections, attention) can be hoisted out of the loop.
  virtual void ScoreItems(UserId u, std::span<const ItemId> items,
                          float* out) const {
    for (size_t i = 0; i < items.size(); ++i) out[i] = Score(u, items[i]);
  }

  /// Serving adapter: scores the contiguous catalog slice [begin, end) for
  /// every user in `users` — out[b][0 .. end-begin) receives users[b]'s
  /// scores. This is the one range-scoring surface models implement: the
  /// top-k server (serve/top_k_server.h) partitions the catalog into
  /// contiguous blocks and scores each block for a whole batch of missed
  /// users at once (a single-user miss is a batch of one), so models
  /// override it with the multi-user block kernels of common/kernels.h and
  /// each item row is streamed from memory once per batch. Contract:
  /// out[b] must be bit-identical to the same call with users = {users[b]}
  /// — the block kernels pin exactly that. The default loops over Score.
  virtual void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                                   ItemId end, float* const* out) const {
    for (size_t b = 0; b < users.size(); ++b) {
      for (ItemId v = begin; v < end; ++v) {
        out[b][v - begin] = Score(users[b], v);
      }
    }
  }

  /// Single-user form of ScoreItemRangeMulti (B = 1): scores [begin, end)
  /// for `u` into out[0 .. end-begin). Models do not override it. It stays
  /// virtual for decorators that wrap one surface (tracing, fault
  /// injection): the top-k server scores a batch of one through it, so
  /// such a wrapper sees every single-user sweep.
  virtual void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                              float* out) const {
    ScoreItemRangeMulti({&u, 1}, begin, end, &out);
  }

  /// Whether Score/ScoreItems may be called concurrently from multiple
  /// threads. Models that reuse internal scratch buffers return false and
  /// are evaluated serially.
  virtual bool thread_safe() const { return true; }

  // --- ANN index capability (see IndexGeometry above). ---------------------
  // The contract couples the three overrides: a model returning kDot
  // must also implement index_dim(), CopyIndexVectors() and
  // WriteIndexQuery() consistently, and the vectors must describe the
  // *current* weights — the serving layer snapshots the model before
  // building, exactly like its score sweeps.

  /// Geometry under which this model's scores are indexable; kNone (the
  /// default) keeps the model on the exact-sweep path.
  virtual IndexGeometry index_geometry() const { return IndexGeometry::kNone; }

  /// Dimensionality of the index/query vectors (0 iff kNone).
  virtual size_t index_dim() const { return 0; }

  /// Writes the index vectors of items [begin, end) tightly packed into
  /// `out` (index_dim() floats per item, no padding).
  virtual void CopyIndexVectors(ItemId begin, ItemId end, float* out) const {
    (void)begin;
    (void)end;
    (void)out;
  }

  /// Writes user `u`'s query vector (index_dim() floats) into `out`.
  virtual void WriteIndexQuery(UserId u, float* out) const {
    (void)u;
    (void)out;
  }
};

}  // namespace mars

#endif  // MARS_EVAL_SCORER_H_
