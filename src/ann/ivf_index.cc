#include "ann/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/facet_store.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/vec.h"

namespace mars {

namespace {

/// RunBatch is not re-entrant; a build triggered from a pool task (e.g. an
/// epoch callback running on a worker) falls back to the serial path.
bool CanFanOut(ThreadPool* pool) {
  return pool != nullptr && !pool->IsWorkerThread();
}

/// Runs fn(begin, end) over [0, n) in balanced contiguous chunks, about
/// four per pool thread, or as one serial chunk when the pool can't fan
/// out.
template <typename Fn>
void ForEachChunk(size_t n, ThreadPool* pool, const Fn& fn) {
  const size_t chunks =
      CanFanOut(pool)
          ? std::max<size_t>(1, std::min(n, 4 * pool->num_threads()))
          : 1;
  if (chunks == 1) {
    fn(size_t{0}, n);
    return;
  }
  pool->RunBatch(chunks, [&](size_t c) {
    const auto [begin, end] = FacetStore::ShardRange(n, c, chunks);
    fn(begin, end);
  });
}

/// Rows per copy-and-assign block: the copy buffer stays a constant few
/// hundred rows (128 KiB at dim 128, L2-resident) however large the range.
constexpr size_t kAssignBlockRows = 256;

/// Reads items [begin, end) through the model's index-vector surface in
/// fixed row blocks and assigns each to its max-dot centroid. The copy
/// buffer is per-thread: chunks re-use it across RunBatch tasks.
void AssignRange(const ItemScorer& model, size_t begin, size_t end,
                 const float* centroids, size_t num_centroids, size_t dim,
                 uint32_t* assign) {
  static thread_local std::vector<float> rows;
  for (size_t b = begin; b < end; b += kAssignBlockRows) {
    const size_t e = std::min(end, b + kAssignBlockRows);
    rows.resize((e - b) * dim);
    model.CopyIndexVectors(static_cast<ItemId>(b), static_cast<ItemId>(e),
                           rows.data());
    NearestCentroidDotBatch(rows.data(), e - b, dim, centroids,
                            num_centroids, dim, dim, assign + b);
  }
}

/// Unit-normalizes a centroid row; degenerate rows become e_0 so every
/// centroid stays a valid unit vector.
void NormalizeCentroid(float* row, size_t dim) {
  if (!NormalizeInPlace(row, dim)) {
    Fill(0.0f, row, dim);
    row[0] = 1.0f;
  }
}

}  // namespace

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::Build(
    const ItemScorer& model, size_t num_items, const AnnIndexOptions& options,
    ThreadPool* pool) {
  MARS_CHECK(num_items >= 1);
  MARS_CHECK_MSG(model.index_geometry() == IndexGeometry::kDot,
                 "SphericalIvfIndex requires a dot-geometry model");
  const size_t dim = model.index_dim();
  MARS_CHECK(dim >= 1);

  auto index = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex());
  index->num_items_ = num_items;
  index->dim_ = dim;

  // Auto centroid count ~ 4·sqrt(N) (the FAISS-recommended IVF range):
  // finer lists cost a slightly longer centroid scan but waste far fewer
  // re-ranked candidates per probed list, which is what the recall-vs-
  // speedup gate actually trades. Measured on the bench workload at 50k
  // items, 4·sqrt(N) with nprobe = ncent/32 holds recall@10 ≈ 0.97 while
  // re-ranking ~3% of the catalog; sqrt(N) centroids need >1/4 of the
  // catalog for the same recall.
  size_t ncent =
      options.num_centroids > 0
          ? options.num_centroids
          : std::max<size_t>(
                8, 4 * static_cast<size_t>(std::lround(
                           std::sqrt(static_cast<double>(num_items)))));
  ncent = std::min(ncent, num_items);
  ncent = std::max<size_t>(1, ncent);
  index->num_centroids_ = ncent;
  index->nprobe_ = options.nprobe > 0
                       ? std::min(options.nprobe, ncent)
                       : std::min(ncent, std::max<size_t>(2, ncent / 32));

  // K-means trains on a deterministic strided sample (assignment of the
  // *full* catalog to the final centroids happens below regardless).
  const size_t sample_count =
      std::min(num_items, std::max(options.kmeans_sample, ncent));
  std::vector<float> sample(sample_count * dim);
  std::vector<ItemId> sample_ids(sample_count);
  for (size_t i = 0; i < sample_count; ++i) {
    sample_ids[i] = static_cast<ItemId>(i * num_items / sample_count);
    model.CopyIndexVectors(sample_ids[i], sample_ids[i] + 1,
                           sample.data() + i * dim);
  }

  // Init: ncent distinct sample rows, seeded shuffle.
  std::vector<size_t> perm(sample_count);
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(options.seed);
  rng.Shuffle(&perm);
  auto& centroids = index->centroids_.mutable_vec();
  centroids.resize(ncent * dim);
  for (size_t c = 0; c < ncent; ++c) {
    Copy(sample.data() + perm[c] * dim, centroids.data() + c * dim, dim);
    NormalizeCentroid(centroids.data() + c * dim, dim);
  }

  // Lloyd iterations with the spherical mean-direction update.
  std::vector<uint32_t> sample_assign(sample_count);
  std::vector<float> sums(ncent * dim);
  std::vector<uint32_t> counts(ncent);
  for (size_t iter = 0; iter < options.kmeans_iters; ++iter) {
    ForEachChunk(sample_count, pool, [&](size_t begin, size_t end) {
      NearestCentroidDotBatch(sample.data() + begin * dim, end - begin, dim,
                              centroids.data(), ncent, dim, dim,
                              sample_assign.data() + begin);
    });
    std::fill(sums.begin(), sums.end(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < sample_count; ++i) {
      Axpy(1.0f, sample.data() + i * dim,
           sums.data() + sample_assign[i] * dim, dim);
      ++counts[sample_assign[i]];
    }
    for (size_t c = 0; c < ncent; ++c) {
      float* row = centroids.data() + c * dim;
      if (counts[c] == 0) {
        // Empty cluster: reseed deterministically from the sample so the
        // centroid count never silently shrinks.
        const size_t r = (iter * 2654435761u + c) % sample_count;
        Copy(sample.data() + r * dim, row, dim);
      } else {
        Copy(sums.data() + c * dim, row, dim);
      }
      NormalizeCentroid(row, dim);
    }
  }

  index->assign_.mutable_vec().resize(num_items);
  uint32_t* assign = index->assign_.mutable_data();
  ForEachChunk(num_items, pool, [&](size_t begin, size_t end) {
    AssignRange(model, begin, end, centroids.data(), ncent, dim, assign);
  });
  index->RebuildLists();
  return index;
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::Borrow(
    size_t num_items, size_t dim, size_t num_centroids, size_t nprobe,
    const float* centroids, const uint32_t* assign, const uint32_t* offsets,
    const ItemId* list_ids, std::shared_ptr<const void> keepalive) {
  MARS_CHECK(num_items >= 1 && dim >= 1);
  MARS_CHECK(num_centroids >= 1 && num_centroids <= num_items);
  auto index = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex());
  index->num_items_ = num_items;
  index->dim_ = dim;
  index->num_centroids_ = num_centroids;
  index->nprobe_ = std::min(std::max<size_t>(1, nprobe), num_centroids);
  index->centroids_.Borrow(centroids, num_centroids * dim);
  index->assign_.Borrow(assign, num_items);
  index->offsets_.Borrow(offsets, num_centroids + 1);
  index->list_ids_.Borrow(list_ids, num_items);
  index->storage_keepalive_ = std::move(keepalive);
  return index;
}

void SphericalIvfIndex::RebuildLists() {
  auto& offsets = offsets_.mutable_vec();
  auto& list_ids = list_ids_.mutable_vec();
  const uint32_t* assign = assign_.data();
  offsets.assign(num_centroids_ + 1, 0);
  for (size_t v = 0; v < num_items_; ++v) ++offsets[assign[v] + 1];
  for (size_t c = 0; c < num_centroids_; ++c) offsets[c + 1] += offsets[c];
  list_ids.resize(num_items_);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t v = 0; v < num_items_; ++v) {
    list_ids[cursor[assign[v]]++] = static_cast<ItemId>(v);
  }
}

void SphericalIvfIndex::Probe(const float* query, size_t want,
                              std::vector<ItemId>* out) const {
  ProbeEach(query, 1, &want, &out);
}

void SphericalIvfIndex::ProbeBatch(const float* queries, size_t num_queries,
                                   const size_t* want,
                                   std::vector<std::vector<ItemId>>* out) const {
  static thread_local std::vector<std::vector<ItemId>*> outs;
  outs.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) outs[q] = &(*out)[q];
  ProbeEach(queries, num_queries, want, outs.data());
}

void SphericalIvfIndex::ProbeEach(const float* queries, size_t num_queries,
                                  const size_t* want,
                                  std::vector<ItemId>* const* out) const {
  if (num_queries == 0) return;
  // One multi-query pass over the centroid matrix scores every query's
  // centroid dots (each centroid row is loaded once per call), then each
  // query walks its own centroid ranking.
  static thread_local std::vector<float> all_dots;
  static thread_local std::vector<const float*> qs;
  static thread_local std::vector<float*> dots;
  all_dots.resize(num_queries * num_centroids_);
  qs.resize(num_queries);
  dots.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    qs[q] = queries + q * dim_;
    dots[q] = all_dots.data() + q * num_centroids_;
  }
  DotBatchMulti(qs.data(), num_queries, centroids_.data(), num_centroids_,
                dim_, dim_, dots.data());
  static thread_local std::vector<uint32_t> order;
  order.resize(num_centroids_);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<ItemId>& dst = *out[q];
    if (want[q] >= num_items_) {
      const size_t base = dst.size();
      dst.resize(base + num_items_);
      for (size_t v = 0; v < num_items_; ++v) {
        dst[base + v] = static_cast<ItemId>(v);
      }
      continue;
    }
    // Centroids by descending dot, ties to the lower index; nprobe lists
    // minimum, extended into next-best lists until `want` is met (lists
    // are disjoint, so appended ids stay unique).
    const float* cdots = dots[q];
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return cdots[a] > cdots[b] || (cdots[a] == cdots[b] && a < b);
    });
    size_t appended = 0;
    for (size_t i = 0; i < num_centroids_; ++i) {
      if (i >= nprobe_ && appended >= want[q]) break;
      const auto list = List(order[i]);
      dst.insert(dst.end(), list.begin(), list.end());
      appended += list.size();
    }
  }
}

std::unique_ptr<CandidateIndex> SphericalIvfIndex::Rebuilt(
    const ItemScorer& model, const std::vector<size_t>& dirty_shards,
    size_t num_shards, ThreadPool* pool) const {
  MARS_CHECK_MSG(model.index_geometry() == IndexGeometry::kDot &&
                     model.index_dim() == dim_,
                 "Rebuilt model must keep the index geometry");
  auto next = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex(*this));
  if (dirty_shards.empty()) return next;
  // Centroids are reused: only dirty rows are re-read and re-assigned, so
  // an epoch that dirtied 1/64th of the catalog pays ~1/64th of the full
  // assignment (the k-means cost is never repaid). On a mapped index this
  // is the copy-on-write step: assign_ is materialized (the lists below
  // are regenerated outright), centroids_ stays borrowed from the mapping
  // — the keepalive copied with *this keeps it valid.
  next->assign_.EnsureOwned();
  if (next->offsets_.borrowed()) next->offsets_ = {};
  if (next->list_ids_.borrowed()) next->list_ids_ = {};
  // Dirty shards merge into contiguous item runs, and the dirty rows,
  // numbered run after run, split into balanced chunks that may span
  // runs: thousands of few-row shards become a handful of pool tasks.
  struct Run {
    size_t item;  // dirty rows [row, next run's row) are items item, ...
    size_t row;
  };
  std::vector<Run> runs;
  size_t dirty_rows = 0;
  size_t items_end = 0;
  for (const size_t shard : dirty_shards) {
    auto [begin, end] = FacetStore::ShardRange(num_items_, shard, num_shards);
    begin = std::max(begin, items_end);  // a repeated shard adds nothing
    if (begin >= end) continue;
    if (runs.empty() || begin != items_end) runs.push_back({begin, dirty_rows});
    dirty_rows += end - begin;
    items_end = end;
  }
  runs.push_back({items_end, dirty_rows});  // sentinel: ends the last run
  uint32_t* assign = next->assign_.mutable_data();
  ForEachChunk(dirty_rows, pool, [&](size_t lo, size_t hi) {
    auto run = std::upper_bound(runs.begin(), runs.end(), lo,
                                [](size_t row, const Run& r) {
                                  return row < r.row;
                                }) -
               1;
    for (; run->row < hi; ++run) {
      const size_t from = std::max(lo, run->row);
      const size_t to = std::min(hi, (run + 1)->row);
      AssignRange(model, run->item + (from - run->row),
                  run->item + (to - run->row), next->centroids_.data(),
                  num_centroids_, dim_, assign);
    }
  });
  next->RebuildLists();
  return next;
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::CloneWithNprobe(
    size_t nprobe) const {
  auto next = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex(*this));
  next->nprobe_ = std::min(std::max<size_t>(1, nprobe), num_centroids_);
  return next;
}

}  // namespace mars
