#include "common/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/kernels_detail.h"

namespace mars {

namespace {

using kernels_detail::DotRowGeneric;
using kernels_detail::HasAvx2Fma;
using kernels_detail::SquaredDistanceRowGeneric;

// Each public kernel dispatches once per *call* (not per row) between the
// generic autovectorized loop and an AVX2+FMA twin whose row primitives
// inline into a target-annotated batch loop. Families share row
// primitives on both paths, so gather and batch forms stay bit-identical
// to each other whichever path the host takes — see kernels_detail.h for
// the measured wins (1.3-1.7x on this shape) and the rounding contract.

#if MARS_KERNELS_HAVE_AVX2

using kernels_detail::DotRowAvx2;
using kernels_detail::DotRowsAvx2;
using kernels_detail::SquaredDistanceRowAvx2;
using kernels_detail::SquaredDistanceRowsAvx2;

MARS_AVX2_FN void DotGatherAvx2(const float* u, const float* base,
                                size_t stride, const uint32_t* ids,
                                size_t count, size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotRowAvx2(u, base + ids[r] * stride, n);
  }
}

MARS_AVX2_FN void NegatedSquaredDistanceGatherAvx2(
    const float* u, const float* base, size_t stride, const uint32_t* ids,
    size_t count, size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = -SquaredDistanceRowAvx2(u, base + ids[r] * stride, n);
  }
}

/// J users' fused facet scores against one candidate entity block `v`:
/// score[j] = Σ_k ws[j][k] · <row op>(us[j] + k·u_stride, v + k·v_stride),
/// the row op a dot or (kDistance) a squared distance. J = 1 is the
/// per-row primitive WeightedFacetDot/WeightedFacetSquaredDistance run.
template <size_t J, bool kDistance>
MARS_AVX2_INLINE void WeightedFacetRowsAvx2(
    const float* const* us, size_t u_stride, const float* const* ws,
    const float* v, size_t v_stride, size_t num_facets, size_t n,
    float* score) {
  for (size_t j = 0; j < J; ++j) score[j] = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    const float* uk[J];
    for (size_t j = 0; j < J; ++j) uk[j] = us[j] + k * u_stride;
    float d[J];
    if constexpr (kDistance) {
      SquaredDistanceRowsAvx2<J>(uk, v + k * v_stride, n, d);
    } else {
      DotRowsAvx2<J>(uk, v + k * v_stride, n, d);
    }
    for (size_t j = 0; j < J; ++j) score[j] += ws[j][k] * d[j];
  }
}

template <bool kDistance>
MARS_AVX2_FN float WeightedFacetRowAvx2(const float* u, size_t u_stride,
                                        const float* v, size_t v_stride,
                                        const float* w, size_t num_facets,
                                        size_t n) {
  float score;
  WeightedFacetRowsAvx2<1, kDistance>(&u, u_stride, &w, v, v_stride,
                                      num_facets, n, &score);
  return score;
}

// Multi-user batch loops: candidate rows in the outer loop, so each row is
// loaded once per call and shared by every user tile — whole quads, then
// one tile of the R = B mod 4 remaining users. Whether there are quads and
// R are template arguments (the public kernels pick the instance once per
// call) and the remainder tile's pointers are hoisted out of the row loop,
// so a batch of one compiles to the single-user row loop: no quad code,
// no per-row dispatch. Every tile width runs each user's identical op
// sequence, so lane b is bit-identical to the per-row primitive for user b.

/// Users [0, J) of the tile against one candidate row, into column r.
template <size_t J, bool kDistance>
MARS_AVX2_INLINE void RowTileAvx2(const float* const* us, const float* row,
                                 size_t n, size_t r, float* const* out) {
  float s[J];
  if constexpr (kDistance) {
    SquaredDistanceRowsAvx2<J>(us, row, n, s);
    for (size_t j = 0; j < J; ++j) out[j][r] = -s[j];
  } else {
    DotRowsAvx2<J>(us, row, n, s);
    for (size_t j = 0; j < J; ++j) out[j][r] = s[j];
  }
}

template <bool kQuads, size_t R, bool kDistance>
MARS_AVX2_FN void RowBatchMultiAvx2(const float* const* us, size_t num_users,
                                    const float* rows, size_t count,
                                    size_t stride, size_t n,
                                    float* const* out) {
  const size_t quads = kQuads ? num_users - R : 0;
  std::array<const float*, R> rest_us;
  std::array<float*, R> rest_out;
  for (size_t j = 0; j < R; ++j) {
    rest_us[j] = us[quads + j];
    rest_out[j] = out[quads + j];
  }
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    if constexpr (kQuads) {
      for (size_t b = 0; b < quads; b += 4) {
        RowTileAvx2<4, kDistance>(us + b, row, n, r, out + b);
      }
    }
    if constexpr (R > 0) {
      RowTileAvx2<R, kDistance>(rest_us.data(), row, n, r, rest_out.data());
    }
  }
}

/// Users [0, J) of the tile against one candidate entity block.
template <size_t J, bool kDistance>
MARS_AVX2_INLINE void WeightedFacetTileAvx2(
    const float* const* us, size_t u_stride, const float* const* ws,
    const float* block, size_t row_stride, size_t num_facets, size_t n,
    size_t r, float* const* out) {
  float s[J];
  WeightedFacetRowsAvx2<J, kDistance>(us, u_stride, ws, block, row_stride,
                                      num_facets, n, s);
  for (size_t j = 0; j < J; ++j) out[j][r] = s[j];
}

template <bool kQuads, size_t R, bool kDistance>
MARS_AVX2_FN void WeightedFacetBatchMultiAvx2(
    const float* const* us, size_t u_stride, const float* const* ws,
    size_t num_users, const float* blocks, size_t block_stride,
    size_t row_stride, size_t num_facets, size_t count, size_t n,
    float* const* out) {
  const size_t quads = kQuads ? num_users - R : 0;
  std::array<const float*, R> rest_us, rest_ws;
  std::array<float*, R> rest_out;
  for (size_t j = 0; j < R; ++j) {
    rest_us[j] = us[quads + j];
    rest_ws[j] = ws[quads + j];
    rest_out[j] = out[quads + j];
  }
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    if constexpr (kQuads) {
      for (size_t b = 0; b < quads; b += 4) {
        WeightedFacetTileAvx2<4, kDistance>(us + b, u_stride, ws + b, block,
                                            row_stride, num_facets, n, r,
                                            out + b);
      }
    }
    if constexpr (R > 0) {
      WeightedFacetTileAvx2<R, kDistance>(
          rest_us.data(), u_stride, rest_ws.data(), block, row_stride,
          num_facets, n, r, rest_out.data());
    }
  }
}

/// The instances by [B >= 4][B mod 4], for the public kernels' one-time
/// pick. Measured on the 1024-row d = 32 dot sweep: with the quad loop
/// compiled into the B < 4 bodies, B = 1 spilled its pointers and ran
/// ~25% slower than the plain one-user loop; without it, it matches.
template <bool kDistance>
constexpr decltype(&RowBatchMultiAvx2<false, 0, kDistance>)
    kRowBatchMultiAvx2[2][4] = {
        {RowBatchMultiAvx2<false, 0, kDistance>,
         RowBatchMultiAvx2<false, 1, kDistance>,
         RowBatchMultiAvx2<false, 2, kDistance>,
         RowBatchMultiAvx2<false, 3, kDistance>},
        {RowBatchMultiAvx2<true, 0, kDistance>,
         RowBatchMultiAvx2<true, 1, kDistance>,
         RowBatchMultiAvx2<true, 2, kDistance>,
         RowBatchMultiAvx2<true, 3, kDistance>}};
template <bool kDistance>
constexpr decltype(&WeightedFacetBatchMultiAvx2<false, 0, kDistance>)
    kWeightedFacetBatchMultiAvx2[2][4] = {
        {WeightedFacetBatchMultiAvx2<false, 0, kDistance>,
         WeightedFacetBatchMultiAvx2<false, 1, kDistance>,
         WeightedFacetBatchMultiAvx2<false, 2, kDistance>,
         WeightedFacetBatchMultiAvx2<false, 3, kDistance>},
        {WeightedFacetBatchMultiAvx2<true, 0, kDistance>,
         WeightedFacetBatchMultiAvx2<true, 1, kDistance>,
         WeightedFacetBatchMultiAvx2<true, 2, kDistance>,
         WeightedFacetBatchMultiAvx2<true, 3, kDistance>}};

// IVF assignment as a register-tiled argmax. The centroids are packed
// once per call into 8-centroid column panels (dim d of centroid 8p+j at
// panel p, offset d*8 + j), so one load carries dim d of eight centroids
// and each lane runs a single FMA chain over the dims: no (row, centroid)
// pair pays a horizontal sum. A tile of up to four rows shares each panel
// load, two panels at a time (8 accumulators keep both FMA ports fed).
// Every lane's chain is the same FMA sequence whatever the tile shape, so
// a row's dots, and its argmax, depend only on that row and the centroids.
constexpr size_t kPanelWidth = 8;
constexpr size_t kTileRows = 4;

size_t NumPanels(size_t num_centroids) {
  return (num_centroids + kPanelWidth - 1) / kPanelWidth;
}

/// Packs the centroids into panels in a per-thread buffer sized from
/// num_centroids x n alone. Pad lanes of the last panel repeat the last
/// centroid: they tie it exactly and ties go to the lower index, so a pad
/// lane never wins.
const float* PackCentroidPanels(const float* centroids, size_t num_centroids,
                                size_t centroid_stride, size_t n) {
  static thread_local std::vector<float> panels;
  const size_t padded = NumPanels(num_centroids) * kPanelWidth;
  panels.resize(padded * n);
  for (size_t c = 0; c < padded; ++c) {
    const float* src =
        centroids + std::min(c, num_centroids - 1) * centroid_stride;
    float* dst = panels.data() + (c / kPanelWidth) * kPanelWidth * n +
                 c % kPanelWidth;
    for (size_t d = 0; d < n; ++d) dst[d * kPanelWidth] = src[d];
  }
  return panels.data();
}

/// acc[r][q] = the 8 dots of row r against panel q of `panel`.
template <size_t R, size_t Q>
MARS_AVX2_FN inline void PanelDotsAvx2(const float* rows, size_t stride,
                                       const float* panel, size_t n,
                                       __m256 (&acc)[R][Q]) {
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < Q; ++q) acc[r][q] = _mm256_setzero_ps();
  }
  for (size_t d = 0; d < n; ++d) {
    __m256 c[Q];
    for (size_t q = 0; q < Q; ++q) {
      c[q] = _mm256_loadu_ps(panel + (q * n + d) * kPanelWidth);
    }
    for (size_t r = 0; r < R; ++r) {
      const __m256 x = _mm256_broadcast_ss(rows + r * stride + d);
      for (size_t q = 0; q < Q; ++q) {
        acc[r][q] = _mm256_fmadd_ps(x, c[q], acc[r][q]);
      }
    }
  }
}

/// Per lane: keep `dots` where strictly greater (a lane sees its centroids
/// in ascending order, so it keeps the lowest index among its ties).
MARS_AVX2_FN inline void KeepBetterAvx2(__m256 dots, __m256i ids,
                                        __m256* best, __m256i* best_id) {
  const __m256 better = _mm256_cmp_ps(dots, *best, _CMP_GT_OQ);
  *best = _mm256_blendv_ps(*best, dots, better);
  *best_id = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(*best_id), _mm256_castsi256_ps(ids), better));
}

/// Assigns rows [0, R) of a tile against every panel.
template <size_t R>
MARS_AVX2_FN void ArgmaxTileAvx2(const float* rows, size_t stride,
                                 const float* panels, size_t num_panels,
                                 size_t n, uint32_t* out) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256 best[R];
  __m256i best_id[R];
  for (size_t r = 0; r < R; ++r) {
    best[r] = _mm256_set1_ps(-INFINITY);
    best_id[r] = _mm256_setzero_si256();
  }
  size_t p = 0;
  for (; p + 2 <= num_panels; p += 2) {
    __m256 acc[R][2];
    PanelDotsAvx2<R, 2>(rows, stride, panels + p * kPanelWidth * n, n, acc);
    for (size_t q = 0; q < 2; ++q) {
      const __m256i ids = _mm256_add_epi32(
          lane, _mm256_set1_epi32(static_cast<int>((p + q) * kPanelWidth)));
      for (size_t r = 0; r < R; ++r) {
        KeepBetterAvx2(acc[r][q], ids, &best[r], &best_id[r]);
      }
    }
  }
  if (p < num_panels) {
    __m256 acc[R][1];
    PanelDotsAvx2<R, 1>(rows, stride, panels + p * kPanelWidth * n, n, acc);
    const __m256i ids = _mm256_add_epi32(
        lane, _mm256_set1_epi32(static_cast<int>(p * kPanelWidth)));
    for (size_t r = 0; r < R; ++r) {
      KeepBetterAvx2(acc[r][0], ids, &best[r], &best_id[r]);
    }
  }
  // Across lanes: the max dot, ties to the lowest centroid index.
  for (size_t r = 0; r < R; ++r) {
    alignas(32) float v[kPanelWidth];
    alignas(32) uint32_t id[kPanelWidth];
    _mm256_store_ps(v, best[r]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(id), best_id[r]);
    size_t j_best = 0;
    for (size_t j = 1; j < kPanelWidth; ++j) {
      if (v[j] > v[j_best] || (v[j] == v[j_best] && id[j] < id[j_best])) {
        j_best = j;
      }
    }
    out[r] = id[j_best];
  }
}

MARS_AVX2_FN void NearestCentroidDotBatchAvx2(
    const float* rows, size_t count, size_t stride, const float* centroids,
    size_t num_centroids, size_t centroid_stride, size_t n, uint32_t* out) {
  const float* panels =
      PackCentroidPanels(centroids, num_centroids, centroid_stride, n);
  const size_t num_panels = NumPanels(num_centroids);
  size_t r = 0;
  for (; r + kTileRows <= count; r += kTileRows) {
    ArgmaxTileAvx2<kTileRows>(rows + r * stride, stride, panels, num_panels,
                              n, out + r);
  }
  const float* tail = rows + r * stride;
  switch (count - r) {
    case 3:
      ArgmaxTileAvx2<3>(tail, stride, panels, num_panels, n, out + r);
      break;
    case 2:
      ArgmaxTileAvx2<2>(tail, stride, panels, num_panels, n, out + r);
      break;
    case 1:
      ArgmaxTileAvx2<1>(tail, stride, panels, num_panels, n, out + r);
      break;
    default:
      break;
  }
}

#endif  // MARS_KERNELS_HAVE_AVX2

}  // namespace

void DotGather(const float* u, const float* base, size_t stride,
               const uint32_t* ids, size_t count, size_t n, float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    DotGatherAvx2(u, base, stride, ids, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotRowGeneric(u, base + ids[r] * stride, n);
  }
}

void NegatedSquaredDistanceGather(const float* u, const float* base,
                                  size_t stride, const uint32_t* ids,
                                  size_t count, size_t n, float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    NegatedSquaredDistanceGatherAvx2(u, base, stride, ids, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    out[r] = -SquaredDistanceRowGeneric(u, base + ids[r] * stride, n);
  }
}

float WeightedFacetDot(const float* u, size_t u_stride, const float* v,
                       size_t v_stride, const float* w, size_t num_facets,
                       size_t n) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    return WeightedFacetRowAvx2<false>(u, u_stride, v, v_stride, w,
                                       num_facets, n);
  }
#endif
  float score = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    score += w[k] * DotRowGeneric(u + k * u_stride, v + k * v_stride, n);
  }
  return score;
}

float WeightedFacetSquaredDistance(const float* u, size_t u_stride,
                                   const float* v, size_t v_stride,
                                   const float* w, size_t num_facets,
                                   size_t n) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    return WeightedFacetRowAvx2<true>(u, u_stride, v, v_stride, w,
                                      num_facets, n);
  }
#endif
  float score = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    score += w[k] * SquaredDistanceRowGeneric(u + k * u_stride,
                                              v + k * v_stride, n);
  }
  return score;
}

void NearestCentroidDotBatch(const float* rows, size_t count, size_t stride,
                             const float* centroids, size_t num_centroids,
                             size_t centroid_stride, size_t n,
                             uint32_t* out) {
  if (count == 0 || num_centroids == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    NearestCentroidDotBatchAvx2(rows, count, stride, centroids, num_centroids,
                                centroid_stride, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    float best = DotRowGeneric(row, centroids, n);
    uint32_t best_c = 0;
    for (size_t c = 1; c < num_centroids; ++c) {
      const float d = DotRowGeneric(row, centroids + c * centroid_stride, n);
      if (d > best) {
        best = d;
        best_c = static_cast<uint32_t>(c);
      }
    }
    out[r] = best_c;
  }
}

void DotBatchMulti(const float* const* us, size_t num_users,
                   const float* rows, size_t count, size_t stride, size_t n,
                   float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    kRowBatchMultiAvx2<false>[num_users >= 4][num_users % 4](
        us, num_users, rows, count, stride, n, out);
    return;
  }
#endif
  // Generic path: the candidate row stays hot across the inner user loop;
  // per user this is exactly the single-user generic reduction.
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    for (size_t b = 0; b < num_users; ++b) {
      out[b][r] = DotRowGeneric(us[b], row, n);
    }
  }
}

void NegatedSquaredDistanceBatchMulti(const float* const* us,
                                      size_t num_users, const float* rows,
                                      size_t count, size_t stride, size_t n,
                                      float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    kRowBatchMultiAvx2<true>[num_users >= 4][num_users % 4](
        us, num_users, rows, count, stride, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    for (size_t b = 0; b < num_users; ++b) {
      out[b][r] = -SquaredDistanceRowGeneric(us[b], row, n);
    }
  }
}

void WeightedFacetDotBatchMulti(const float* const* us, size_t u_stride,
                                const float* const* ws, size_t num_users,
                                const float* blocks, size_t block_stride,
                                size_t row_stride, size_t num_facets,
                                size_t count, size_t n, float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    kWeightedFacetBatchMultiAvx2<false>[num_users >= 4][num_users % 4](
        us, u_stride, ws, num_users, blocks, block_stride, row_stride,
        num_facets, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    for (size_t b = 0; b < num_users; ++b) {
      float score = 0.0f;
      for (size_t k = 0; k < num_facets; ++k) {
        score += ws[b][k] * DotRowGeneric(us[b] + k * u_stride,
                                          block + k * row_stride, n);
      }
      out[b][r] = score;
    }
  }
}

void WeightedFacetSquaredDistanceBatchMulti(
    const float* const* us, size_t u_stride, const float* const* ws,
    size_t num_users, const float* blocks, size_t block_stride,
    size_t row_stride, size_t num_facets, size_t count, size_t n,
    float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    kWeightedFacetBatchMultiAvx2<true>[num_users >= 4][num_users % 4](
        us, u_stride, ws, num_users, blocks, block_stride, row_stride,
        num_facets, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    for (size_t b = 0; b < num_users; ++b) {
      float score = 0.0f;
      for (size_t k = 0; k < num_facets; ++k) {
        score += ws[b][k] * SquaredDistanceRowGeneric(us[b] + k * u_stride,
                                                      block + k * row_stride,
                                                      n);
      }
      out[b][r] = score;
    }
  }
}

}  // namespace mars
