#include "common/kernels.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/facet_store.h"
#include "common/rng.h"
#include "common/vec.h"

namespace mars {
namespace {

std::vector<float> RandomVec(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

/// A block of `count` rows spaced `stride` apart, padding zeroed.
std::vector<float> RandomBlock(Rng* rng, size_t count, size_t stride,
                               size_t n) {
  std::vector<float> block(count * stride, 0.0f);
  for (size_t r = 0; r < count; ++r) {
    for (size_t i = 0; i < n; ++i) {
      block[r * stride + i] = static_cast<float>(rng->Normal());
    }
  }
  return block;
}

/// The block kernels at B = 1: one user's scores over `count` rows.
void DotBlock(const float* u, const float* rows, size_t count, size_t stride,
              size_t n, float* out) {
  DotBatchMulti(&u, 1, rows, count, stride, n, &out);
}
void NegatedSquaredDistanceBlock(const float* u, const float* rows,
                                 size_t count, size_t stride, size_t n,
                                 float* out) {
  NegatedSquaredDistanceBatchMulti(&u, 1, rows, count, stride, n, &out);
}

/// A FacetStore of `entities` entity blocks with normal random facet rows.
FacetStore RandomFacetStore(Rng* rng, size_t entities, size_t kf, size_t d) {
  FacetStore store(entities, kf, d);
  for (size_t e = 0; e < entities; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        store.Row(e, k)[i] = static_cast<float>(rng->Normal());
      }
    }
  }
  return store;
}

class BatchKernelShapes
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BatchKernelShapes, DotBatchMatchesPerRow) {
  const auto [n, count] = GetParam();
  const size_t stride = n + 3;  // deliberately padded
  Rng rng(1);
  const auto u = RandomVec(&rng, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<float> got(count, -1.0f);
  DotBlock(u.data(), block.data(), count, stride, n, got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(got[r], Dot(u.data(), block.data() + r * stride, n), 1e-5f)
        << "n=" << n << " r=" << r;
  }
}

// The squared-distance row primitive across shapes, read through the
// metric models' serving kernel (negation is exact, so -got is the row
// primitive's own result).
TEST_P(BatchKernelShapes, SquaredDistanceBatchMatchesPerRow) {
  const auto [n, count] = GetParam();
  const size_t stride = n + 1;
  Rng rng(2);
  const auto u = RandomVec(&rng, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<float> got(count);
  NegatedSquaredDistanceBlock(u.data(), block.data(), count, stride, n,
                              got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(-got[r],
                SquaredDistance(u.data(), block.data() + r * stride, n),
                1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchKernelShapes,
    ::testing::Combine(::testing::Values<size_t>(1, 4, 7, 32, 129),
                       ::testing::Values<size_t>(1, 2, 5, 8, 19, 37, 64)));

TEST(KernelsTest, DotGatherMatchesPerRow) {
  const size_t n = 24, stride = 32, rows = 50;
  Rng rng(6);
  const auto u = RandomVec(&rng, n);
  const auto base = RandomBlock(&rng, rows, stride, n);
  const std::vector<uint32_t> ids = {3, 3, 49, 0, 17, 21, 8};
  std::vector<float> got(ids.size());
  DotGather(u.data(), base.data(), stride, ids.data(), ids.size(), n,
            got.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(got[i], Dot(u.data(), base.data() + ids[i] * stride, n),
                1e-5f);
  }
}

TEST(KernelsTest, SquaredDistanceGatherMatchesPerRow) {
  const size_t n = 17, stride = 17, rows = 40;
  Rng rng(7);
  const auto u = RandomVec(&rng, n);
  const auto base = RandomBlock(&rng, rows, stride, n);
  const std::vector<uint32_t> ids = {39, 1, 1, 12};
  std::vector<float> got(ids.size());
  NegatedSquaredDistanceGather(u.data(), base.data(), stride, ids.data(),
                               ids.size(), n, got.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(-got[i],
                SquaredDistance(u.data(), base.data() + ids[i] * stride, n),
                1e-4f);
  }
}

TEST(KernelsTest, NegatedSquaredDistanceGatherMatchesPerRow) {
  const size_t n = 13, stride = 13, rows = 30;
  Rng rng(10);
  const auto u = RandomVec(&rng, n);
  const auto base = RandomBlock(&rng, rows, stride, n);
  const std::vector<uint32_t> ids = {0, 29, 7, 7, 15};
  std::vector<float> got(ids.size());
  NegatedSquaredDistanceGather(u.data(), base.data(), stride, ids.data(),
                               ids.size(), n, got.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(got[i],
                -SquaredDistance(u.data(), base.data() + ids[i] * stride, n),
                1e-4f);
  }
}

TEST(KernelsTest, WeightedFacetDotMatchesLoop) {
  const size_t kf = 4, d = 19;
  FacetStore users(3, kf, d), items(5, kf, d);
  Rng rng(8);
  for (size_t e = 0; e < 3; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        users.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  for (size_t e = 0; e < 5; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  for (size_t u = 0; u < 3; ++u) {
    for (size_t v = 0; v < 5; ++v) {
      float expect = 0.0f;
      for (size_t k = 0; k < kf; ++k) {
        expect += w[k] * Dot(users.Row(u, k), items.Row(v, k), d);
      }
      const float got = WeightedFacetDot(
          users.EntityBlock(u), users.row_stride(), items.EntityBlock(v),
          items.row_stride(), w.data(), kf, d);
      EXPECT_NEAR(got, expect, 1e-5f);
    }
  }
}

TEST(KernelsTest, NegatedSquaredDistanceBatchMatchesPerRow) {
  const size_t n = 13, count = 9, stride = n + 2;
  Rng rng(11);
  const auto u = RandomVec(&rng, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<float> got(count);
  NegatedSquaredDistanceBlock(u.data(), block.data(), count, stride, n,
                              got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(got[r],
                -SquaredDistance(u.data(), block.data() + r * stride, n),
                1e-4f);
  }
}

TEST(KernelsTest, WeightedFacetDotBatchSweepsContiguousBlocks) {
  // The MARS serving shape: one user entity block against a consecutive
  // run of item entity blocks straight out of a FacetStore.
  const size_t kf = 4, d = 17;
  Rng rng(12);
  const FacetStore users = RandomFacetStore(&rng, 2, kf, d);
  const FacetStore items = RandomFacetStore(&rng, 9, kf, d);
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  const size_t begin = 2, count = 6;
  std::vector<float> got(count, -1.0f);
  const float* u = users.EntityBlock(1);
  const float* wp = w.data();
  float* out = got.data();
  WeightedFacetDotBatchMulti(&u, users.row_stride(), &wp, 1,
                             items.EntityBlock(begin), items.entity_stride(),
                             items.row_stride(), kf, count, d, &out);
  for (size_t r = 0; r < count; ++r) {
    const float expect =
        WeightedFacetDot(users.EntityBlock(1), users.row_stride(),
                         items.EntityBlock(begin + r), items.row_stride(),
                         w.data(), kf, d);
    EXPECT_EQ(got[r], expect) << "candidate " << r;
  }
}

TEST(KernelsTest, WeightedFacetSquaredDistanceBatchSweepsContiguousBlocks) {
  const size_t kf = 3, d = 12;
  Rng rng(13);
  const FacetStore users = RandomFacetStore(&rng, 1, kf, d);
  const FacetStore items = RandomFacetStore(&rng, 7, kf, d);
  const std::vector<float> w = {0.5f, 0.25f, 0.25f};
  std::vector<float> got(items.num_entities());
  const float* u = users.EntityBlock(0);
  const float* wp = w.data();
  float* out = got.data();
  WeightedFacetSquaredDistanceBatchMulti(
      &u, users.row_stride(), &wp, 1, items.EntityBlock(0),
      items.entity_stride(), items.row_stride(), kf, items.num_entities(), d,
      &out);
  for (size_t v = 0; v < items.num_entities(); ++v) {
    const float expect = WeightedFacetSquaredDistance(
        users.EntityBlock(0), users.row_stride(), items.EntityBlock(v),
        items.row_stride(), w.data(), kf, d);
    EXPECT_EQ(got[v], expect) << "candidate " << v;
  }
}

TEST(KernelsTest, WeightedFacetSquaredDistanceMixedStrides) {
  // Dense K×d user buffer (stride d) against a padded FacetStore block.
  const size_t kf = 3, d = 12;
  FacetStore items(4, kf, d);
  Rng rng(9);
  std::vector<float> u(kf * d);
  for (auto& x : u) x = static_cast<float>(rng.Normal());
  for (size_t e = 0; e < 4; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  const std::vector<float> w = {0.5f, 0.25f, 0.25f};
  for (size_t v = 0; v < 4; ++v) {
    float expect = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      expect += w[k] * SquaredDistance(u.data() + k * d, items.Row(v, k), d);
    }
    const float got = WeightedFacetSquaredDistance(
        u.data(), d, items.EntityBlock(v), items.row_stride(), w.data(), kf,
        d);
    EXPECT_NEAR(got, expect, 1e-4f);
  }
}

TEST_P(BatchKernelShapes, NearestCentroidDotBatchMatchesArgmax) {
  const auto [n, count] = GetParam();
  const size_t stride = n + 2;          // padded rows
  const size_t centroid_stride = n + 1; // and differently padded centroids
  // Fewer than, exactly, and just past one 8-centroid panel, and a
  // partial third panel.
  for (const size_t num_centroids : {1, 5, 8, 9, 17}) {
    Rng rng(11 + num_centroids);
    const auto rows = RandomBlock(&rng, count, stride, n);
    const auto centroids =
        RandomBlock(&rng, num_centroids, centroid_stride, n);
    std::vector<uint32_t> got(count, 0xFFFFFFFFu);
    NearestCentroidDotBatch(rows.data(), count, stride, centroids.data(),
                            num_centroids, centroid_stride, n, got.data());
    for (size_t r = 0; r < count; ++r) {
      uint32_t best = 0;
      float best_dot = Dot(rows.data() + r * stride, centroids.data(), n);
      for (size_t c = 1; c < num_centroids; ++c) {
        const float d = Dot(rows.data() + r * stride,
                            centroids.data() + c * centroid_stride, n);
        if (d > best_dot) {
          best_dot = d;
          best = static_cast<uint32_t>(c);
        }
      }
      EXPECT_EQ(got[r], best) << "n=" << n << " centroids=" << num_centroids
                              << " row " << r;
    }
  }
}

// --- Multi-user forms: the contract is *bit*-identity (EXPECT_EQ, no
// tolerance) per user against the per-row primitive the family shares
// with its gather form (DotGather, NegatedSquaredDistanceGather,
// WeightedFacetDot, WeightedFacetSquaredDistance), and so against the same
// kernel called for that user alone — TopKBatch's batch≡solo guarantee
// bottoms out here. B values cover every remainder after whole user quads
// (1..5, 7, 8); n values cover the 16-, 8-, and scalar-tail code paths.

class MultiUserKernels
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  /// B user rows against `count` candidate rows, both `stride` apart.
  struct RowCase {
    RowCase(size_t n, size_t num_users, size_t count, size_t stride,
            uint64_t seed)
        : n(n), count(count), stride(stride) {
      Rng rng(seed);
      users = RandomBlock(&rng, num_users, stride, n);
      rows = RandomBlock(&rng, count, stride, n);
      for (size_t b = 0; b < num_users; ++b) {
        us.push_back(users.data() + b * stride);
      }
      for (size_t r = 0; r < count; ++r) {
        ids.push_back(static_cast<uint32_t>(r));
      }
    }
    /// `kernel` over users [first, first + num): one score row per user.
    template <typename Kernel>
    std::vector<std::vector<float>> Run(Kernel kernel, size_t first,
                                       size_t num) const {
      std::vector<std::vector<float>> out(num,
                                          std::vector<float>(count, -1.0f));
      std::vector<float*> outs;
      for (auto& o : out) outs.push_back(o.data());
      kernel(us.data() + first, num, rows.data(), count, stride, n,
             outs.data());
      return out;
    }
    /// The gather form over every row, for user b.
    template <typename Gather>
    std::vector<float> Gathered(Gather gather, size_t b) const {
      std::vector<float> out(count);
      gather(us[b], rows.data(), stride, ids.data(), count, n, out.data());
      return out;
    }
    size_t n, count, stride;
    std::vector<float> users, rows;
    std::vector<const float*> us;
    std::vector<uint32_t> ids;
  };

  /// B user entity blocks, each with its own facet weights, against
  /// `count` item entity blocks.
  struct FacetCase {
    FacetCase(size_t n, size_t num_users, size_t kf, size_t count,
              uint64_t seed)
        : n(n), kf(kf), count(count) {
      Rng rng(seed);
      users = RandomFacetStore(&rng, num_users, kf, n);
      items = RandomFacetStore(&rng, count, kf, n);
      wbuf.resize(num_users * kf);  // per-user weights, all distinct
      for (auto& x : wbuf) x = 0.1f + static_cast<float>(rng.Uniform());
      for (size_t b = 0; b < num_users; ++b) {
        us.push_back(users.EntityBlock(b));
        ws.push_back(wbuf.data() + b * kf);
      }
    }
    template <typename Kernel>
    std::vector<std::vector<float>> Run(Kernel kernel, size_t first,
                                       size_t num) const {
      std::vector<std::vector<float>> out(num,
                                          std::vector<float>(count, -1.0f));
      std::vector<float*> outs;
      for (auto& o : out) outs.push_back(o.data());
      kernel(us.data() + first, users.row_stride(), ws.data() + first, num,
             items.EntityBlock(0), items.entity_stride(), items.row_stride(),
             kf, count, n, outs.data());
      return out;
    }
    /// The per-row facet score against every block, for user b.
    template <typename RowScore>
    std::vector<float> PerRow(RowScore score, size_t b) const {
      std::vector<float> out(count);
      for (size_t r = 0; r < count; ++r) {
        out[r] = score(us[b], users.row_stride(), items.EntityBlock(r),
                       items.row_stride(), ws[b], kf, n);
      }
      return out;
    }
    size_t n, kf, count;
    FacetStore users, items;
    std::vector<float> wbuf;
    std::vector<const float*> us, ws;
  };
};

TEST_P(MultiUserKernels, DotBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const RowCase c(n, num_users, 23, n + 3, 31);
  const auto multi = c.Run(DotBatchMulti, 0, num_users);
  for (size_t b = 0; b < num_users; ++b) {
    EXPECT_EQ(multi[b], c.Gathered(DotGather, b))
        << "n=" << n << " B=" << num_users << " user " << b;
    EXPECT_EQ(multi[b], c.Run(DotBatchMulti, b, 1)[0]) << "user " << b;
  }
}

TEST_P(MultiUserKernels, NegatedSquaredDistanceBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const RowCase c(n, num_users, 17, n + 1, 32);
  const auto multi = c.Run(NegatedSquaredDistanceBatchMulti, 0, num_users);
  for (size_t b = 0; b < num_users; ++b) {
    EXPECT_EQ(multi[b], c.Gathered(NegatedSquaredDistanceGather, b))
        << "n=" << n << " B=" << num_users << " user " << b;
    EXPECT_EQ(multi[b], c.Run(NegatedSquaredDistanceBatchMulti, b, 1)[0])
        << "user " << b;
  }
}

TEST_P(MultiUserKernels, WeightedFacetDotBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const FacetCase c(n, num_users, 3, 9, 33);
  const auto multi = c.Run(WeightedFacetDotBatchMulti, 0, num_users);
  for (size_t b = 0; b < num_users; ++b) {
    EXPECT_EQ(multi[b], c.PerRow(WeightedFacetDot, b))
        << "n=" << n << " B=" << num_users << " user " << b;
    EXPECT_EQ(multi[b], c.Run(WeightedFacetDotBatchMulti, b, 1)[0])
        << "user " << b;
  }
}

TEST_P(MultiUserKernels, WeightedFacetSquaredDistanceBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const FacetCase c(n, num_users, 4, 7, 34);
  const auto multi =
      c.Run(WeightedFacetSquaredDistanceBatchMulti, 0, num_users);
  for (size_t b = 0; b < num_users; ++b) {
    EXPECT_EQ(multi[b], c.PerRow(WeightedFacetSquaredDistance, b))
        << "n=" << n << " B=" << num_users << " user " << b;
    EXPECT_EQ(multi[b],
              c.Run(WeightedFacetSquaredDistanceBatchMulti, b, 1)[0])
        << "user " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiUserKernels,
    ::testing::Combine(::testing::Values<size_t>(5, 8, 16, 19, 32, 37),
                       ::testing::Values<size_t>(1, 2, 3, 4, 5, 7, 8)));

TEST(KernelsTest, BlockKernelsWithNoUsersOrRowsWriteNothing) {
  // num_users == 0 and count == 0 are no-ops: no score is written and no
  // row or weight pointer is read (every input pointer here is null).
  std::vector<float> a(4, -7.0f), b(4, -7.0f);
  float* outs[2] = {a.data(), b.data()};
  const float* none[2] = {nullptr, nullptr};
  for (const auto [num_users, count] :
       {std::pair<size_t, size_t>{0, 4}, {2, 0}}) {
    DotBatchMulti(none, num_users, nullptr, count, 8, 8, outs);
    NegatedSquaredDistanceBatchMulti(none, num_users, nullptr, count, 8, 8,
                                     outs);
    WeightedFacetDotBatchMulti(none, 8, none, num_users, nullptr, 32, 8, 4,
                               count, 8, outs);
    WeightedFacetSquaredDistanceBatchMulti(none, 8, none, num_users, nullptr,
                                           32, 8, 4, count, 8, outs);
  }
  EXPECT_EQ(a, std::vector<float>(4, -7.0f));
  EXPECT_EQ(b, std::vector<float>(4, -7.0f));
}

TEST(KernelsTest, NearestCentroidDotBatchBreaksTiesToLowestIndex) {
  // Duplicate centroids dot identically against every row; the pinned
  // tie rule (strict improvement only) must pick the lower index, on
  // both the generic and vectorized paths.
  const size_t n = 19, count = 6, num_centroids = 4;
  Rng rng(21);
  const auto rows = RandomBlock(&rng, count, n, n);
  auto centroids = RandomBlock(&rng, num_centroids, n, n);
  for (size_t c = 1; c < num_centroids; ++c) {
    Copy(centroids.data(), centroids.data() + c * n, n);
  }
  std::vector<uint32_t> got(count, 0xFFFFFFFFu);
  NearestCentroidDotBatch(rows.data(), count, n, centroids.data(),
                          num_centroids, n, n, got.data());
  for (size_t r = 0; r < count; ++r) EXPECT_EQ(got[r], 0u) << "row " << r;

  // A winning duplicate pair straddling the 8-centroid panel boundary
  // (centroid 7 == centroid 8) lands in different lanes and panels of the
  // vectorized path; the lower index must still win.
  const size_t wide = 12;
  auto positive = RandomBlock(&rng, count, n, n);
  for (auto& x : positive) x = std::abs(x);
  auto straddling = RandomBlock(&rng, wide, n, n);
  for (size_t i = 0; i < n; ++i) straddling[7 * n + i] = 100.0f;
  Copy(straddling.data() + 7 * n, straddling.data() + 8 * n, n);
  NearestCentroidDotBatch(positive.data(), count, n, straddling.data(), wide,
                          n, n, got.data());
  for (size_t r = 0; r < count; ++r) EXPECT_EQ(got[r], 7u) << "row " << r;
}

TEST(KernelsTest, NearestCentroidDotBatchIsTilingInvariant) {
  // A row's assignment depends only on that row and the centroids: the
  // same block assigned whole, row by row, or split at every offset that
  // shifts rows within a tile gives identical results. The centroids come
  // in near-duplicate pairs so that the argmax hinges on last-bit
  // rounding, which any shape-dependent reduction order would flip.
  for (const size_t n : {8, 19, 128}) {
    const size_t count = 37, num_centroids = 17;
    Rng rng(31 + n);
    const auto rows = RandomBlock(&rng, count, n, n);
    auto centroids = RandomBlock(&rng, num_centroids, n, n);
    for (size_t c = 1; c < num_centroids; c += 2) {
      for (size_t i = 0; i < n; ++i) {
        const float jitter = 1e-7f * static_cast<float>(rng.Normal());
        centroids[c * n + i] = centroids[(c - 1) * n + i] * (1.0f + jitter);
      }
    }
    std::vector<uint32_t> whole(count);
    NearestCentroidDotBatch(rows.data(), count, n, centroids.data(),
                            num_centroids, n, n, whole.data());
    std::vector<uint32_t> got(count, 0xFFFFFFFFu);
    for (size_t r = 0; r < count; ++r) {
      NearestCentroidDotBatch(rows.data() + r * n, 1, n, centroids.data(),
                              num_centroids, n, n, got.data() + r);
    }
    EXPECT_EQ(got, whole) << "row by row, n=" << n;
    for (size_t split = 1; split <= 7; ++split) {
      std::fill(got.begin(), got.end(), 0xFFFFFFFFu);
      NearestCentroidDotBatch(rows.data(), split, n, centroids.data(),
                              num_centroids, n, n, got.data());
      NearestCentroidDotBatch(rows.data() + split * n, count - split, n,
                              centroids.data(), num_centroids, n, n,
                              got.data() + split);
      EXPECT_EQ(got, whole) << "split at " << split << ", n=" << n;
    }
  }
}

}  // namespace
}  // namespace mars
