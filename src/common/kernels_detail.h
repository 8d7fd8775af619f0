// Internal kernel row primitives: the autovectorized generic forms and
// their AVX2+FMA intrinsic twins, plus the runtime CPU check that picks
// between them. Shared between common/kernels.cc (which dispatches) and
// bench/microbench_kernels.cpp (which A/B-times both paths — the ROADMAP
// "SIMD-explicit kernels" item is measure-first, so the comparison has to
// stay runnable after adoption).
//
// Numerical contract: within one build, every batch/gather/facet kernel
// of a scoring family reduces rows with the *same* primitive, so
// ScoreItems (gather) and ScoreItemRange (batch) stay bit-identical —
// the equivalence the serving tests pin. The AVX2 forms use one fused
// 8-lane FMA chain per accumulator instead of the generic two 4-lane
// chains, so results differ from the generic path in final-bit rounding;
// that is fine *across* paths (a host either has AVX2 or does not) but
// means the two paths must never be mixed inside one family at runtime —
// which the single HasAvx2Fma() branch point guarantees.
//
// x86-only by construction; every other architecture compiles the
// generic forms alone and HasAvx2Fma() constant-folds to false.
#ifndef MARS_COMMON_KERNELS_DETAIL_H_
#define MARS_COMMON_KERNELS_DETAIL_H_

#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MARS_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define MARS_KERNELS_HAVE_AVX2 0
#endif

namespace mars {
namespace kernels_detail {

// --- Generic forms: 8-wide accumulator arrays the compiler turns into
// two independent SIMD reduction chains at the build's baseline ISA. ----

inline float DotRowGeneric(const float* a, const float* b, size_t n) {
  float acc[8] = {0.0f};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) acc[j] += a[i + j] * b[i + j];
  }
  float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
            ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline float SquaredDistanceRowGeneric(const float* a, const float* b,
                                       size_t n) {
  float acc[8] = {0.0f};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const float dlt = a[i + j] - b[i + j];
      acc[j] += dlt * dlt;
    }
  }
  float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
            ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) {
    const float dlt = a[i] - b[i];
    s += dlt * dlt;
  }
  return s;
}

#if MARS_KERNELS_HAVE_AVX2

#define MARS_AVX2_FN __attribute__((target("avx2,fma")))
// The row primitives are forced inline: the batch loops keep their user
// and output pointers in registers across rows only when the primitive's
// body is part of the loop.
#define MARS_AVX2_INLINE \
  __attribute__((target("avx2,fma"), always_inline)) inline

/// True when the running CPU supports the avx2+fma code paths. One check,
/// cached — all dispatch flows through here so a process never mixes the
/// two rounding behaviors within a kernel family.
inline bool HasAvx2Fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

MARS_AVX2_FN inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// Row primitives over J query rows that share one candidate row `b`,
// register-blocked: each of b's vectors is loaded once per 16-float step
// and fed to all J users' FMA chains (at J = 4: 8 ymm accumulators + 2 row
// registers). Per user the op sequence is the same at every J (two
// accumulator FMA chains, Hsum256, scalar tail), so lane j is
// bit-identical to the J = 1 form — the per-row primitive that the gather
// kernels run, and the lane contract of every multi-user kernel.

template <size_t J>
MARS_AVX2_INLINE void DotRowsAvx2(const float* const* a, const float* b,
                                 size_t n, float* out) {
  __m256 acc0[J], acc1[J];
  for (size_t j = 0; j < J; ++j) {
    acc0[j] = _mm256_setzero_ps();
    acc1[j] = _mm256_setzero_ps();
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    const __m256 b1 = _mm256_loadu_ps(b + i + 8);
    for (size_t j = 0; j < J; ++j) {
      acc0[j] = _mm256_fmadd_ps(_mm256_loadu_ps(a[j] + i), b0, acc0[j]);
      acc1[j] = _mm256_fmadd_ps(_mm256_loadu_ps(a[j] + i + 8), b1, acc1[j]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    for (size_t j = 0; j < J; ++j) {
      acc0[j] = _mm256_fmadd_ps(_mm256_loadu_ps(a[j] + i), b0, acc0[j]);
    }
  }
  for (size_t j = 0; j < J; ++j) {
    float s = Hsum256(_mm256_add_ps(acc0[j], acc1[j]));
    for (size_t t = i; t < n; ++t) s += a[j][t] * b[t];
    out[j] = s;
  }
}

template <size_t J>
MARS_AVX2_INLINE void SquaredDistanceRowsAvx2(const float* const* a,
                                             const float* b, size_t n,
                                             float* out) {
  __m256 acc0[J], acc1[J];
  for (size_t j = 0; j < J; ++j) {
    acc0[j] = _mm256_setzero_ps();
    acc1[j] = _mm256_setzero_ps();
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    const __m256 b1 = _mm256_loadu_ps(b + i + 8);
    for (size_t j = 0; j < J; ++j) {
      const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a[j] + i), b0);
      const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a[j] + i + 8), b1);
      acc0[j] = _mm256_fmadd_ps(d0, d0, acc0[j]);
      acc1[j] = _mm256_fmadd_ps(d1, d1, acc1[j]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    for (size_t j = 0; j < J; ++j) {
      const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a[j] + i), b0);
      acc0[j] = _mm256_fmadd_ps(d0, d0, acc0[j]);
    }
  }
  for (size_t j = 0; j < J; ++j) {
    float s = Hsum256(_mm256_add_ps(acc0[j], acc1[j]));
    for (size_t t = i; t < n; ++t) {
      const float dlt = a[j][t] - b[t];
      s += dlt * dlt;
    }
    out[j] = s;
  }
}

MARS_AVX2_INLINE float DotRowAvx2(const float* a, const float* b, size_t n) {
  float s;
  DotRowsAvx2<1>(&a, b, n, &s);
  return s;
}

MARS_AVX2_INLINE float SquaredDistanceRowAvx2(const float* a, const float* b,
                                              size_t n) {
  float s;
  SquaredDistanceRowsAvx2<1>(&a, b, n, &s);
  return s;
}

#else  // !MARS_KERNELS_HAVE_AVX2

inline bool HasAvx2Fma() { return false; }

#endif  // MARS_KERNELS_HAVE_AVX2

}  // namespace kernels_detail
}  // namespace mars

#endif  // MARS_COMMON_KERNELS_DETAIL_H_
