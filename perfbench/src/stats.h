// Measurement rules shared by every perfbench workload: the tail
// percentile rule, the geometric rate ladder and its search, and the
// open-loop backlog test. Kept free of I/O so perfbench/tests can pin
// each rule on synthetic inputs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank percentile of `sorted` (ascending); p in (0, 100].
inline double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = std::clamp<size_t>(static_cast<size_t>(rank), 1,
                                        sorted.size()) - 1;
  return sorted[idx];
}

/// Samples of `n` that lie strictly beyond the nearest-rank p-th
/// percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<size_t>(rank));
}

/// The tail rule: the highest percentile on a fixed ladder, at most `cap`,
/// that keeps at least kTailSamples samples beyond it (1000 samples give
/// p99, 500 give p98). Returns 0 when even the median has fewer than
/// kTailSamples beyond it.
inline double TailPercentile(size_t n, double cap = 99.0) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 97.0, 96.0,
                                       95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p <= cap && SamplesBeyond(n, p) >= kTailSamples) return p;
  }
  return 0.0;
}

/// Median and rule-chosen tail of one set of samples.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  // which percentile `tail` is (99 when n >= 1000)
  double tail = 0.0;
};

/// Summarizes `samples` (reordered in place). `cap` bounds the tail
/// percentile, so a metric named p99 never reports a higher one.
inline Summary Summarize(std::vector<double>* samples, double cap = 99.0) {
  Summary s;
  s.n = samples->size();
  if (s.n == 0) return s;
  std::sort(samples->begin(), samples->end());
  s.p50 = PercentileOfSorted(*samples, 50.0);
  s.tail_p = TailPercentile(s.n, cap);
  s.tail = s.tail_p > 0 ? PercentileOfSorted(*samples, s.tail_p) : s.p50;
  return s;
}

/// Fixed geometric rate ladder: rung i runs at base · 2^(i / steps_per_octave).
struct RateLadder {
  double base = 1000.0;
  int steps_per_octave = 8;
  int min_rung = 0;
  int max_rung = 80;

  double Rate(int rung) const {
    return base * std::exp2(static_cast<double>(rung) / steps_per_octave);
  }
};

/// Result of a ladder search.
struct LadderResult {
  int best_rung = -1;  // -1: no rung passed
  double best_rate = 0.0;
  std::vector<int> tried;  // rungs in the order they ran
};

/// Finds the highest passing rung, assuming pass(rung) is monotone (every
/// rung below a passing one passes). Starts at `start`, climbs an octave
/// at a time while rungs pass (descends while they fail), then bisects
/// the last octave. Each rung runs at most once.
inline LadderResult SearchLadder(const RateLadder& ladder, int start,
                                 const std::function<bool(int)>& pass) {
  LadderResult out;
  auto run = [&](int rung) {
    out.tried.push_back(rung);
    return pass(rung);
  };
  const int step = ladder.steps_per_octave;
  int lo = -1;                   // highest rung known to pass
  int hi = ladder.max_rung + 1;  // lowest rung known to fail
  int r = std::clamp(start, ladder.min_rung, ladder.max_rung);
  if (run(r)) {
    lo = r;
    while (lo < ladder.max_rung) {
      const int next = std::min(lo + step, ladder.max_rung);
      if (run(next)) {
        lo = next;
      } else {
        hi = next;
        break;
      }
    }
  } else {
    hi = r;
    while (hi > ladder.min_rung) {
      const int next = std::max(hi - step, ladder.min_rung);
      if (run(next)) {
        lo = next;
        break;
      }
      hi = next;
    }
  }
  if (lo < 0) return out;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.best_rung = lo;
  out.best_rate = ladder.Rate(lo);
  return out;
}

/// Open-loop backlog test. `backlog` holds evenly spaced samples of
/// (requests due so far - responses received so far) over one sending
/// window. The backlog grows when the mean of the last third exceeds the
/// mean of the first third by more than `slack` requests and by half of
/// itself again — a server keeping up holds a flat backlog around
/// rate × latency; one falling behind adds (rate - capacity) per second.
inline bool BacklogGrowing(const std::vector<double>& backlog, double slack) {
  const size_t third = backlog.size() / 3;
  if (third == 0) return false;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < third; ++i) {
    first += backlog[i];
    last += backlog[backlog.size() - third + i];
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  return last > first + slack && last > 1.5 * first;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
