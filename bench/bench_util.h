// Shared helpers for the paper-table and serving bench binaries.
#ifndef MARS_BENCH_BENCH_UTIL_H_
#define MARS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exp/experiment.h"

namespace mars {
namespace bench {

/// Formats a metric the way the paper prints it (4 decimals).
inline std::string Metric(double value) { return FormatFixed(value, 4); }

/// Relative improvement string "a vs b" → "+12.34%".
inline std::string Improvement(double ours, double baseline) {
  if (baseline <= 0.0) return "n/a";
  return FormatPercent(ours / baseline - 1.0);
}

/// Trains the strongest single-space baselines and returns the best value
/// of `metric` among them — the "best baseline" reference line the paper
/// uses in Fig. 5/6 and the Imp columns.
inline double BestBaselineMetric(ExperimentData* data,
                                 const std::string& dataset_name,
                                 const std::string& metric, bool fast,
                                 ThreadPool* pool) {
  double best = 0.0;
  for (ModelId id : {ModelId::kCml, ModelId::kTransCf, ModelId::kSml}) {
    const ExperimentResult r =
        RunZooExperiment(id, data, dataset_name, {}, fast, pool);
    best = std::max(best, r.test.Get(metric));
  }
  return best;
}

/// The same-run acceptance gates of a bench binary. Each check prints
/// `gate <name>: <value> <op> <bar> ok|FAIL` and the binary keeps going,
/// so one run reports every section; main returns Finish() at the end,
/// 1 if any gate failed.
class Gates {
 public:
  void AtLeast(const std::string& name, double value, double bar) {
    Report(name, value, ">=", bar, value >= bar);
  }
  void AtMost(const std::string& name, double value, double bar) {
    Report(name, value, "<=", bar, value <= bar);
  }
  void Equal(const std::string& name, double value, double bar) {
    Report(name, value, "==", bar, value == bar);
  }
  int Finish() const {
    std::printf("\n%zu gate(s), %zu failed\n", checked_, failed_);
    return failed_ > 0 ? 1 : 0;
  }

 private:
  void Report(const std::string& name, double value, const char* op,
              double bar, bool ok) {
    std::printf("gate %s: %.6g %s %g %s\n", name.c_str(), value, op, bar,
                ok ? "ok" : "FAIL");
    ++checked_;
    if (!ok) ++failed_;
  }

  size_t checked_ = 0;
  size_t failed_ = 0;
};

/// Prints the standard bench banner with fast-mode notice.
inline void Banner(const std::string& title) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title.c_str());
  if (BenchFastMode()) {
    std::printf("(MARS_BENCH_FAST=1: shrunken datasets / fewer epochs)\n");
  }
  std::printf("=====================================================\n\n");
}

}  // namespace bench
}  // namespace mars

#endif  // MARS_BENCH_BENCH_UTIL_H_
