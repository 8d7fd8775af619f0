// Traced-run instrumentation, built entirely from outside the program:
// decorators that wrap the public ItemScorer and CandidateIndex surfaces
// and time each call, and an in-memory span log (name, start, end,
// parent, request id) written out when the run ends. The untraced run
// never constructs any of this, so its end-to-end numbers carry no
// tracing cost; the traced run reports the difference as trace.overhead.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ann/candidate_index.h"
#include "eval/scorer.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: no parent span on this thread
  uint64_t request = 0;  // 0: not tied to one request
};

/// Process-wide span log. Each thread appends to its own buffer; buffers
/// are merged when the log is written. Spans beyond kMaxSpans are counted
/// but not kept, so memory stays bounded on long runs.
class SpanLog {
 public:
  static constexpr size_t kMaxSpans = 1u << 20;

  struct Buffer;  // one thread's spans

  static SpanLog& Get();

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  size_t recorded() const { return recorded_.load(); }
  size_t dropped() const { return dropped_.load(); }
  /// Writes every kept span as one JSON object per line; false on I/O
  /// error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Buffer* ThreadBuffer();

  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> recorded_{0};
  std::atomic<size_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ (not the buffers' contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: opens on construction, records on destruction, and is the
/// parent of spans opened inside it on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  uint64_t saved_parent_;
  uint64_t saved_request_;
};

/// Counters the decorators accumulate (relaxed atomics; read quiesced).
struct LayerCounters {
  // core: model scoring surfaces.
  std::atomic<uint64_t> score_calls{0};
  std::atomic<uint64_t> rows_scored{0};
  std::atomic<uint64_t> score_ns{0};
  // ann: candidate index.
  std::atomic<uint64_t> probe_calls{0};
  std::atomic<uint64_t> probe_batch_calls{0};
  std::atomic<uint64_t> probe_queries{0};
  std::atomic<uint64_t> probe_ns{0};
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> rebuilds{0};
  std::atomic<uint64_t> rebuild_ns{0};

  void Reset();
};

LayerCounters& Counters();

/// Times ScoreItems, ScoreItemRange and ScoreItemRangeMulti of the
/// wrapped model; every other call forwards unchanged.
class TracedScorer : public mars::ItemScorer {
 public:
  explicit TracedScorer(std::shared_ptr<const mars::ItemScorer> inner)
      : inner_(std::move(inner)) {}

  float Score(mars::UserId u, mars::ItemId v) const override {
    return inner_->Score(u, v);
  }
  void ScoreItems(mars::UserId u, std::span<const mars::ItemId> items,
                  float* out) const override;
  void ScoreItemRange(mars::UserId u, mars::ItemId begin, mars::ItemId end,
                      float* out) const override;
  void ScoreItemRangeMulti(std::span<const mars::UserId> users,
                           mars::ItemId begin, mars::ItemId end,
                           float* const* out) const override;
  bool thread_safe() const override { return inner_->thread_safe(); }
  mars::IndexGeometry index_geometry() const override {
    return inner_->index_geometry();
  }
  size_t index_dim() const override { return inner_->index_dim(); }
  void CopyIndexVectors(mars::ItemId begin, mars::ItemId end,
                        float* out) const override {
    inner_->CopyIndexVectors(begin, end, out);
  }
  void WriteIndexQuery(mars::UserId u, float* out) const override {
    inner_->WriteIndexQuery(u, out);
  }

 private:
  std::shared_ptr<const mars::ItemScorer> inner_;
};

/// Times Probe, ProbeBatch and Rebuilt of the wrapped index. Rebuilt
/// returns a traced index again, so incremental publishes stay traced.
class TracedIndex : public mars::CandidateIndex {
 public:
  explicit TracedIndex(std::shared_ptr<const mars::CandidateIndex> inner);

  const char* kind() const override { return inner_->kind(); }
  void Probe(const float* query, size_t want,
             std::vector<mars::ItemId>* out) const override;
  void ProbeBatch(const float* queries, size_t num_queries,
                  const size_t* want,
                  std::vector<std::vector<mars::ItemId>>* out) const override;
  std::unique_ptr<mars::CandidateIndex> Rebuilt(
      const mars::ItemScorer& model, const std::vector<size_t>& dirty_shards,
      size_t num_shards, mars::ThreadPool* pool) const override;
  bool mapped() const override { return inner_->mapped(); }

 private:
  std::shared_ptr<const mars::CandidateIndex> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
