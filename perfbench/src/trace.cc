#include "trace.h"

#include <cstdio>

#include "loadgen.h"

namespace perfbench {

struct SpanLog::Buffer {
  std::vector<Span> spans;
};

namespace {

thread_local SpanLog::Buffer* tls_buffer = nullptr;
thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_request = 0;

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer* SpanLog::ThreadBuffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    tls_buffer = buffers_.back().get();
  }
  return tls_buffer;
}

void SpanLog::Record(const Span& span) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer()->spans.push_back(span);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : saved_parent_(tls_parent), saved_request_(tls_request) {
  span_.name = name;
  span_.id = SpanLog::Get().NextId();
  span_.parent = tls_parent;
  span_.request = request != 0 ? request : tls_request;
  tls_parent = span_.id;
  tls_request = span_.request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  tls_parent = saved_parent_;
  tls_request = saved_request_;
  SpanLog::Get().Record(span_);
}

void LayerCounters::Reset() {
  for (auto* c : {&score_calls, &rows_scored, &score_ns, &probe_calls,
                  &probe_batch_calls, &probe_queries, &probe_ns, &candidates,
                  &rebuilds, &rebuild_ns}) {
    c->store(0, std::memory_order_relaxed);
  }
}

LayerCounters& Counters() {
  static LayerCounters counters;
  return counters;
}

namespace {

void AddScore(uint64_t rows, uint64_t t0) {
  LayerCounters& c = Counters();
  c.score_calls.fetch_add(1, std::memory_order_relaxed);
  c.rows_scored.fetch_add(rows, std::memory_order_relaxed);
  c.score_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
}

}  // namespace

void TracedScorer::ScoreItems(mars::UserId u,
                              std::span<const mars::ItemId> items,
                              float* out) const {
  ScopedSpan span("core.score_items");
  const uint64_t t0 = NowNs();
  inner_->ScoreItems(u, items, out);
  AddScore(items.size(), t0);
}

void TracedScorer::ScoreItemRange(mars::UserId u, mars::ItemId begin,
                                  mars::ItemId end, float* out) const {
  ScopedSpan span("core.score_item_range");
  const uint64_t t0 = NowNs();
  inner_->ScoreItemRange(u, begin, end, out);
  AddScore(end - begin, t0);
}

void TracedScorer::ScoreItemRangeMulti(std::span<const mars::UserId> users,
                                       mars::ItemId begin, mars::ItemId end,
                                       float* const* out) const {
  ScopedSpan span("core.score_item_range_multi");
  const uint64_t t0 = NowNs();
  inner_->ScoreItemRangeMulti(users, begin, end, out);
  AddScore(static_cast<uint64_t>(end - begin) * users.size(), t0);
}

TracedIndex::TracedIndex(std::shared_ptr<const mars::CandidateIndex> inner)
    : inner_(std::move(inner)) {
  num_items_ = inner_->num_items();
  dim_ = inner_->dim();
}

void TracedIndex::Probe(const float* query, size_t want,
                        std::vector<mars::ItemId>* out) const {
  ScopedSpan span("ann.probe");
  const size_t before = out->size();
  const uint64_t t0 = NowNs();
  inner_->Probe(query, want, out);
  LayerCounters& c = Counters();
  c.probe_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  c.probe_calls.fetch_add(1, std::memory_order_relaxed);
  c.probe_queries.fetch_add(1, std::memory_order_relaxed);
  c.candidates.fetch_add(out->size() - before, std::memory_order_relaxed);
}

void TracedIndex::ProbeBatch(
    const float* queries, size_t num_queries, const size_t* want,
    std::vector<std::vector<mars::ItemId>>* out) const {
  ScopedSpan span("ann.probe_batch");
  size_t before = 0;
  for (size_t q = 0; q < num_queries; ++q) before += (*out)[q].size();
  const uint64_t t0 = NowNs();
  inner_->ProbeBatch(queries, num_queries, want, out);
  LayerCounters& c = Counters();
  c.probe_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  size_t after = 0;
  for (size_t q = 0; q < num_queries; ++q) after += (*out)[q].size();
  c.probe_batch_calls.fetch_add(1, std::memory_order_relaxed);
  c.probe_queries.fetch_add(num_queries, std::memory_order_relaxed);
  c.candidates.fetch_add(after - before, std::memory_order_relaxed);
}

std::unique_ptr<mars::CandidateIndex> TracedIndex::Rebuilt(
    const mars::ItemScorer& model, const std::vector<size_t>& dirty_shards,
    size_t num_shards, mars::ThreadPool* pool) const {
  ScopedSpan span("ann.rebuilt");
  const uint64_t t0 = NowNs();
  std::shared_ptr<const mars::CandidateIndex> next =
      inner_->Rebuilt(model, dirty_shards, num_shards, pool);
  LayerCounters& c = Counters();
  c.rebuild_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  c.rebuilds.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<TracedIndex>(std::move(next));
}

}  // namespace perfbench
