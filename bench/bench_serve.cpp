// Serving-throughput bench: cold full-catalog sweeps vs cached hot-user
// queries through the TopKServer, at several catalog sizes, plus the ANN
// probe-then-rerank curve, the million-item restart point, batched
// misses and the incremental refresh. Every section's acceptance bar is
// checked against this same run: each gate prints
// `gate <name>: <value> <op> <bar> ok|FAIL`, and the binary exits 1 if
// any gate failed, after every section has run. Absolute times are
// printed for reading, never compared against another host's numbers.
//
//  * cached vs cold — cached >= 5x cold at >= 10k items;
//
//  * ANN recall/latency — one spherical IVF build per catalog >= 10k,
//    swept over nprobe fractions via cheap clones; the default point must
//    keep recall@10 >= 0.95 while beating the cold exact sweep >= 3x at
//    >= 50k items (full mode only: fast mode shrinks the training set
//    below what gives the embeddings ANN-friendly structure, so its
//    recall measures the dataset, not the index). The default point
//    times a cold exact burst and an ANN burst back to back in each of 7
//    bursts; the gate reads the median of the per-burst ratios (IQR
//    printed alongside), like the batch section below;
//
//  * restart at retrieval scale — one million-item point comparing a
//    from-scratch index rebuild (k-means + assignment) against mmapping
//    the persisted MRSI index file (ann/index_io.h) to the first served
//    query; >= 5x warm-vs-cold restart at 1M items (full mode), with
//    recall@10 *equal* between built and mapped and every checked
//    response identical at any size (the probes are bit-identical, so
//    any daylight is a bug);
//
//  * batched serving — TopKBatch over B ∈ {2, 4, 8} cold users (one
//    multi-user block sweep: each item block streamed once and scored
//    for all B users) vs B solo cold sweeps, per-user. Measured
//    single-threaded on a dim-64 BPR, where the shared item-block loads
//    dominate the per-row cost. Solo and batched run back to back in
//    each of 7 bursts; the gate reads the median of the per-burst
//    ratios (their IQR is printed alongside), so one slow stretch of the
//    host skews one ratio, not the reading. B = 8 must be >= 1.5x per
//    user at the smallest catalog >= 50k items and never slower
//    (>= 1.0x) at larger ones, where the working set outruns the caches;
//
//  * incremental re-sweep cost — with <= 1/8 of the item shards dirty,
//    the per-entry refresh done by AbsorbWrites must cost <= 1/4 of a
//    cold full-catalog sweep at >= 10k items (the mostly-clean-epoch
//    warm-cache bar).
//
// Multi-threaded, wire-to-wire and whole-stack scenario serving are
// measured by perfbench/ (same-host alternating runs) and pinned by the
// net and scenario test suites.
//
// The model is BPR (a DotBatchMulti sweep — the cheapest per-item kernel,
// which makes the *server* overhead the subject rather than the model),
// trained just enough to have non-degenerate embeddings. "Cold" queries
// distinct never-cached users, so every query pays the full sweep + heap
// merge; "cached" re-queries the same users, so every query is an LRU
// hit. Every section is single-threaded, so each ratio compares two paths
// on one core of the same host.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "ann/index_io.h"
#include "ann/ivf_index.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/vec.h"
#include "common/snapshot_handle.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "serve/top_k_server.h"
#include "serve/write_tracker.h"

namespace {

/// One nprobe operating point of the ANN recall/latency curve.
struct AnnPoint {
  size_t nprobe = 0;
  double ms_per_query = 0.0;  // miss-path latency, median over bursts
  double recall_at_10 = 0.0;  // vs the brute-force oracle
  mars::bench::Spread speedup_vs_cold;  // per-burst cold exact / ANN ratios
};

/// Dot-geometry scorer with random tables for the restart-at-scale
/// section. Restart cost is a property of the index persistence path
/// (k-means + assignment vs mmap + validation), not of embedding
/// quality, and the parity gate is built-vs-mapped *equality* — so a
/// random model measures exactly what the gate needs while skipping a
/// million-item training run the timing would never see.
class RestartScorer : public mars::ItemScorer {
 public:
  RestartScorer(size_t users, size_t items, size_t dim, uint64_t seed)
      : dim_(dim), user_(users * dim), item_(items * dim) {
    mars::Rng rng(seed);
    for (auto& x : user_) x = static_cast<float>(rng.Normal());
    for (auto& x : item_) x = static_cast<float>(rng.Normal());
  }

  float Score(mars::UserId u, mars::ItemId v) const override {
    return mars::Dot(user_.data() + u * dim_, item_.data() + v * dim_, dim_);
  }
  mars::IndexGeometry index_geometry() const override {
    return mars::IndexGeometry::kDot;
  }
  size_t index_dim() const override { return dim_; }
  void CopyIndexVectors(mars::ItemId begin, mars::ItemId end,
                        float* out) const override {
    mars::Copy(item_.data() + begin * dim_, out, (end - begin) * dim_);
  }
  void WriteIndexQuery(mars::UserId u, float* out) const override {
    mars::Copy(user_.data() + u * dim_, out, dim_);
  }

 private:
  size_t dim_;
  std::vector<float> user_, item_;
};

}  // namespace

int main() {
  using namespace mars;

  const bool fast = BenchFastMode();

  const std::vector<size_t> catalog_sizes =
      fast ? std::vector<size_t>{1000, 10000}
           : std::vector<size_t>{2000, 10000, 50000, 200000};
  const size_t kUsers = fast ? 300 : 1000;
  const size_t kTopK = 10;

  bench::Banner(
      "bench_serve — TopKServer cold/cached, ANN, batch, incremental refresh");
  std::printf("k=%zu  users=%zu\n\n", kTopK, kUsers);
  bench::Gates gates;
  // The B = 8 batch gate point is the smallest catalog >= 50k items;
  // larger catalogs are held to never-slower.
  bool batch_gate_point_done = false;

  for (const size_t num_items : catalog_sizes) {
    const std::string at = "@" + std::to_string(num_items);
    SyntheticConfig data_cfg;
    data_cfg.num_users = kUsers;
    data_cfg.num_items = num_items;
    // Interactions scale with the catalog so every item is trained:
    // items the training never touches keep their random init, and once
    // they are the majority (e.g. 20k interactions over a 200k catalog)
    // the measured ANN recall reflects that noise, not the index
    // (measured at 200k: recall@10 0.23 at the default nprobe with
    // kUsers*20 interactions vs 0.99 with 2 per item).
    data_cfg.target_interactions = std::max(kUsers * 20, num_items * 2);
    data_cfg.num_facets = 4;
    data_cfg.seed = 7;
    const auto dataset = GenerateSyntheticDataset(data_cfg);

    Bpr model(BprConfig{.dim = 32});
    TrainOptions train;
    // Trained to convergence on the small interaction set (tens of ms):
    // ANN recall is a property of how clustered the learned embeddings
    // are, and a near-random model makes the recall gate meaningless
    // (measured: recall@10 at the default nprobe is ~0.4 after a
    // 2000-step skim vs ~0.97 after 5 real epochs, same index).
    train.epochs = 5;
    train.learning_rate = 0.05;
    train.seed = 42;
    model.Fit(*dataset, train);

    TopKServerOptions opts;
    opts.k = kTopK;
    opts.cache.max_users = kUsers;
    TopKServer server(UnownedSnapshot(&model), kUsers, num_items, opts);

    // Cold: each query is a distinct user → guaranteed cache miss. Best
    // of several bursts (disjoint user ranges, so every query stays a
    // miss): on hosts with invisible neighbor contention a single burst
    // can read 2x slow, and the gates need the code's cost, not the
    // host's mood. Same policy for the cached and incremental sections
    // below (and bench_load does the same).
    const size_t cold_queries = fast ? 50 : 200;
    const size_t kBursts = 3;
    double cold_ms = 0.0;
    for (size_t b = 0; b < kBursts; ++b) {
      Timer cold_timer;
      for (size_t q = 0; q < cold_queries; ++q) {
        server.TopK(static_cast<UserId>((b * cold_queries + q) % kUsers));
      }
      const double ms = cold_timer.ElapsedMillis() / cold_queries;
      cold_ms = b == 0 ? ms : std::min(cold_ms, ms);
    }

    // Cached: the same users again, repeatedly → every query an LRU hit.
    const size_t hot_queries = fast ? 5000 : 20000;
    double cached_ms = 0.0;
    for (size_t b = 0; b < kBursts; ++b) {
      Timer hot_timer;
      for (size_t q = 0; q < hot_queries; ++q) {
        server.TopK(static_cast<UserId>(q % cold_queries));
      }
      const double ms = hot_timer.ElapsedMillis() / hot_queries;
      cached_ms = b == 0 ? ms : std::min(cached_ms, ms);
    }

    const auto stats = server.stats();
    const double cached_speedup = cached_ms > 0.0 ? cold_ms / cached_ms : 0.0;
    std::printf(
        "items=%-6zu cold %8.4f ms/q (%9.0f qps)   cached %8.5f ms/q "
        "(%9.0f qps)   speedup %7.1fx   [hits=%llu misses=%llu]\n",
        num_items, cold_ms, 1e3 / cold_ms, cached_ms, 1e3 / cached_ms,
        cached_speedup, static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses));
    if (num_items >= 10000) {
      gates.AtLeast("cached_speedup" + at, cached_speedup, 5.0);
    }

    // --- ANN probe-then-rerank: recall/latency curve over nprobe. -------
    // One spherical IVF build per size; every operating point is a cheap
    // nprobe clone injected into its own server, so the sweep measures
    // the serving miss path end to end (probe + exact re-rank + rank),
    // not the index in isolation. recall@10 is measured against the
    // brute-force oracle; the default point is the gated one.
    if (num_items >= 10000) {
      Timer build_timer;
      const auto base = SphericalIvfIndex::Build(model, num_items,
                                                 AnnIndexOptions{}, nullptr);
      const size_t num_centroids = base->num_centroids();
      const double build_ms = build_timer.ElapsedMillis();

      // Brute-force oracle top-k for the recall sample.
      const size_t recall_users = fast ? 50 : 100;
      std::vector<ItemId> all_ids(num_items);
      for (ItemId v = 0; v < num_items; ++v) all_ids[v] = v;
      std::vector<float> all_scores(num_items);
      std::vector<std::vector<ItemId>> oracle(recall_users);
      for (UserId u = 0; u < recall_users; ++u) {
        model.ScoreItems(u, all_ids, all_scores.data());
        std::vector<std::pair<float, ItemId>> ranked(num_items);
        for (size_t i = 0; i < num_items; ++i) {
          ranked[i] = {all_scores[i], all_ids[i]};
        }
        std::partial_sort(ranked.begin(), ranked.begin() + kTopK,
                          ranked.end(), [](const auto& a, const auto& b) {
                            return a.first > b.first ||
                                   (a.first == b.first && a.second < b.second);
                          });
        for (size_t i = 0; i < kTopK; ++i) {
          oracle[u].push_back(ranked[i].second);
        }
      }

      // The gated default point pairs its latency with the exact sweep:
      // each of 7 bursts times one cold exact burst and one ANN burst
      // back to back over the same never-cached users, and the speedup
      // is the median of the per-burst ratios (IQR alongside), so one
      // slow stretch of the host skews one ratio, not the reading. The
      // curve points reuse those exact bursts as their cold reference
      // (burst b against burst b) rather than timing the exact sweep
      // again. Both servers run uncached, so every query is a miss by
      // construction.
      const size_t ann_queries = fast ? 50 : 200;
      const size_t kAnnBursts = 7;
      TopKServerOptions exact_opts;
      exact_opts.k = kTopK;
      exact_opts.cache.max_users = 0;
      TopKServer exact_server(UnownedSnapshot(&model), kUsers, num_items,
                              exact_opts);
      std::vector<double> exact_ms;
      const auto eval_point = [&](size_t nprobe, bool time_exact) {
        AnnPoint p;
        TopKServerOptions aopts = exact_opts;
        aopts.ann.prebuilt = base->CloneWithNprobe(nprobe);
        TopKServer aserver(UnownedSnapshot(&model), kUsers, num_items, aopts);
        p.nprobe = static_cast<const SphericalIvfIndex&>(*aopts.ann.prebuilt)
                       .nprobe();
        size_t hit = 0;
        for (UserId u = 0; u < recall_users; ++u) {
          const TopKResponse got = aserver.TopK(u);
          for (const ItemId v : got.items) {
            if (std::find(oracle[u].begin(), oracle[u].end(), v) !=
                oracle[u].end()) {
              ++hit;
            }
          }
        }
        p.recall_at_10 =
            static_cast<double>(hit) / (kTopK * recall_users);
        std::vector<double> ann_ms, ratios;
        for (size_t b = 0; b < kAnnBursts; ++b) {
          const auto burst_ms = [&](TopKServer& server) {
            Timer t;
            for (size_t q = 0; q < ann_queries; ++q) {
              server.TopK(static_cast<UserId>(
                  recall_users + (b * ann_queries + q) %
                                     (kUsers - recall_users)));
            }
            return t.ElapsedMillis() / ann_queries;
          };
          if (time_exact) exact_ms.push_back(burst_ms(exact_server));
          ann_ms.push_back(burst_ms(aserver));
          ratios.push_back(ann_ms.back() > 0.0 ? exact_ms[b] / ann_ms.back()
                                               : 0.0);
        }
        p.ms_per_query = bench::MedianAndQuartiles(ann_ms).median;
        p.speedup_vs_cold = bench::MedianAndQuartiles(ratios);
        return p;
      };

      const AnnPoint def = eval_point(base->nprobe(), true);
      std::printf(
          "             ann default: ncent=%zu nprobe=%zu  build %7.1f ms  "
          "%8.4f ms/q  recall@%zu %.3f  %5.2fx vs cold (IQR %.2f over %zu "
          "bursts)\n",
          num_centroids, def.nprobe, build_ms, def.ms_per_query, kTopK,
          def.recall_at_10, def.speedup_vs_cold.median,
          def.speedup_vs_cold.iqr(), kAnnBursts);
      if (!fast) {
        gates.AtLeast("ann_recall_at_10" + at, def.recall_at_10, 0.95);
        if (num_items >= 50000) {
          gates.AtLeast("ann_speedup_vs_cold" + at,
                        def.speedup_vs_cold.median, 3.0);
        }
      }
      // Brackets the auto default (ncent/32) on both sides, out to the
      // exact full-probe point (denom 1).
      size_t last_nprobe = 0;
      for (const size_t denom : {64ul, 32ul, 16ul, 8ul, 1ul}) {
        const size_t nprobe = std::max<size_t>(1, num_centroids / denom);
        if (nprobe == last_nprobe) continue;
        last_nprobe = nprobe;
        const AnnPoint p = eval_point(nprobe, false);
        std::printf(
            "             ann nprobe=%-4zu %8.4f ms/q  recall@%zu %.3f  "
            "%5.2fx vs cold (IQR %.2f)\n",
            p.nprobe, p.ms_per_query, kTopK, p.recall_at_10,
            p.speedup_vs_cold.median, p.speedup_vs_cold.iqr());
      }
    }

    // --- Batched serving: TopKBatch over B cold users vs B solo cold
    // sweeps. Dim 64, where one row's worth of loads feeds 64 FMAs per
    // user and sharing it across the batch pays for the extra live
    // accumulators (dim 32 hovers near the 1.5x bar on a noisy host, dim
    // 64 clears it with margin). The cache is disabled so every query is
    // a miss by construction, and TopKBatch is called directly — the same
    // multi-user sweep the wire front-end feeds, entered single-threaded
    // and deterministically, so the timing needs no thread choreography.
    // ----------------------------------------------------------------------
    if (num_items >= 10000) {
      Bpr bmodel(BprConfig{.dim = 64});
      TrainOptions btrain;
      btrain.epochs = 5;
      btrain.learning_rate = 0.05;
      btrain.seed = 43;
      bmodel.Fit(*dataset, btrain);

      for (const size_t batch : {2ul, 4ul, 8ul}) {
        TopKServerOptions bopts;
        bopts.k = kTopK;
        bopts.cache.max_users = 0;  // every query a guaranteed miss
        TopKServer solo_server(UnownedSnapshot(&bmodel), kUsers, num_items,
                               bopts);
        TopKServer batch_server(UnownedSnapshot(&bmodel), kUsers, num_items,
                                bopts);

        // Batch ≡ solo on the measured path: the per-model equivalence is
        // pinned by the tests; this guards the bench wiring itself.
        std::vector<UserId> sample(batch);
        for (size_t j = 0; j < batch; ++j) {
          sample[j] = static_cast<UserId>(j);
        }
        const std::vector<TopKResponse> sanity = batch_server.TopKBatch(sample);
        for (size_t j = 0; j < batch; ++j) {
          const TopKResponse want = solo_server.TopK(sample[j]);
          if (sanity[j].items != want.items ||
              sanity[j].scores != want.scores) {
            std::fprintf(stderr,
                         "batch/solo mismatch at items=%zu B=%zu user=%zu\n",
                         num_items, batch, static_cast<size_t>(sample[j]));
            return 1;
          }
        }

        const size_t groups = fast ? 8 : (num_items >= 200000 ? 8 : 25);
        const size_t kBatchBursts = 7;
        std::vector<UserId> group_users(batch);
        std::vector<double> solo_ms, batch_ms, ratios;
        for (size_t b = 0; b < kBatchBursts; ++b) {
          Timer solo_timer;
          for (size_t g = 0; g < groups; ++g) {
            for (size_t j = 0; j < batch; ++j) {
              solo_server.TopK(static_cast<UserId>((g * batch + j) % kUsers));
            }
          }
          solo_ms.push_back(solo_timer.ElapsedMillis() / (groups * batch));

          Timer batch_timer;
          for (size_t g = 0; g < groups; ++g) {
            for (size_t j = 0; j < batch; ++j) {
              group_users[j] =
                  static_cast<UserId>((g * batch + j) % kUsers);
            }
            batch_server.TopKBatch(group_users);
          }
          batch_ms.push_back(batch_timer.ElapsedMillis() / (groups * batch));
          ratios.push_back(batch_ms.back() > 0.0
                               ? solo_ms.back() / batch_ms.back()
                               : 0.0);
        }

        const bench::Spread speedup = bench::MedianAndQuartiles(ratios);
        std::printf(
            "             batch B=%zu (dim 64): solo %8.4f ms/user   "
            "batched %8.4f ms/user   %5.2fx per user (IQR %.2f over %zu "
            "bursts)\n",
            batch, bench::MedianAndQuartiles(solo_ms).median,
            bench::MedianAndQuartiles(batch_ms).median, speedup.median,
            speedup.iqr(), kBatchBursts);
        if (batch == 8 && num_items >= 50000) {
          gates.AtLeast("batch_b8_speedup" + at, speedup.median,
                        batch_gate_point_done ? 1.0 : 1.5);
          batch_gate_point_done = true;
        }
      }
    }

    // --- Incremental re-sweep: AbsorbWrites with 1/8 of the item shards
    // dirty against a warm cache, measured per refreshed entry. ----------
    {
      TopKServer warm(UnownedSnapshot(&model), kUsers, num_items, opts);
      const size_t entries = fast ? 100 : 200;
      for (size_t u = 0; u < entries; ++u) {
        warm.TopK(static_cast<UserId>(u));
      }
      WriteTracker tracker(kUsers, num_items);
      const size_t total_shards = warm.num_item_shards();
      const size_t dirty_shards = (total_shards + 7) / 8;  // ≈ 1/8
      // Several publish rounds, best-of — a single round is one timed
      // call and too jitter-prone for the gate. Each round re-marks the
      // same shards; the model is unchanged, so every round refreshes
      // every entry through the exact-merge path.
      const size_t rounds = fast ? 3 : 7;
      double refresh_best = 0.0;
      for (size_t round = 0; round < rounds; ++round) {
        size_t marked = 0;
        for (ItemId v = 0; v < num_items && marked < dirty_shards; ++v) {
          if (tracker.ItemShardOf(v) == marked) {
            tracker.MarkItem(v);
            ++marked;
          }
        }
        Timer refresh_timer;
        warm.PublishEpoch(UnownedSnapshot<ItemScorer>(&model), &tracker);
        const double ms = refresh_timer.ElapsedMillis();
        refresh_best = round == 0 ? ms : std::min(refresh_best, ms);
      }
      const auto warm_stats = warm.stats();

      const double refresh_ms_per_entry = refresh_best / entries;
      const double refresh_vs_cold =
          cold_ms > 0.0 ? refresh_ms_per_entry / cold_ms : 0.0;
      std::printf(
          "             incremental refresh: %zu/%zu shards dirty, "
          "%8.4f ms/entry (%llu refreshed) = %.3fx of a cold sweep\n",
          dirty_shards, total_shards, refresh_ms_per_entry,
          static_cast<unsigned long long>(warm_stats.refreshed),
          refresh_vs_cold);
      if (num_items >= 10000 && dirty_shards * 8 <= total_shards) {
        gates.AtMost("refresh_vs_cold" + at, refresh_vs_cold, 0.25);
      }
    }
  }

  // --- Restart at retrieval scale: the persisted index file vs a
  // from-scratch rebuild, to the first served query. The cold restart
  // pays k-means + full assignment over the catalog; the warm restart
  // mmaps the MRSI file (header/CRC validation included) and serves off
  // the borrowed arrays. Gates: >= 5x at the million-item point, and
  // recall@10 at the default nprobe *equal* between built and mapped with
  // every checked response identical — the probes are bit-identical, so
  // any daylight between the two is a bug. ------------------------------
  {
    const size_t num_items = fast ? 100000 : 1000000;
    const std::string at = "@" + std::to_string(num_items);
    const size_t kRestartUsers = 128;
    const UserId kProbeUser = 127;  // outside the recall sample
    RestartScorer rmodel(kRestartUsers, num_items, 32, 11);

    Timer build_timer;
    auto built = SphericalIvfIndex::Build(rmodel, num_items,
                                          AnnIndexOptions{}, nullptr);
    const double build_ms = build_timer.ElapsedMillis();
    const size_t num_centroids = built->num_centroids();

    const std::string index_path = "bench_serve_restart.annidx";
    Timer save_timer;
    if (!SaveCandidateIndex(*built, index_path)) {
      std::fprintf(stderr, "restart: cannot write %s\n", index_path.c_str());
      return 1;
    }
    const double save_ms = save_timer.ElapsedMillis();
    unsigned long long index_bytes = 0;
    struct stat st {};
    if (::stat(index_path.c_str(), &st) == 0) {
      index_bytes = static_cast<unsigned long long>(st.st_size);
    }

    // Load repeatedly, best-of (page-cache-warm mmap + validation is the
    // steady-state restart cost, same min-over-repeats policy as
    // bench_load); the last mapping is the one served below.
    std::shared_ptr<const CandidateIndex> mapped;
    double load_ms = 0.0;
    for (size_t rep = 0; rep < 3; ++rep) {
      Timer load_timer;
      mapped = LoadCandidateIndexMapped(index_path, rmodel, num_items);
      const double ms = load_timer.ElapsedMillis();
      if (mapped == nullptr) {
        std::fprintf(stderr, "restart: cannot map %s\n", index_path.c_str());
        return 1;
      }
      load_ms = rep == 0 ? ms : std::min(load_ms, ms);
    }

    TopKServerOptions ropts;
    ropts.k = kTopK;
    ropts.cache.max_users = kRestartUsers;
    ropts.ann.prebuilt = std::move(built);
    TopKServerOptions mopts = ropts;
    mopts.ann.prebuilt = mapped;
    TopKServer built_server(UnownedSnapshot(&rmodel), kRestartUsers,
                            num_items, ropts);
    TopKServer mapped_server(UnownedSnapshot(&rmodel), kRestartUsers,
                             num_items, mopts);
    Timer fq_built;
    built_server.TopK(kProbeUser);
    const double first_query_built_ms = fq_built.ElapsedMillis();
    Timer fq_mapped;
    mapped_server.TopK(kProbeUser);
    const double first_query_mapped_ms = fq_mapped.ElapsedMillis();
    const double cold_restart_ms = build_ms + first_query_built_ms;
    const double warm_restart_ms = load_ms + first_query_mapped_ms;
    const double restart_speedup =
        warm_restart_ms > 0.0 ? cold_restart_ms / warm_restart_ms : 0.0;

    // Recall at the default nprobe against the brute-force oracle, for
    // both servers over the same sample — plus full response identity.
    const size_t recall_users = 32;
    std::vector<ItemId> all_ids(num_items);
    for (ItemId v = 0; v < num_items; ++v) all_ids[v] = v;
    std::vector<float> all_scores(num_items);
    size_t hit_built = 0, hit_mapped = 0, identical = 0;
    for (UserId u = 0; u < recall_users; ++u) {
      rmodel.ScoreItems(u, all_ids, all_scores.data());
      std::vector<std::pair<float, ItemId>> ranked(num_items);
      for (size_t i = 0; i < num_items; ++i) {
        ranked[i] = {all_scores[i], all_ids[i]};
      }
      std::partial_sort(ranked.begin(), ranked.begin() + kTopK, ranked.end(),
                        [](const auto& a, const auto& b) {
                          return a.first > b.first ||
                                 (a.first == b.first && a.second < b.second);
                        });
      const TopKResponse from_built = built_server.TopK(u);
      const TopKResponse from_mapped = mapped_server.TopK(u);
      for (size_t i = 0; i < kTopK; ++i) {
        const ItemId v = ranked[i].second;
        if (std::find(from_built.items.begin(), from_built.items.end(), v) !=
            from_built.items.end()) {
          ++hit_built;
        }
        if (std::find(from_mapped.items.begin(), from_mapped.items.end(),
                      v) != from_mapped.items.end()) {
          ++hit_mapped;
        }
      }
      if (from_built.items == from_mapped.items &&
          from_built.scores == from_mapped.scores) {
        ++identical;
      }
    }
    const double recall_built =
        static_cast<double>(hit_built) / (kTopK * recall_users);
    const double recall_mapped =
        static_cast<double>(hit_mapped) / (kTopK * recall_users);
    std::remove(index_path.c_str());

    std::printf(
        "\n  ann restart @%zu items (ncent=%zu, %.1f MiB file):\n"
        "    cold  build %9.1f ms + query %7.2f ms = %9.1f ms\n"
        "    warm  mmap  %9.3f ms + query %7.2f ms = %9.3f ms   "
        "(save %.1f ms)\n"
        "    speedup %.0fx   recall@%zu built %.4f mapped %.4f   "
        "%zu/%zu responses identical\n",
        num_items, num_centroids, index_bytes / (1024.0 * 1024.0), build_ms,
        first_query_built_ms, cold_restart_ms, load_ms,
        first_query_mapped_ms, warm_restart_ms, save_ms, restart_speedup,
        kTopK, recall_built, recall_mapped, identical, recall_users);
    gates.Equal("ann_restart_recall_mapped" + at, recall_mapped,
                recall_built);
    gates.Equal("ann_restart_identical_responses" + at,
                static_cast<double>(identical),
                static_cast<double>(recall_users));
    if (num_items >= 1000000) {
      gates.AtLeast("ann_restart_speedup" + at, restart_speedup, 5.0);
    }
  }

  return gates.Finish();
}
