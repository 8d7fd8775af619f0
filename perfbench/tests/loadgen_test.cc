// Open-loop accounting of perfbench/src/loadgen.h against a real loopback
// NetServer whose model stalls once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "net/server.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr size_t kUsers = 64;
constexpr size_t kItems = 200;
constexpr mars::UserId kStallUser = 7;

/// Scores by a fixed hash; the first full sweep for kStallUser sleeps, as
/// a server stall would.
class StallingScorer : public mars::ItemScorer {
 public:
  explicit StallingScorer(std::chrono::milliseconds stall) : stall_(stall) {}
  float Score(mars::UserId u, mars::ItemId v) const override {
    return static_cast<float>((u * 2654435761u + v * 40503u) % 1000);
  }
  void ScoreItemRange(mars::UserId u, mars::ItemId begin, mars::ItemId end,
                      float* out) const override {
    if (u == kStallUser && !stalled_.exchange(true)) {
      std::this_thread::sleep_for(stall_);
    }
    ItemScorer::ScoreItemRange(u, begin, end, out);
  }

 private:
  std::chrono::milliseconds stall_;
  mutable std::atomic<bool> stalled_{false};
};

OpenLoopPlan PlanWithStallUserAt(double rate, double seconds, size_t at) {
  OpenLoopPlan plan =
      MakePoissonPlan(rate, seconds, UserSampler::Uniform(kUsers), 42);
  for (auto& u : plan.users) {
    if (u == kStallUser) u = kStallUser + 1;
  }
  plan.users[at] = kStallUser;
  return plan;
}

TEST(PoissonPlanTest, SeededAndAtTheNominalRate) {
  const UserSampler users = UserSampler::Uniform(kUsers);
  const OpenLoopPlan a = MakePoissonPlan(5000, 2.0, users, 9);
  const OpenLoopPlan b = MakePoissonPlan(5000, 2.0, users, 9);
  const OpenLoopPlan c = MakePoissonPlan(5000, 2.0, users, 10);
  EXPECT_EQ(a.due_ns, b.due_ns);
  EXPECT_EQ(a.users, b.users);
  EXPECT_NE(a.due_ns, c.due_ns);
  EXPECT_NEAR(static_cast<double>(a.due_ns.size()), 10000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(a.due_ns.begin(), a.due_ns.end()));
}

TEST(UserSamplerTest, ZipfStaysInsideItsHotSet) {
  const UserSampler z = UserSampler::Zipf(1000, 100, 1.2, 3);
  std::vector<bool> hot(1000, false);
  for (size_t r = 0; r < 100; ++r) hot[z.ByRank(r)] = true;
  mars::Rng rng(5);
  size_t top = 0;
  for (int i = 0; i < 20000; ++i) {
    const mars::UserId u = z.Draw(&rng);
    ASSERT_TRUE(hot[u]);
    top += u == z.ByRank(0);
  }
  // Rank 0 of Zipf(1.2) over 100 ranks carries ~25% of the mass.
  EXPECT_GT(top, 4000u);
}

TEST(OpenLoopTest, StalledServerShowsAsRisingLatencyNotFewerRequests) {
  auto model = std::make_shared<StallingScorer>(std::chrono::milliseconds(150));
  mars::NetServerOptions nopts;
  nopts.serve.k = 10;
  mars::NetServer server(model, kUsers, kItems, nopts);
  ASSERT_TRUE(server.Start());

  const double rate = 2000.0;
  const OpenLoopPlan plan = PlanWithStallUserAt(rate, 0.6, 400);
  OpenLoopOptions o;
  o.port = server.port();
  const OpenLoopResult r =
      RunOpenLoop(o, plan, [](mars::UserId, const mars::WireResponse& w) {
        return w.status == mars::WireStatus::kOk;
      });
  server.Stop();

  // Every planned request went out on schedule and was answered: the
  // stall did not thin the offered load.
  EXPECT_EQ(r.sent, plan.due_ns.size());
  EXPECT_EQ(r.completed, plan.due_ns.size());
  EXPECT_EQ(r.failed, 0u);
  std::vector<double> late = r.late_ms;
  EXPECT_LT(Summarize(&late).p50, 1.0);
  // The stall shows as latency: the stalled request waits ~150 ms, and the
  // ~300 requests due during the stall queue behind it, each timed from
  // its own due time.
  size_t slow = 0;
  double worst = 0.0;
  for (double l : r.latency_ms) {
    slow += l > 50.0;
    worst = std::max(worst, l);
  }
  EXPECT_GE(worst, 140.0);
  EXPECT_GE(slow, 150u);
}

TEST(OpenLoopTest, UnansweredRequestsAreFailuresAtInfiniteLatency) {
  auto model = std::make_shared<StallingScorer>(std::chrono::milliseconds(800));
  mars::NetServerOptions nopts;
  nopts.serve.k = 10;
  mars::NetServer server(model, kUsers, kItems, nopts);
  ASSERT_TRUE(server.Start());
  const OpenLoopPlan plan = PlanWithStallUserAt(1000.0, 0.2, 100);
  OpenLoopOptions o;
  o.port = server.port();
  o.drain_timeout_s = 0.2;  // shorter than the stall
  const OpenLoopResult r = RunOpenLoop(
      o, plan, [](mars::UserId, const mars::WireResponse&) { return true; });
  server.Stop();
  EXPECT_EQ(r.sent, plan.due_ns.size());
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.completed + r.failed, plan.due_ns.size());
  const std::vector<double> all = LatencyWithFailures(r);
  EXPECT_EQ(all.size(), plan.due_ns.size());
  EXPECT_TRUE(std::isinf(*std::max_element(all.begin(), all.end())));
}

TEST(OpenLoopTest, FailedChecksAreRejected) {
  auto model = std::make_shared<StallingScorer>(std::chrono::milliseconds(0));
  mars::NetServerOptions nopts;
  nopts.serve.k = 10;
  mars::NetServer server(model, kUsers, kItems, nopts);
  ASSERT_TRUE(server.Start());
  const OpenLoopPlan plan =
      MakePoissonPlan(1000.0, 0.1, UserSampler::Uniform(kUsers), 1);
  OpenLoopOptions o;
  o.port = server.port();
  const OpenLoopResult r = RunOpenLoop(
      o, plan, [](mars::UserId u, const mars::WireResponse&) { return u % 2; });
  server.Stop();
  size_t odd = 0;
  for (mars::UserId u : plan.users) odd += u % 2;
  EXPECT_EQ(r.completed, odd);
  EXPECT_EQ(r.rejected, plan.users.size() - odd);
  EXPECT_EQ(r.failed, r.rejected);
}

}  // namespace
}  // namespace perfbench
