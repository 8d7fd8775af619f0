// Determinism and config-validation tests for the pure half of the
// scenario harness (src/scenario/scenario.h): same seed ⇒ byte-identical
// trace and digest, different seed ⇒ different traffic, malformed specs
// ⇒ errors (never aborts), and the digest actually covers every field.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "serve/request.h"

namespace mars {
namespace {

bool SameTrace(const std::vector<ScenarioEvent>& a,
               const std::vector<ScenarioEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vtime_us != b[i].vtime_us || a[i].actor != b[i].actor ||
        a[i].kind != b[i].kind || a[i].hostile != b[i].hostile ||
        a[i].user != b[i].user || a[i].k != b[i].k ||
        a[i].flags != b[i].flags) {
      return false;
    }
  }
  return true;
}

TEST(ScenarioTraceTest, SameSeedIsByteIdentical) {
  for (const std::string& name : ScenarioNames()) {
    const ScenarioSpec spec = CanonicalScenarioSpec(name, 1234);
    std::string e1, e2;
    const auto t1 = GenerateTrace(spec, &e1);
    const auto t2 = GenerateTrace(spec, &e2);
    EXPECT_TRUE(e1.empty()) << name << ": " << e1;
    EXPECT_TRUE(SameTrace(t1, t2)) << name;
    EXPECT_EQ(DigestTrace(t1), DigestTrace(t2)) << name;
    EXPECT_EQ(t1.size(), spec.num_actors * spec.events_per_actor) << name;
  }
}

TEST(ScenarioTraceTest, DifferentSeedsDiverge) {
  for (const std::string& name : ScenarioNames()) {
    const auto t1 =
        GenerateTrace(CanonicalScenarioSpec(name, 1), nullptr);
    const auto t2 =
        GenerateTrace(CanonicalScenarioSpec(name, 2), nullptr);
    EXPECT_NE(DigestTrace(t1), DigestTrace(t2)) << name;
  }
}

// Golden digests: the replayability contract across processes and
// machines. If trace generation changes shape, these change — that is a
// *breaking* change to scenario replay and must be deliberate (update
// docs/SCENARIOS.md with it).
TEST(ScenarioTraceTest, GoldenDigestsPinTraceBytes) {
  struct Golden {
    const char* name;
    uint64_t seed;
    uint64_t digest;
  };
  const Golden golden[] = {
      {"zipf_hot_users", 42, 0x08a571df93cf7384ull},
      {"flash_crowd", 42, 0xea1f8e33822b7b4bull},
      {"publish_storm", 42, 0x6d0cba7847394ee2ull},
      {"restart_mid_traffic", 42, 0x6cab7d684f13ae24ull},
      {"slow_reader", 42, 0x43134b252a601e4bull},
  };
  for (const Golden& g : golden) {
    const auto trace =
        GenerateTrace(CanonicalScenarioSpec(g.name, g.seed), nullptr);
    EXPECT_EQ(DigestTrace(trace), g.digest)
        << g.name << " seed " << g.seed << " digest 0x" << std::hex
        << DigestTrace(trace);
  }
}

TEST(ScenarioTraceTest, DigestCoversEveryEventField) {
  auto trace =
      GenerateTrace(CanonicalScenarioSpec("zipf_hot_users", 7), nullptr);
  ASSERT_FALSE(trace.empty());
  const uint64_t base = DigestTrace(trace);

  auto mutated = [&](auto&& mutate) {
    auto copy = trace;
    mutate(&copy[copy.size() / 2]);
    return DigestTrace(copy);
  };
  EXPECT_NE(base, mutated([](ScenarioEvent* e) { e->vtime_us ^= 1; }));
  EXPECT_NE(base, mutated([](ScenarioEvent* e) { e->actor ^= 1; }));
  EXPECT_NE(base, mutated([](ScenarioEvent* e) {
              e->kind = ScenarioEventKind::kStreamAbuse;
            }));
  EXPECT_NE(base, mutated([](ScenarioEvent* e) { e->hostile ^= 1; }));
  EXPECT_NE(base, mutated([](ScenarioEvent* e) { e->user ^= 1; }));
  EXPECT_NE(base, mutated([](ScenarioEvent* e) { e->k ^= 1; }));
  EXPECT_NE(base, mutated([](ScenarioEvent* e) { e->flags ^= 1; }));
}

TEST(ScenarioTraceTest, InvalidEventsBreakExactlyOneDimension) {
  ScenarioSpec spec = CanonicalScenarioSpec("zipf_hot_users", 99);
  spec.invalid_fraction = 0.5;  // plenty of samples
  const auto trace = GenerateTrace(spec, nullptr);
  size_t invalid = 0;
  for (const ScenarioEvent& ev : trace) {
    const int bad_user = ev.user >= spec.num_users ? 1 : 0;
    const int bad_k = ev.k > spec.k ? 1 : 0;
    const int bad_flags = (ev.flags & ~kTopKFlagsMask) != 0 ? 1 : 0;
    if (ev.kind == ScenarioEventKind::kInvalidRequest) {
      ++invalid;
      // One bad dimension: the expected status is unambiguous no matter
      // what order the server validates in.
      EXPECT_EQ(bad_user + bad_k + bad_flags, 1);
    } else if (ev.kind == ScenarioEventKind::kQuery) {
      EXPECT_EQ(bad_user + bad_k + bad_flags, 0);
    }
  }
  EXPECT_GT(invalid, trace.size() / 4);
}

TEST(ScenarioTraceTest, CanonicalCatalogValidates) {
  const auto names = ScenarioNames();
  EXPECT_EQ(names.size(), 5u);
  for (const std::string& name : names) {
    EXPECT_EQ(ValidateScenarioSpec(CanonicalScenarioSpec(name, 1)), "")
        << name;
  }
}

// Malformed specs are reported, never asserted on: the spec may come
// from a command line (bench/scenarios) or a config file.
TEST(ScenarioTraceTest, MalformedSpecsAreErrorsNotAborts) {
  const auto expect_invalid = [](ScenarioSpec spec, const char* what) {
    EXPECT_NE(ValidateScenarioSpec(spec), "") << what;
    std::string err;
    EXPECT_TRUE(GenerateTrace(spec, &err).empty()) << what;
    EXPECT_NE(err, "") << what;
  };

  expect_invalid(CanonicalScenarioSpec("no_such_scenario", 1),
                 "unknown name");
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.events_per_actor = 0;
    expect_invalid(s, "zero duration");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.num_actors = 0;
    expect_invalid(s, "zero actors");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.num_users = 0;
    expect_invalid(s, "zero users");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.num_items = 0;
    expect_invalid(s, "zero items");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.k = 0;
    expect_invalid(s, "zero depth");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.p99_bound_ms = 0.0;
    expect_invalid(s, "no latency bound");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("zipf_hot_users", 1);
    s.zipf_s = -0.5;
    expect_invalid(s, "non-positive zipf skew");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.invalid_fraction = 1.5;
    expect_invalid(s, "fraction above 1");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("flash_crowd", 1);
    s.invalid_fraction = 0.7;
    s.hostile_fraction = 0.7;
    expect_invalid(s, "fractions sum above 1");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("restart_mid_traffic", 1);
    s.events_per_actor = 1;
    expect_invalid(s, "restart with no traffic after the boundary");
  }
  {
    ScenarioSpec s = CanonicalScenarioSpec("slow_reader", 1);
    s.num_actors = 1;
    expect_invalid(s, "slow reader with nobody to prove isolation");
  }

  // The unknown-scenario message names the catalog (operator UX).
  const std::string msg =
      ValidateScenarioSpec(CanonicalScenarioSpec("bogus", 1));
  for (const std::string& name : ScenarioNames()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mars
