// The scenario matrix: every shipped scenario runs wire-to-wire against
// the live stack (trainer publishing epochs, TopKServer with full-probe
// ANN, NetServer over loopback batching into TopKBatch) with all four
// invariant checkers armed — and must finish with zero violations:
//
//   (a) every kOk response bit-identical to its published snapshot
//   (b) no actor ever sees a user's epoch go backwards
//   (c) every event answered with the contract status / close behavior
//   (d) p99 within the spec bound (enforced when host_cpus > 1)
//
// plus the per-scenario evidence the run exists to produce: the restart
// crossing a real SaveMarsV3/LoadMarsMapped boundary, the slow reader
// actually tripping the backpressure cap.
#include <string>

#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "scenario/scenario_runner.h"

namespace mars {
namespace {

constexpr uint64_t kSeed = 42;

class ScenarioMatrixTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, ScenarioMatrixTest,
    ::testing::Values("zipf_hot_users", "flash_crowd", "publish_storm",
                      "restart_mid_traffic", "slow_reader"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST_P(ScenarioMatrixTest, RunsCleanWithAllInvariantsArmed) {
  const ScenarioSpec spec = CanonicalScenarioSpec(GetParam(), kSeed);
  ScenarioRunner runner(spec);
  const ScenarioReport rep = runner.Run();

  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_EQ(rep.membership_violations, 0u);
  EXPECT_EQ(rep.epoch_regressions, 0u);
  EXPECT_EQ(rep.status_violations, 0u);
  EXPECT_EQ(rep.unexpected_closes, 0u);
  EXPECT_TRUE(rep.p99_ok) << "p99 " << rep.p99_ms << " ms over bound "
                          << spec.p99_bound_ms << " ms";
  EXPECT_EQ(rep.violations(), 0u);
  EXPECT_GT(rep.responses, 0u);

  // The report's digest is the digest of the trace the spec generates —
  // a failing run is replayable from (scenario, seed) alone.
  const uint64_t expect = DigestTrace(GenerateTrace(spec, nullptr));
  EXPECT_EQ(rep.trace_digest, expect);

  const std::string name = GetParam();
  if (name == "publish_storm") {
    // Every tiny epoch published while the frontends raced it.
    EXPECT_EQ(rep.published_epochs, spec.train_epochs);
  }
  if (name == "restart_mid_traffic") {
    // Hostile traffic is off in this scenario, so every reconnect is
    // attributable to the restart: one clean reconnect per actor across
    // a real SaveMarsV3 → LoadMarsMapped + sidecar boundary.
    EXPECT_EQ(rep.reconnects, spec.num_actors);
  }
  if (name == "slow_reader") {
    // The undrained pipeliner must actually trip the cap — and the
    // normal actors' zero violations above prove isolation.
    EXPECT_GE(rep.backpressure_closes, 1u);
  }
  if (name == "zipf_hot_users" || name == "flash_crowd") {
    // Hostile traffic is on: stream-level closes happened and every one
    // was followed by a clean reconnect (none counted unexpected).
    EXPECT_GT(rep.stream_closes, 0u);
    EXPECT_GE(rep.reconnects, rep.stream_closes);
  }
}

// The Zipf scenario at both skews the issue calls out: s = 0.9 (mild
// head) and the canonical 1.2 (heavy head, covered by the matrix).
TEST(ScenarioMatrixZipfTest, MildSkewRunsClean) {
  ScenarioSpec spec = CanonicalScenarioSpec("zipf_hot_users", kSeed);
  spec.zipf_s = 0.9;
  const ScenarioReport rep = ScenarioRunner(spec).Run();
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_EQ(rep.violations(), 0u);
  EXPECT_GT(rep.responses, 0u);
  // Different skew, same seed: different traffic, still replayable.
  EXPECT_NE(rep.trace_digest,
            DigestTrace(
                GenerateTrace(CanonicalScenarioSpec("zipf_hot_users", kSeed),
                              nullptr)));
}

// A malformed spec surfaces as a report error, never a crash — the
// runner is driven from command lines and config files.
TEST(ScenarioMatrixSpecTest, MalformedSpecReportsInsteadOfAborting) {
  ScenarioSpec spec = CanonicalScenarioSpec("zipf_hot_users", kSeed);
  spec.num_actors = 0;
  const ScenarioReport rep = ScenarioRunner(spec).Run();
  EXPECT_FALSE(rep.ran);
  EXPECT_NE(rep.error, "");
  EXPECT_EQ(rep.responses, 0u);
}

}  // namespace
}  // namespace mars
