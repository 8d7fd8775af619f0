// Seeded request generation and the open-loop wire client.
//
// The benchmark decides every input before the program sees it: a plan is
// the full list of (due time, user) pairs drawn from the workload seed,
// and the client only replays it. RunOpenLoop sends each request when it
// is due — never waiting for earlier responses — over a few non-blocking
// loopback connections from one thread, and times every request from its
// due time, so a stalled server shows up as rising latency of the
// requests queued behind the stall rather than as fewer requests sent.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/interaction.h"
#include "net/protocol.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Draws user ids: uniform over the user base, or Zipf(s) over the
/// popularity ranks of a hot set of `support` users, mapped to ids through
/// a seeded permutation (so the hot set is spread over every cache stripe
/// rather than one id range).
class UserSampler {
 public:
  static UserSampler Uniform(size_t num_users);
  static UserSampler Zipf(size_t num_users, size_t support, double s,
                          uint64_t seed);

  mars::UserId Draw(mars::Rng* rng) const;
  /// The user at popularity rank `rank` (0 = hottest).
  mars::UserId ByRank(size_t rank) const { return rank_to_user_[rank]; }

 private:
  std::vector<double> cdf_;  // empty for uniform
  std::vector<mars::UserId> rank_to_user_;
};

/// An open-loop request plan: Poisson arrivals at `rate` for `seconds`.
struct OpenLoopPlan {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<uint64_t> due_ns;  // offsets from the window start, ascending
  std::vector<mars::UserId> users;
};

OpenLoopPlan MakePoissonPlan(double rate, double seconds,
                             const UserSampler& users, uint64_t seed);

/// Validates one response (status, ordering, epoch, ...); false counts the
/// request as failed.
using ResponseCheck =
    std::function<bool(mars::UserId, const mars::WireResponse&)>;

struct OpenLoopOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 2;
  /// After the last request is sent, wait at most this long for answers;
  /// requests still unanswered then are failures.
  double drain_timeout_s = 2.0;
  /// Keep every n-th response (by plan index) for later bit-for-bit
  /// comparison; 0 keeps none.
  size_t sample_every = 0;
};

struct OpenLoopResult {
  size_t planned = 0;
  size_t sent = 0;
  size_t completed = 0;  // answered and passed the check
  size_t failed = 0;     // never answered, error frame, or failed check
  size_t rejected = 0;   // answered, but an error frame or a failed check
  uint64_t start_ns = 0;  // steady-clock time of plan offset 0
  /// Due-time latency (response received - due) of each completed request.
  std::vector<double> latency_ms;
  /// Plan index of each latency_ms entry.
  std::vector<size_t> latency_index;
  /// Generator lateness (sent - due) of each sent request.
  std::vector<double> late_ms;
  /// (requests due - responses received), sampled evenly over the window.
  std::vector<double> backlog;
  /// Unanswered requests when the sending window closed.
  size_t backlog_end = 0;
  /// (plan index, response) of the sampled requests.
  std::vector<std::pair<size_t, mars::WireResponse>> sampled;
};

/// Replays `plan` against the server at options.host:port. Requests go
/// round-robin over the connections; each is timed from its due time.
/// When the connections cannot be opened, every request fails.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const OpenLoopPlan& plan,
                           const ResponseCheck& check);

/// Latencies with every failed request counted as missing any limit
/// (+infinity), for tail percentiles that must not improve by failing.
std::vector<double> LatencyWithFailures(const OpenLoopResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
