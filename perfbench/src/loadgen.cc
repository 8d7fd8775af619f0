#include "loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace perfbench {

using mars::FrameDecoder;
using mars::UserId;
using mars::WireResponse;

UserSampler UserSampler::Uniform(size_t num_users) {
  UserSampler s;
  s.rank_to_user_.resize(num_users);
  for (size_t i = 0; i < num_users; ++i) {
    s.rank_to_user_[i] = static_cast<UserId>(i);
  }
  return s;
}

UserSampler UserSampler::Zipf(size_t num_users, size_t support,
                              double exponent, uint64_t seed) {
  UserSampler s = Uniform(num_users);
  mars::Rng rng(seed);
  rng.Shuffle(&s.rank_to_user_);
  s.cdf_.resize(std::min(support, num_users));
  double total = 0.0;
  for (size_t r = 0; r < s.cdf_.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -exponent);
    s.cdf_[r] = total;
  }
  for (double& c : s.cdf_) c /= total;
  return s;
}

UserId UserSampler::Draw(mars::Rng* rng) const {
  if (cdf_.empty()) {
    return rank_to_user_[rng->UniformInt(rank_to_user_.size())];
  }
  const double u = rng->Uniform();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_user_[std::min(rank, cdf_.size() - 1)];
}

OpenLoopPlan MakePoissonPlan(double rate, double seconds,
                             const UserSampler& users, uint64_t seed) {
  OpenLoopPlan plan;
  plan.rate = rate;
  plan.seconds = seconds;
  mars::Rng rng(seed);
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate * 1e9;
    if (t >= end_ns) break;
    plan.due_ns.push_back(static_cast<uint64_t>(t));
    plan.users.push_back(users.Draw(&rng));
  }
  return plan;
}

namespace {

struct Conn {
  int fd = -1;
  bool alive = true;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  FrameDecoder decoder;
};

int ConnectNonBlocking(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Writes as much of the connection's pending bytes as the socket takes.
void Flush(Conn* c) {
  while (c->alive && c->out_off < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      c->alive = false;
    }
  }
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
  }
}

/// Reads everything the socket has and hands each decoded response to
/// `on_response` (ok is false for an error frame or an undecodable
/// payload). Marks the connection dead on close or a corrupt stream.
template <typename F>
void ReadResponses(Conn* conn, std::vector<uint8_t>* buf, F&& on_response) {
  for (;;) {
    const ssize_t got = recv(conn->fd, buf->data(), buf->size(), MSG_DONTWAIT);
    if (got > 0) {
      conn->decoder.Append(buf->data(), static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      conn->alive = false;
    }
    break;
  }
  mars::Frame frame;
  for (;;) {
    const auto r = conn->decoder.Next(&frame);
    if (r == FrameDecoder::Result::kNeedMore) break;
    if (r == FrameDecoder::Result::kBad) {
      conn->alive = false;
      break;
    }
    WireResponse resp;
    bool ok = false;
    if (frame.type == mars::FrameType::kTopKResponse) {
      ok = mars::DecodeTopKResponsePayload(frame.payload, &resp);
    } else if (frame.type == mars::FrameType::kError) {
      mars::WireStatus code = mars::WireStatus::kInternal;
      mars::DecodeErrorPayload(frame.payload, &resp.request_id, &code);
      resp.status = code;
    }
    if (!on_response(std::move(resp), ok)) {
      conn->alive = false;  // unmatchable response: stream is corrupt
      break;
    }
  }
}

std::vector<std::unique_ptr<Conn>> ConnectAll(const OpenLoopOptions& options) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < std::max<size_t>(1, options.connections); ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ConnectNonBlocking(options.host, options.port);
    if (conn->fd < 0) {
      for (auto& open : conns) close(open->fd);
      return {};
    }
    conns.push_back(std::move(conn));
  }
  return conns;
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const OpenLoopPlan& plan,
                           const ResponseCheck& check) {
  OpenLoopResult res;
  const size_t n = plan.due_ns.size();
  res.planned = n;
  std::vector<std::unique_ptr<Conn>> conns = ConnectAll(options);
  if (conns.empty()) {
    res.failed = n;
    return res;
  }
  const size_t num_conns = conns.size();

  std::vector<uint64_t> sent_at(n, 0);
  std::vector<uint8_t> answered(n, 0);
  res.latency_ms.reserve(n);
  res.late_ms.reserve(n);

  const uint64_t start = NowNs() + 1000000;  // 1 ms to settle
  res.start_ns = start;
  const uint64_t window_ns = static_cast<uint64_t>(plan.seconds * 1e9);
  const uint64_t drain_deadline =
      start + window_ns + static_cast<uint64_t>(options.drain_timeout_s * 1e9);
  constexpr size_t num_samples = 30;  // backlog samples over the window
  size_t next_sample = 0;
  auto sample_time = [&](size_t i) {
    return start + window_ns * (i + 1) / (num_samples + 1);
  };

  size_t next = 0;  // next plan index to send
  size_t received = 0;
  std::vector<pollfd> pfds(num_conns);
  std::vector<uint8_t> buf(64 * 1024);
  bool backlog_end_taken = false;

  auto due_count = [&](uint64_t now) {
    if (now < start) return size_t{0};
    const uint64_t rel = now - start;
    return static_cast<size_t>(
        std::upper_bound(plan.due_ns.begin(), plan.due_ns.end(), rel) -
        plan.due_ns.begin());
  };

  for (;;) {
    uint64_t now = NowNs();
    // Send everything due, in plan order.
    bool queued = false;
    while (next < n && start + plan.due_ns[next] <= now) {
      Conn& c = *conns[next % num_conns];
      mars::TopKRequest req;
      req.user = plan.users[next];
      mars::EncodeTopKRequest(next + 1, req, &c.out);
      sent_at[next] = now;
      ++next;
      queued = true;
    }
    if (queued) {
      for (auto& c : conns) Flush(c.get());
      now = NowNs();
    }
    while (next_sample < num_samples && sample_time(next_sample) <= now) {
      res.backlog.push_back(static_cast<double>(due_count(now)) -
                            static_cast<double>(received));
      ++next_sample;
    }
    if (!backlog_end_taken && now >= start + window_ns) {
      res.backlog_end = due_count(now) - std::min(due_count(now), received);
      backlog_end_taken = true;
    }
    if (next == n && received == n) break;
    if (now >= drain_deadline) break;
    bool any_alive = false;
    for (auto& c : conns) any_alive |= c->alive;
    if (!any_alive) break;

    // Never sleep: a kernel wake-up can land milliseconds late on a
    // virtualized host, and every request must leave at its due time.
    const timespec ts{0, 0};
    for (size_t c = 0; c < num_conns; ++c) {
      pfds[c].fd = conns[c]->alive ? conns[c]->fd : -1;
      pfds[c].events = POLLIN;
      if (conns[c]->out_off < conns[c]->out.size()) pfds[c].events |= POLLOUT;
      pfds[c].revents = 0;
    }
    const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < num_conns; ++c) {
      Conn& conn = *conns[c];
      if (pfds[c].revents & POLLOUT) Flush(&conn);
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const uint64_t done = NowNs();
      ReadResponses(&conn, &buf, [&](WireResponse&& resp, bool ok) {
        const uint64_t id = resp.request_id;
        if (id == 0 || id > next || answered[id - 1]) return false;
        const size_t idx = id - 1;
        answered[idx] = 1;
        ++received;
        if (!ok || !check(plan.users[idx], resp)) {
          ++res.rejected;
          return true;
        }
        ++res.completed;
        res.latency_index.push_back(idx);
        res.latency_ms.push_back(
            static_cast<double>(done - (start + plan.due_ns[idx])) / 1e6);
        if (options.sample_every > 0 && idx % options.sample_every == 0) {
          res.sampled.emplace_back(idx, std::move(resp));
        }
        return true;
      });
    }
  }

  if (!backlog_end_taken) {
    const uint64_t now = NowNs();
    res.backlog_end = due_count(now) - std::min(due_count(now), received);
  }
  for (auto& c : conns) close(c->fd);
  res.sent = next;
  for (size_t i = 0; i < next; ++i) {
    res.late_ms.push_back(
        static_cast<double>(sent_at[i] - (start + plan.due_ns[i])) / 1e6);
  }
  res.failed = n - res.completed;
  return res;
}

std::vector<double> LatencyWithFailures(const OpenLoopResult& result) {
  std::vector<double> out = result.latency_ms;
  out.insert(out.end(), result.failed,
             std::numeric_limits<double>::infinity());
  return out;
}

}  // namespace perfbench
