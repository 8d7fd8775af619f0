#include "serve/top_k_sidecar.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"

namespace mars {
namespace {

constexpr uint32_t kSidecarMagic = 0x4B53524D;  // "MRSK"
constexpr uint32_t kSidecarVersion = 1;

// Layout (little-endian):
//   magic u32, version u32, k u64, num_users u64, num_items u64,
//   num_entries u64, then per entry: user u32, count u32, count floats
//   (scores), count u32s (items). Entries are ordered most recently used
//   first, matching ForEachCached.

}  // namespace

bool SaveTopKSidecar(const TopKServer& server, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    MARS_LOG(ERROR) << "SaveTopKSidecar: cannot open " << path;
    return false;
  }
  // Collect in one ForEachCached traversal, then write the header with
  // the count actually collected: reading the count and the entries in
  // separate passes could disagree when frontend queries race the save
  // (the server's read front is allowed to run during maintenance), and
  // a mismatched count makes the loader reject the whole sidecar.
  struct Entry {
    UserId user;
    std::vector<ItemId> items;
    std::vector<float> scores;
  };
  std::vector<Entry> entries;
  server.ForEachCached([&entries](UserId u, const std::vector<ItemId>& items,
                                  const std::vector<float>& scores) {
    entries.push_back({u, items, scores});
  });
  WriteU32(out, kSidecarMagic);
  WriteU32(out, kSidecarVersion);
  WriteU64(out, server.options().k);
  WriteU64(out, server.num_users());
  WriteU64(out, server.num_items());
  WriteU64(out, entries.size());
  for (const Entry& e : entries) {
    WriteU32(out, e.user);
    WriteU32(out, static_cast<uint32_t>(e.items.size()));
    WriteFloats(out, e.scores.data(), e.scores.size());
    // Entries are tiny (<= k ids), so per-element writes through the
    // shared helper beat a raw byte dump that would bypass it.
    for (const ItemId v : e.items) WriteU32(out, v);
  }
  return out.good();
}

size_t WarmFromSidecar(TopKServer* server, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    MARS_LOG(ERROR) << "WarmFromSidecar: cannot open " << path;
    return 0;
  }
  uint32_t magic = 0, version = 0;
  if (!ReadU32(in, &magic) || magic != kSidecarMagic) {
    MARS_LOG(ERROR) << "WarmFromSidecar: bad magic in " << path;
    return 0;
  }
  if (!ReadU32(in, &version) || version != kSidecarVersion) {
    MARS_LOG(ERROR) << "WarmFromSidecar: unsupported sidecar version";
    return 0;
  }
  uint64_t k = 0, n_users = 0, n_items = 0, n_entries = 0;
  if (!ReadU64(in, &k) || !ReadU64(in, &n_users) || !ReadU64(in, &n_items) ||
      !ReadU64(in, &n_entries)) {
    MARS_LOG(ERROR) << "WarmFromSidecar: truncated header in " << path;
    return 0;
  }
  if (k != server->options().k || n_users != server->num_users() ||
      n_items != server->num_items()) {
    MARS_LOG(ERROR) << "WarmFromSidecar: sidecar shape (k=" << k << ", "
                    << n_users << " users, " << n_items << " items) does "
                    << "not match the server (k=" << server->options().k
                    << ", " << server->num_users() << " users, "
                    << server->num_items() << " items)";
    return 0;
  }
  if (n_entries > n_users) {
    MARS_LOG(ERROR) << "WarmFromSidecar: implausible entry count in "
                    << path;
    return 0;
  }

  // Parse every entry before touching the server: a corrupt sidecar loads
  // nothing instead of half a cache.
  struct Entry {
    UserId user;
    std::vector<ItemId> items;
    std::vector<float> scores;
  };
  const uint64_t max_count = std::min<uint64_t>(k, n_items);
  std::vector<Entry> entries;
  entries.reserve(n_entries);
  for (uint64_t i = 0; i < n_entries; ++i) {
    uint32_t user = 0, count = 0;
    if (!ReadU32(in, &user) || !ReadU32(in, &count) || user >= n_users ||
        count > max_count) {
      MARS_LOG(ERROR) << "WarmFromSidecar: corrupt entry " << i << " in "
                      << path;
      return 0;
    }
    Entry e;
    e.user = user;
    e.scores.resize(count);
    e.items.resize(count);
    if (!ReadFloats(in, e.scores.data(), count)) {
      MARS_LOG(ERROR) << "WarmFromSidecar: truncated entry " << i << " in "
                      << path;
      return 0;
    }
    for (ItemId& v : e.items) {
      if (!ReadU32(in, &v)) {
        MARS_LOG(ERROR) << "WarmFromSidecar: truncated entry " << i
                        << " in " << path;
        return 0;
      }
    }
    if (!IsRankedList(e.items, e.scores, n_items)) {
      MARS_LOG(ERROR) << "WarmFromSidecar: entry " << i << " of " << path
                      << " is not a ranked list of catalog items";
      return 0;
    }
    entries.push_back(std::move(e));
  }

  // The file stores most-recent-first; prime in reverse so the hottest
  // user ends up at the front of the LRU again.
  size_t primed = 0;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (server->Prime(it->user, std::move(it->items),
                      std::move(it->scores))) {
      ++primed;
    }
  }
  return primed;
}

}  // namespace mars
