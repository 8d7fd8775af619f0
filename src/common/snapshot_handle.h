// Epoch-swapped snapshot publication: the RCU-style read path primitive.
//
// A SnapshotHandle<T> holds the *current* immutable snapshot of some state
// (a frozen model, a mapped store) behind one swappable shared_ptr slot.
// Readers call Acquire() to pin the snapshot for the duration of their
// operation — a ref-count bump under a micro-lock, nothing held afterwards
// — and publishers call Publish() to swap in the next epoch. In-flight
// readers keep serving from the epoch they pinned; the old snapshot is
// retired automatically when its last pinned reference drops. The lock
// covers only the pointer copy/swap (a few instructions), never the work
// readers do with the snapshot, so a publisher never blocks an in-flight
// sweep and a sweep never blocks the publisher beyond that copy.
//
// Implementation note: C++20's std::atomic<std::shared_ptr> would make
// the slot formally lock-free(ish), but libstdc++'s implementation guards
// its pointer field with a spin bit ThreadSanitizer cannot model, and
// this repo's CI runs the serving layer under TSAN with *no* suppressions
// (scripts/tsan.supp is scoped to model step functions). A plain mutex
// around the two-word copy is TSAN-clean, portable, and within noise of
// the atomic version for this access pattern: cache hits never touch the
// handle at all, so Acquire runs once per cache miss, not per query.
//
// This is the concurrency keystone of the serving layer: TopKServer pins
// one snapshot per miss-sweep, so ReplaceModel can publish a freshly
// trained epoch while any number of sweeps are mid-flight against the
// previous one. It is equally the generic form of the quiesce contract in
// docs/ARCHITECTURE.md — a snapshot handed to Publish must already be
// frozen (no concurrent writers); the handle adds safe *distribution* of
// frozen state, not mutual exclusion over live state.
//
// Epoch counter: every Publish bumps a monotonically increasing epoch,
// readable with epoch(). Publish swaps the pointer and increments the
// counter inside one critical section, so `epoch() == e` implies epoch
// e's snapshot is already acquirable. Consumers that cache state derived
// from a snapshot (the striped top-k cache) record the epoch they pinned
// and drop a computed result whose epoch is no longer current instead of
// caching stale data.
#ifndef MARS_COMMON_SNAPSHOT_HANDLE_H_
#define MARS_COMMON_SNAPSHOT_HANDLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace mars {

/// One swappable snapshot slot. T is the frozen state; the handle only
/// ever hands out `shared_ptr<const T>`.
template <typename T>
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  explicit SnapshotHandle(std::shared_ptr<const T> initial)
      : current_(std::move(initial)) {}

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  /// Pins the current snapshot: the returned pointer stays valid (and the
  /// snapshot alive) until the caller drops it, regardless of how many
  /// epochs are published meanwhile. Safe from any thread, any time.
  /// When `epoch_out` is non-null it receives the pinned snapshot's epoch
  /// — read under the same lock, so the pair is always consistent even
  /// mid-Publish.
  std::shared_ptr<const T> Acquire(uint64_t* epoch_out = nullptr) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_out != nullptr) {
      *epoch_out = epoch_.load(std::memory_order_relaxed);
    }
    return current_;
  }

  /// Publishes `next` as the new epoch and returns the snapshot it
  /// replaced (which may still be pinned by in-flight readers — dropping
  /// the returned pointer retires it once they finish). `next` must be
  /// frozen: the handle distributes immutable state, it does not lock
  /// writers out. Safe to race with Acquire; concurrent Publish calls
  /// serialize (last one wins).
  std::shared_ptr<const T> Publish(std::shared_ptr<const T> next) {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(next);
    epoch_.fetch_add(1, std::memory_order_release);
    return next;  // holds the previous snapshot after the swap
  }

  /// Number of Publish calls so far. `epoch() == e` guarantees epoch e's
  /// snapshot is (or was) acquirable; a reader that pinned at epoch e can
  /// detect a concurrent swap by re-reading after its work and comparing.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> current_;
  std::atomic<uint64_t> epoch_{0};
};

/// Wraps a raw pointer the caller guarantees outlives every reader into
/// the shared_ptr shape SnapshotHandle hands out, without taking
/// ownership (no control-block allocation; the aliasing constructor on an
/// empty owner). This is the bridge for call sites that own their model
/// by value or unique_ptr.
template <typename T>
std::shared_ptr<const T> UnownedSnapshot(const T* ptr) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>{}, ptr);
}

}  // namespace mars

#endif  // MARS_COMMON_SNAPSHOT_HANDLE_H_
