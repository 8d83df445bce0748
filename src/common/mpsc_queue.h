// Bounded multi-producer/single-consumer request queue.
//
// The service layer (docs/SERVICE.md) puts one of these in front of each
// shard engine: N client threads push requests, one drain worker pops them
// in batches and retires the whole batch behind a single persist barrier.
// The queue is deliberately a plain mutex+condvar design — on this
// workload the barrier (an msync-class event, ~100us) dwarfs any lock-free
// cleverness, and the mutex keeps the ordering argument trivial: pops
// observe pushes in a single total order per queue.
//
// `pop_batch` is greedy with a zero straggler gap — it takes whatever is
// queued right now and returns, the deterministic mode the unit tests
// drive — and otherwise holds the batch open until no item arrived for
// one gap (docs/SERVICE.md §3).
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"

namespace ccnvm {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Blocks while the queue is full. Returns false iff the queue was
  /// closed (the item is dropped); true once the item is enqueued.
  bool push(T item) {
    MutexLock lock(mu_);
    not_full_.wait(lock, [this]() CCNVM_REQUIRES(mu_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    ++pushed_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    not_empty_.notify_one();
    return true;
  }

  /// Pops up to max_items into `out` (appended). Blocks until at least one
  /// item is available or the queue is closed; returns the number popped
  /// (0 only on closed-and-empty). With a non-zero `gap`, keeps the batch
  /// open for stragglers until no item arrived for one gap or the batch
  /// fills, amortizing one barrier across more acks.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items,
                        std::chrono::microseconds gap) {
    if (max_items == 0) return 0;
    MutexLock lock(mu_);
    not_empty_.wait(lock, [this]() CCNVM_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    std::size_t taken = take_locked(out, max_items);
    if (taken != 0 && taken < max_items && !closed_ && gap.count() > 0) {
      while (taken < max_items) {
        const bool ready = not_empty_.wait_until(
            lock, std::chrono::steady_clock::now() + gap,
            [this]() CCNVM_REQUIRES(mu_) {
              return closed_ || !items_.empty();
            });
        const std::size_t got = take_locked(out, max_items - taken);
        taken += got;
        if (closed_) break;
        if (!ready && got == 0) break;  // a full gap passed with no arrival
      }
    }
    if (taken != 0) not_full_.notify_all();
    return taken;
  }

  /// Closes the queue: pending pushes and future pushes return false,
  /// pop_batch drains what is queued and then returns 0.
  void close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  /// Current queue depth (racy snapshot, for stats only).
  std::size_t depth() const {
    MutexLock lock(mu_);
    return items_.size();
  }

  /// Highest depth ever observed at push time.
  std::size_t high_water() const {
    MutexLock lock(mu_);
    return high_water_;
  }

  /// Total items ever enqueued.
  std::size_t pushed() const {
    MutexLock lock(mu_);
    return pushed_;
  }

 private:
  CCNVM_REQUIRES(mu_) std::size_t take_locked(std::vector<T>& out,
                                              std::size_t want) {
    std::size_t n = 0;
    while (n < want && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    return n;
  }

  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  CCNVM_GUARDED_BY(mu_) std::deque<T> items_;
  CCNVM_GUARDED_BY(mu_) bool closed_ = false;
  CCNVM_GUARDED_BY(mu_) std::size_t high_water_ = 0;
  CCNVM_GUARDED_BY(mu_) std::size_t pushed_ = 0;
};

}  // namespace ccnvm
