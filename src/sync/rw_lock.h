// Readers-writer lock.
//
// NeutralRwLock is the "stock" centralized readers-writer lock (one counter
// word, writer preference to avoid writer starvation) — the baseline in the
// paper's Figure 2(a), and the lock BravoLock wraps.

#ifndef SRC_SYNC_RW_LOCK_H_
#define SRC_SYNC_RW_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/base/cacheline.h"
#include "src/base/spinwait.h"

namespace concord {

class CONCORD_CACHE_ALIGNED NeutralRwLock {
 public:
  NeutralRwLock() = default;
  NeutralRwLock(const NeutralRwLock&) = delete;
  NeutralRwLock& operator=(const NeutralRwLock&) = delete;

  void ReadLock() {
    SpinWait spin;
    while (true) {
      if (writers_waiting_.load(std::memory_order_relaxed) == 0) {
        std::int32_t s = state_.load(std::memory_order_relaxed);
        if (s >= 0 &&
            state_.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          return;
        }
      }
      spin.Once();
    }
  }

  bool TryReadLock() {
    if (writers_waiting_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    std::int32_t s = state_.load(std::memory_order_relaxed);
    return s >= 0 && state_.compare_exchange_strong(s, s + 1,
                                                    std::memory_order_acquire,
                                                    std::memory_order_relaxed);
  }

  void ReadUnlock() { state_.fetch_sub(1, std::memory_order_release); }

  void WriteLock() {
    writers_waiting_.fetch_add(1, std::memory_order_relaxed);
    SpinWait spin;
    std::int32_t expected = 0;
    while (!state_.compare_exchange_weak(expected, -1, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      expected = 0;
      spin.Once();
    }
    writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
  }

  bool TryWriteLock() {
    std::int32_t expected = 0;
    return state_.compare_exchange_strong(expected, -1, std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void WriteUnlock() { state_.store(0, std::memory_order_release); }

  std::int32_t reader_count() const {
    const std::int32_t s = state_.load(std::memory_order_relaxed);
    return s > 0 ? s : 0;
  }
  bool write_locked() const { return state_.load(std::memory_order_relaxed) < 0; }

 private:
  std::atomic<std::int32_t> state_{0};  // >0 readers, -1 writer
  std::atomic<std::uint32_t> writers_waiting_{0};
};

}  // namespace concord

#endif  // SRC_SYNC_RW_LOCK_H_
