// Ticket spinlock — the "Stock" baseline.
//
// FIFO-fair, single cache line. This is the stand-in for a stock kernel
// spinlock in the paper's Figure 2(b): fair but collapses under cross-socket
// contention because every waiter spins on the same now-serving word.

#ifndef SRC_SYNC_TICKET_LOCK_H_
#define SRC_SYNC_TICKET_LOCK_H_

#include <atomic>

#include "src/base/cacheline.h"
#include "src/base/spinwait.h"

namespace concord {

class CONCORD_CACHE_ALIGNED TicketLock {
 public:
  TicketLock() = default;
  TicketLock(const TicketLock&) = delete;
  TicketLock& operator=(const TicketLock&) = delete;

  void Lock() {
    const std::uint32_t my = next_.fetch_add(1, std::memory_order_relaxed);
    SpinWait spin;
    while (serving_.load(std::memory_order_acquire) != my) {
      spin.Once();
    }
  }

  bool TryLock() {
    // Acquire: on success this pairs with the previous holder's release of
    // serving_, like the acquire load that ends Lock()'s spin.
    std::uint32_t serving = serving_.load(std::memory_order_acquire);
    std::uint32_t expected = serving;
    // Lock is free iff next == serving; claim by bumping next.
    return next_.compare_exchange_strong(expected, serving + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void Unlock() {
    serving_.store(serving_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

 private:
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint32_t> serving_{0};
};

}  // namespace concord

#endif  // SRC_SYNC_TICKET_LOCK_H_
