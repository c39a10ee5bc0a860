// Futex-based park/unpark — the scheduler interaction substrate.
//
// Kernel blocking locks (mutex, rwsem) put waiters to sleep via the
// scheduler; in userspace the analogue is futex. Blocking lock variants and
// the "adaptable parking/wake-up strategy" use case (paper §3.1.1) go through
// this interface so the park decision is a policy, not a hard-coded constant.

#ifndef SRC_SYNC_PARKING_LOT_H_
#define SRC_SYNC_PARKING_LOT_H_

#include <atomic>
#include <cstdint>

namespace concord {

class ParkingLot {
 public:
  // Blocks the calling thread while `*word == expected`. Returns when woken
  // or when the value changed. Spurious returns are allowed; callers must
  // re-check their predicate.
  static void Park(std::atomic<std::uint32_t>* word, std::uint32_t expected);

  // Wakes at most one parked thread.
  static void UnparkOne(std::atomic<std::uint32_t>* word);
};

}  // namespace concord

#endif  // SRC_SYNC_PARKING_LOT_H_
