#include "src/sync/parking_lot.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "src/base/fault.h"

namespace concord {
namespace {

long Futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t value) {
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, value,
                 nullptr, nullptr, 0);
}

// Injected wakeup latency: stalls (never drops) the wake so tests can prove
// waiters survive a tardy unpark. Compiles to nothing in release builds.
void MaybeDelayWake() {
  if (const std::uint64_t delay_ns = CONCORD_FAULT_DELAY_NS("park.delayed_wake");
      delay_ns != 0) {
    timespec ts;
    ts.tv_sec = static_cast<time_t>(delay_ns / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(delay_ns % 1'000'000'000ull);
    nanosleep(&ts, nullptr);
  }
}

}  // namespace

void ParkingLot::Park(std::atomic<std::uint32_t>* word, std::uint32_t expected) {
  Futex(word, FUTEX_WAIT_PRIVATE, expected);
}

void ParkingLot::UnparkOne(std::atomic<std::uint32_t>* word) {
  MaybeDelayWake();
  Futex(word, FUTEX_WAKE_PRIVATE, 1);
}

}  // namespace concord
