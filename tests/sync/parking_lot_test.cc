#include "src/sync/parking_lot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/base/time.h"

namespace concord {
namespace {

TEST(ParkingLotTest, ParkReturnsImmediatelyOnValueMismatch) {
  std::atomic<std::uint32_t> word{5};
  const std::uint64_t start = MonotonicNowNs();
  ParkingLot::Park(&word, 4);  // expected != actual => no sleep
  EXPECT_LT(MonotonicNowNs() - start, 100'000'000ull);
}

TEST(ParkingLotTest, UnparkOneWakesParkedThread) {
  std::atomic<std::uint32_t> word{1};
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    while (word.load() == 1) {
      ParkingLot::Park(&word, 1);
    }
    woke.store(true);
  });
  BurnNs(5'000'000);
  EXPECT_FALSE(woke.load());
  word.store(0);
  ParkingLot::UnparkOne(&word);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace concord
