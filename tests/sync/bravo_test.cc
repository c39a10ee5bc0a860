#include "src/sync/bravo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/time.h"
#include "src/rcu/rcu.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

TEST(BravoTest, NeutralModeNeverUsesFastPath) {
  BravoLock<NeutralRwLock> lock;  // default mode is kNeutral
  for (int i = 0; i < 100; ++i) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  EXPECT_EQ(lock.fast_reads(), 0u);
  EXPECT_EQ(lock.slow_reads(), 100u);
}

TEST(BravoTest, ReaderBiasEngagesFastPath) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  for (int i = 0; i < 100; ++i) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  EXPECT_GT(lock.fast_reads(), 0u);
  EXPECT_TRUE(lock.bias_active());
}

TEST(BravoTest, WriterRevokesBias) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  lock.ReadLock();
  lock.ReadUnlock();
  ASSERT_TRUE(lock.bias_active());

  lock.WriteLock();
  lock.WriteUnlock();
  EXPECT_FALSE(lock.bias_active());
  EXPECT_EQ(lock.revocations(), 1u);
}

TEST(BravoTest, BiasReenablesAfterInhibitWindow) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  lock.ReadLock();
  lock.ReadUnlock();
  lock.WriteLock();
  lock.WriteUnlock();
  ASSERT_FALSE(lock.bias_active());
  // The inhibit window is proportional to the (tiny) revocation cost; after
  // a generous sleep a read re-arms the bias.
  BurnNs(5'000'000);
  lock.ReadLock();
  lock.ReadUnlock();
  EXPECT_TRUE(lock.bias_active());
}

TEST(BravoTest, ReaderBiasNeverAdmitsAReaderPastAnActiveWriter) {
  // Re-arming the bias is only safe under the underlying read lock: a reader
  // that re-armed it before taking that lock would take the fast path while
  // the writer below is still inside.
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  lock.WriteLock();

  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    lock.ReadLock();
    reader_in.store(true);
    lock.ReadUnlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(reader_in.load());
  EXPECT_EQ(lock.fast_reads(), 0u);

  lock.WriteUnlock();
  reader.join();
  EXPECT_TRUE(reader_in.load());
  EXPECT_EQ(lock.slow_reads(), 1u);
}

// Every read acquisition is counted exactly once, as fast or slow, while
// readers race each other and a writer that revokes the bias. The first
// phase has no writer, so under reader bias it takes the fast path; every
// reader reads again after the writer's last revocation, so some read takes
// the slow path. In neutral mode every read is slow.
void ExpectExactReadCountsUnderConcurrentReaders(RwMode mode) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(mode);
  constexpr int kReaders = 3;
  constexpr std::uint64_t kReadsPerPhase = 10'000;
  std::barrier start_writer(kReaders + 1);
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      std::uint64_t mine = 0;
      auto read = [&] {
        lock.ReadLock();
        lock.ReadUnlock();
        ++mine;
      };
      for (std::uint64_t i = 0; i < kReadsPerPhase; ++i) {
        read();
      }
      start_writer.arrive_and_wait();
      for (std::uint64_t i = 0; i < kReadsPerPhase; ++i) {
        read();
      }
      while (!writer_done.load()) {
        read();
      }
      read();
      reads.fetch_add(mine);
    });
  }
  threads.emplace_back([&] {
    start_writer.arrive_and_wait();
    for (int i = 0; i < 100; ++i) {
      lock.WriteLock();
      lock.WriteUnlock();
      std::this_thread::yield();
    }
    writer_done.store(true);
  });
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(lock.fast_reads() + lock.slow_reads(), reads.load());
  if (mode == RwMode::kReaderBias) {
    EXPECT_GT(lock.fast_reads(), 0u);
    EXPECT_GT(lock.slow_reads(), 0u);
  } else {
    EXPECT_EQ(lock.fast_reads(), 0u);
  }
  EXPECT_GT(lock.revocations(), 0u);  // a fresh lock starts biased
}

TEST(BravoTest, ReadCountersStayExactUnderConcurrentReaders) {
  ExpectExactReadCountsUnderConcurrentReaders(RwMode::kReaderBias);
}

TEST(BravoTest, ReadCountersStayExactUnderConcurrentReadersInNeutralMode) {
  ExpectExactReadCountsUnderConcurrentReaders(RwMode::kNeutral);
}

// Runs body(0) and body(1) at once on two threads whose task ids hash to one
// visible-readers slot. Ids are handed out in registration order and the
// slot hash spreads consecutive ids, so the calling thread first registers
// short-lived threads (about 70) until the ids it needs come up.
template <typename Body>
void RunOnTwoThreadsSharingASlot(Body body) {
  using Lock = BravoLock<NeutralRwLock>;
  ThreadRegistry& registry = ThreadRegistry::Global();
  Self();  // the calling thread takes its id before the ids are planned
  std::uint32_t planned[2] = {0, 0};
  std::map<std::uint32_t, std::uint32_t> first_id_of_slot;
  for (std::uint32_t id = registry.num_registered();; ++id) {
    const auto [it, fresh] = first_id_of_slot.emplace(Lock::SlotIndexFor(id), id);
    if (!fresh) {
      planned[0] = it->second;
      planned[1] = id;
      break;
    }
  }
  std::atomic<bool> go{false};
  std::uint32_t ids[2] = {0, 0};
  std::vector<std::thread> readers;
  while (registry.num_registered() <= planned[1]) {
    const std::uint32_t next = registry.num_registered();
    if (next != planned[0] && next != planned[1]) {
      std::thread([] { Self(); }).join();
      continue;
    }
    const int index = static_cast<int>(readers.size());
    std::atomic<bool> registered{false};
    readers.emplace_back([&, index] {
      ids[index] = Self().task_id;
      registered.store(true);
      while (!go.load()) {
        std::this_thread::yield();
      }
      body(index);
    });
    while (!registered.load()) {
      std::this_thread::yield();
    }
  }
  const bool shared = readers.size() == 2 && ids[0] == planned[0] &&
                      ids[1] == planned[1];
  go.store(true);
  for (auto& reader : readers) {
    reader.join();
  }
  ASSERT_TRUE(shared) << "another thread registered while the ids were planned";
  ASSERT_EQ(Lock::SlotIndexFor(ids[0]), Lock::SlotIndexFor(ids[1]));
}

TEST(BravoTest, ThreadsSharingASlotCountEveryReadOnce) {
  // Two readers hash to one visible-readers slot, so they count in one line.
  // In lockstep, one holds the slot through a fast-path read while the other
  // reads; that read finds the slot taken and goes to the slow path. The
  // roles swap every round, so each thread alternates fast and slow reads
  // and the slot's fast count passes from holder to holder. Then both read
  // freely at once.
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  constexpr std::uint64_t kRounds = 200;
  constexpr std::uint64_t kFreeReads = 10'000;
  std::atomic<std::uint64_t> step{0};
  auto await = [&](std::uint64_t value) {
    while (step.load() != value) {
      std::this_thread::yield();
    }
  };
  RunOnTwoThreadsSharingASlot([&](int index) {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      if (round % 2 == static_cast<std::uint64_t>(index)) {
        await(3 * round);
        lock.ReadLock();  // fast: the slot is free and the bias is on
        step.store(3 * round + 1);
        await(3 * round + 2);
        lock.ReadUnlock();
        step.store(3 * round + 3);
      } else {
        await(3 * round + 1);
        lock.ReadLock();  // slow: the other thread holds the shared slot
        lock.ReadUnlock();
        step.store(3 * round + 2);
      }
    }
  });
  EXPECT_EQ(lock.fast_reads(), kRounds);
  EXPECT_EQ(lock.slow_reads(), kRounds);

  RunOnTwoThreadsSharingASlot([&](int) {
    for (std::uint64_t i = 0; i < kFreeReads; ++i) {
      lock.ReadLock();
      lock.ReadUnlock();
    }
  });
  EXPECT_EQ(lock.fast_reads() + lock.slow_reads(), 2 * kRounds + 2 * kFreeReads);
  EXPECT_GE(lock.slow_reads(), kRounds);
  EXPECT_EQ(lock.revocations(), 0u);
}

TEST(BravoTest, WriterOnlyModeSerializesReaders) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kWriterOnly);
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 300; ++i) {
        lock.ReadLock();  // takes the write path in this mode
        if (inside.fetch_add(1) != 0) {
          overlapped.store(true);
        }
        inside.fetch_sub(1);
        lock.ReadUnlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(overlapped.load());
  // A writer-only read holds the underlying write lock and counts as slow.
  EXPECT_EQ(lock.slow_reads(), 4u * 300u);
  EXPECT_EQ(lock.fast_reads(), 0u);
}

TEST(BravoTest, RwModeHookSwitchesRegimesLive) {
  BravoLock<NeutralRwLock> lock;
  static std::atomic<std::uint32_t> mode{
      static_cast<std::uint32_t>(RwMode::kNeutral)};
  auto hooks = std::make_unique<HookTable>();
  hooks->rw_mode = [](void*) { return mode.load(); };
  lock.hook_site().Install(hooks.get());

  lock.ReadLock();
  lock.ReadUnlock();
  EXPECT_EQ(lock.fast_reads(), 0u);

  mode.store(static_cast<std::uint32_t>(RwMode::kReaderBias));
  for (int i = 0; i < 10; ++i) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  EXPECT_GT(lock.fast_reads(), 0u);

  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
}

TEST(BravoTest, FastReadersBlockWriterUntilDrained) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  // Arm bias.
  lock.ReadLock();
  lock.ReadUnlock();

  std::atomic<bool> reader_in{false};
  std::atomic<bool> release_reader{false};
  std::atomic<bool> writer_done{false};

  std::thread reader([&] {
    lock.ReadLock();
    reader_in.store(true);
    while (!release_reader.load()) {
      std::this_thread::yield();
    }
    EXPECT_FALSE(writer_done.load());  // writer must not finish while we read
    lock.ReadUnlock();
  });
  while (!reader_in.load()) {
    std::this_thread::yield();
  }

  std::thread writer([&] {
    lock.WriteLock();
    writer_done.store(true);
    lock.WriteUnlock();
  });
  BurnNs(5'000'000);
  EXPECT_FALSE(writer_done.load());
  release_reader.store(true);
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(BravoTest, MixedFastSlowReadersKeepCorrectness) {
  BravoLock<NeutralRwLock> lock;
  lock.SetDefaultMode(RwMode::kReaderBias);
  std::uint64_t value = 0;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        if (t == 0 && i % 10 == 0) {
          lock.WriteLock();
          value += 1;  // only writer mutates
          lock.WriteUnlock();
        } else {
          lock.ReadLock();
          const std::uint64_t v1 = value;
          const std::uint64_t v2 = value;
          if (v1 != v2) {
            torn.store(true);
          }
          lock.ReadUnlock();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(torn.load());
}

}  // namespace
}  // namespace concord
