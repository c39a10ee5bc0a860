// Shared-memory profiler segment tests (src/concord/agent/shm_segment.h):
// round-trips, geometry/version gating, truncation handling, and the fuzz
// contract the multi-process agent depends on — random byte flips anywhere in
// the mapped region must never crash the reader, read out of bounds, or
// produce a snapshot that passes the seqlock+checksum gate while differing
// from what the writer published.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/concord/agent/shm_segment.h"

namespace concord {
namespace {

class ShmSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "shm_segment_test_" +
            std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".shm";
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static ShmLockSample MakeSample(std::uint64_t lock_id,
                                  const std::string& name,
                                  std::uint64_t scale) {
    ShmLockSample sample;
    sample.lock_id = lock_id;
    sample.name = name;
    sample.snapshot.acquisitions = 100 * scale;
    sample.snapshot.contentions = 40 * scale;
    sample.snapshot.releases = 99 * scale;
    sample.snapshot.socket_acquisitions[0] = 60 * scale;
    sample.snapshot.socket_acquisitions[1] = 40 * scale;
    sample.snapshot.cross_socket_handoffs = 25 * scale;
    sample.snapshot.budget_overruns = 2 * scale;
    sample.snapshot.quarantines = scale / 2;
    for (std::uint64_t i = 0; i < 40 * scale; ++i) {
      sample.snapshot.wait_ns.Record(1'000 + (i % 7) * 900);
      sample.snapshot.hold_ns.Record(200 + (i % 3) * 150);
    }
    return sample;
  }

  static void ExpectSamplesEqual(const ShmSegmentSample& got,
                                 const ShmSegmentSample& want) {
    ASSERT_EQ(got.locks.size(), want.locks.size());
    EXPECT_EQ(got.pid, want.pid);
    EXPECT_EQ(got.published_ns, want.published_ns);
    EXPECT_EQ(got.publish_count, want.publish_count);
    for (std::size_t i = 0; i < want.locks.size(); ++i) {
      const ShmLockSample& g = got.locks[i];
      const ShmLockSample& w = want.locks[i];
      EXPECT_EQ(g.lock_id, w.lock_id);
      EXPECT_EQ(g.name, w.name);
      EXPECT_EQ(g.snapshot.acquisitions, w.snapshot.acquisitions);
      EXPECT_EQ(g.snapshot.contentions, w.snapshot.contentions);
      EXPECT_EQ(g.snapshot.releases, w.snapshot.releases);
      EXPECT_EQ(g.snapshot.cross_socket_handoffs,
                w.snapshot.cross_socket_handoffs);
      EXPECT_EQ(g.snapshot.budget_overruns, w.snapshot.budget_overruns);
      EXPECT_EQ(g.snapshot.quarantines, w.snapshot.quarantines);
      for (std::size_t s = 0; s < kProfilerSocketSlots; ++s) {
        EXPECT_EQ(g.snapshot.socket_acquisitions[s],
                  w.snapshot.socket_acquisitions[s]);
      }
      for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
        EXPECT_EQ(g.snapshot.wait_ns.BucketCount(b),
                  w.snapshot.wait_ns.BucketCount(b));
        EXPECT_EQ(g.snapshot.hold_ns.BucketCount(b),
                  w.snapshot.hold_ns.BucketCount(b));
      }
      EXPECT_EQ(g.snapshot.wait_ns.Sum(), w.snapshot.wait_ns.Sum());
      EXPECT_EQ(g.snapshot.wait_ns.Max(), w.snapshot.wait_ns.Max());
      EXPECT_EQ(g.snapshot.hold_ns.Sum(), w.snapshot.hold_ns.Sum());
      EXPECT_EQ(g.snapshot.hold_ns.Max(), w.snapshot.hold_ns.Max());
    }
  }

  std::string path_;
};

TEST_F(ShmSegmentTest, RoundTripsSamplesThroughTheSegment) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/8);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  std::vector<ShmLockSample> published;
  published.push_back(MakeSample(7, "hot", 3));
  published.push_back(MakeSample(9, "cold1", 1));
  ASSERT_TRUE((*writer)->Publish(published, /*published_ns=*/12345).ok());

  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto sample = (*reader)->Read();
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();

  ShmSegmentSample want;
  want.pid = static_cast<std::uint64_t>(getpid());
  want.published_ns = 12345;
  want.publish_count = 2;  // Create() publishes an empty initial state
  want.locks = published;
  // Decoded snapshots carry the segment's publish stamp.
  ExpectSamplesEqual(*sample, want);
  EXPECT_EQ(sample->locks[0].snapshot.taken_at_ns, 12345u);
}

TEST_F(ShmSegmentTest, FreshSegmentReadsBackEmpty) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/4);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto sample = (*reader)->Read();
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_TRUE(sample->locks.empty());
  EXPECT_EQ(sample->publish_count, 1u);
}

TEST_F(ShmSegmentTest, PublishCountAdvancesPerPublish) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/4);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok());
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*writer)->Publish({MakeSample(1, "hot", i + 1)}, i).ok());
    auto sample = (*reader)->Read();
    ASSERT_TRUE(sample.ok());
    EXPECT_EQ(sample->publish_count, i + 2);
  }
}

TEST_F(ShmSegmentTest, RejectsMoreLocksThanCapacity) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/2);
  ASSERT_TRUE(writer.ok());
  std::vector<ShmLockSample> too_many = {MakeSample(1, "a", 1),
                                         MakeSample(2, "b", 1),
                                         MakeSample(3, "c", 1)};
  EXPECT_FALSE((*writer)->Publish(too_many, 1).ok());
}

TEST_F(ShmSegmentTest, TruncatesOverlongLockNames) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/2);
  ASSERT_TRUE(writer.ok());
  const std::string long_name(kShmMaxLockName + 20, 'x');
  ASSERT_TRUE((*writer)->Publish({MakeSample(1, long_name, 1)}, 1).ok());
  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok());
  auto sample = (*reader)->Read();
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ(sample->locks.size(), 1u);
  // NUL-terminated within the fixed record field.
  EXPECT_EQ(sample->locks[0].name, long_name.substr(0, kShmMaxLockName - 1));
}

TEST_F(ShmSegmentTest, VersionMismatchIsPermanentlyRejected) {
  auto writer = ShmSegmentWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok());

  const int fd = open(path_.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const std::uint64_t bad_version = kShmSegmentVersion + 1;
  ASSERT_EQ(pwrite(fd, &bad_version, sizeof(bad_version),
                   offsetof(ShmSegmentHeader, version)),
            static_cast<ssize_t>(sizeof(bad_version)));
  close(fd);

  auto sample = (*reader)->Read();
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kInvalidArgument);
  // A fresh Map must refuse the segment outright.
  EXPECT_FALSE(ShmSegmentReader::Map(path_).ok());
}

TEST_F(ShmSegmentTest, TruncatedSegmentIsPermanentlyRejected) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/8);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Publish({MakeSample(1, "hot", 2)}, 1).ok());
  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->Read().ok());

  ASSERT_EQ(truncate(path_.c_str(),
                     static_cast<off_t>(ShmSegmentBytes(8) / 2)),
            0);
  auto sample = (*reader)->Read();
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kInvalidArgument);
}

// The fuzz contract. Fixed seed; every iteration flips a few random bytes in
// the file (headers and records alike), reads, and requires one of exactly
// two outcomes: a clean Status error, or a sample bit-identical to what was
// published (flips landing beyond the live record region are invisible by
// design — they are outside the checksummed area). Anything else — a crash,
// an OOB access under sanitizers, or a "valid" sample with corrupt contents —
// fails the test.
TEST_F(ShmSegmentTest, FuzzedByteFlipsNeverYieldACorruptValidSample) {
  constexpr std::uint32_t kCapacity = 4;
  auto writer = ShmSegmentWriter::Create(path_, kCapacity);
  ASSERT_TRUE(writer.ok());
  std::vector<ShmLockSample> published = {MakeSample(3, "fuzzed", 5),
                                          MakeSample(4, "other", 2)};
  ASSERT_TRUE((*writer)->Publish(published, /*published_ns=*/777).ok());

  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok());
  auto baseline = (*reader)->Read();
  ASSERT_TRUE(baseline.ok());

  const int fd = open(path_.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const std::size_t bytes = ShmSegmentBytes(kCapacity);

  Xoshiro256 rng(0xC0FFEE5EED);
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    // Flip 1..8 bytes.
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    std::vector<std::pair<std::size_t, unsigned char>> undo;
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.NextBounded(bytes);
      const unsigned char mask =
          static_cast<unsigned char>(1 + rng.NextBounded(255));
      unsigned char byte = 0;
      ASSERT_EQ(pread(fd, &byte, 1, static_cast<off_t>(pos)), 1);
      const unsigned char flipped = byte ^ mask;
      ASSERT_EQ(pwrite(fd, &flipped, 1, static_cast<off_t>(pos)), 1);
      undo.emplace_back(pos, byte);
    }

    auto sample = (*reader)->Read();
    if (sample.ok()) {
      // The gate passed: the sample must be indistinguishable from the
      // published state (the flips only touched dead bytes).
      ExpectSamplesEqual(*sample, *baseline);
    } else {
      ++rejected;
    }

    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      ASSERT_EQ(pwrite(fd, &it->second, 1, static_cast<off_t>(it->first)), 1);
    }
    // Restored: the segment must read clean again.
    auto restored = (*reader)->Read();
    ASSERT_TRUE(restored.ok())
        << "iteration " << iter
        << " did not restore cleanly: " << restored.status().ToString();
  }
  close(fd);
  // Sanity on the fuzzer itself: most flips land in the checksummed live
  // region of this small segment and must have been rejected.
  EXPECT_GT(rejected, 500);
}

// The writer keeps publishing while a reader in another thread hammers
// Read(): every successful read parses as a full publish (no torn mixes),
// and under TSan this doubles as the data-race proof for the relaxed-word
// copy protocol.
TEST_F(ShmSegmentTest, ConcurrentPublishAndReadStayTornFree) {
  auto writer = ShmSegmentWriter::Create(path_, /*capacity=*/2);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmSegmentReader::Map(path_);
  ASSERT_TRUE(reader.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> ok_reads{0};
  std::thread read_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto sample = (*reader)->Read();
      if (!sample.ok()) {
        // Transient only: the writer is live, so nothing is ever permanent.
        EXPECT_EQ(sample.status().code(), StatusCode::kFailedPrecondition);
        continue;
      }
      ok_reads.fetch_add(1, std::memory_order_relaxed);
      if (sample->locks.empty()) {
        continue;
      }
      // Scale ties every field of a publish together; a torn mix of two
      // publishes cannot keep these ratios.
      const LockProfileSnapshot& snap = sample->locks[0].snapshot;
      ASSERT_EQ(snap.acquisitions % 100, 0u);
      const std::uint64_t scale = snap.acquisitions / 100;
      ASSERT_EQ(snap.contentions, 40 * scale);
      ASSERT_EQ(snap.releases, 99 * scale);
      ASSERT_EQ(snap.wait_ns.TotalCount(), 40 * scale);
    }
  });

  for (std::uint64_t i = 1; i <= 400; ++i) {
    ASSERT_TRUE((*writer)->Publish({MakeSample(1, "hot", i)}, i).ok());
  }
  stop.store(true);
  read_thread.join();
  EXPECT_GT(ok_reads.load(), 0);
}

}  // namespace
}  // namespace concord
