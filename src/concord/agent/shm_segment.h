// Shared-memory profiler segments — the transport between a worker process
// and the host-level autotune agent (ROADMAP "multi-process agent").
//
// Each worker publishes point-in-time copies of its per-lock profiler
// counters into one file-backed mmap segment; the agent maps the same file
// read-only and diffs consecutive reads with LockProfileSnapshot::DeltaSince,
// exactly like the in-process controller diffs live counters. The segment is
// a one-writer/many-reader seqlock:
//
//   [ ShmSegmentHeader | ShmLockRecord * capacity ]
//
// - The header carries schema magic + version and the segment geometry so a
//   reader from a different build can reject an incompatible layout instead
//   of misinterpreting it.
// - Publishes are stamped with a seqlock sequence (odd while the writer is
//   mid-publish) AND a checksum over the header and the live record region.
//   A reader accepts a sample only if the sequence is even, unchanged across
//   the copy, and the checksum matches — so torn reads, truncated files and
//   corrupted bytes all fail cleanly instead of producing plausible garbage.
// - All shared words are copied with per-u64 atomic accesses: release
//   stores after the odd sequence, acquire loads before each sequence
//   re-check, and no fences. This keeps cross-thread readers (tests, the
//   in-process chaos suite) ThreadSanitizer-clean, and TSan checks the
//   ordering itself.
//
// Failure philosophy: Read() never crashes and never returns a half-valid
// snapshot. Every anomaly maps to a Status the agent can act on —
// kInvalidArgument for permanent damage (bad magic/version/geometry/checksum,
// truncation), kFailedPrecondition for transient contention (writer mid-publish
// after bounded retries).

#ifndef SRC_CONCORD_AGENT_SHM_SEGMENT_H_
#define SRC_CONCORD_AGENT_SHM_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/status.h"
#include "src/concord/profiler.h"

namespace concord {

// "CCRDSHM1" little-endian.
inline constexpr std::uint64_t kShmSegmentMagic = 0x314D485344524343ull;
inline constexpr std::uint32_t kShmSegmentVersion = 2;
inline constexpr std::uint32_t kShmSegmentDefaultCapacity = 64;
inline constexpr std::size_t kShmMaxLockName = 56;

// Fixed-size, trivially copyable record for one lock's cumulative counters:
// the snapshot's counter block, and its histograms flattened to raw buckets.
// Every field is a u64 multiple so the whole record is copied word-by-word
// with relaxed atomics.
struct ShmLockRecord {
  std::uint64_t lock_id;
  char name[kShmMaxLockName];  // NUL-padded; truncated if longer

  LockProfileCounters counters;

  std::uint64_t wait_buckets[Log2Histogram::kBuckets];
  std::uint64_t wait_sum;
  std::uint64_t wait_max;
  std::uint64_t hold_buckets[Log2Histogram::kBuckets];
  std::uint64_t hold_sum;
  std::uint64_t hold_max;
};
static_assert(sizeof(ShmLockRecord) % sizeof(std::uint64_t) == 0);
static_assert(std::is_trivially_copyable_v<ShmLockRecord>);

// Segment header. The geometry fields (magic..capacity, pid) are written
// once at Create(); the publish fields (sequence..lock_count, checksum) are
// rewritten inside the seqlock critical section on every publish. `checksum`
// covers the whole header (with the checksum field itself zeroed) plus the
// first `lock_count` records, computed against the post-publish even
// sequence — any byte flip anywhere in the live region breaks it.
struct ShmSegmentHeader {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t header_bytes;
  std::uint64_t record_bytes;
  std::uint64_t capacity;
  std::uint64_t pid;
  std::uint64_t sequence;      // seqlock: odd while a publish is in flight
  std::uint64_t published_ns;  // ClockNowNs() of the newest publish
  std::uint64_t publish_count; // total publishes; the agent's progress signal
  std::uint64_t lock_count;    // live records in [0, capacity]
  std::uint64_t checksum;
};
static_assert(sizeof(ShmSegmentHeader) % sizeof(std::uint64_t) == 0);

// One lock's sample as the reader hands it to the agent.
struct ShmLockSample {
  std::uint64_t lock_id = 0;
  std::string name;
  // Cumulative counters; taken_at_ns is the segment's published_ns so deltas
  // across reads window correctly even though the agent never saw the
  // worker's clock directly.
  LockProfileSnapshot snapshot;
};

// One successful torn-read-safe read of a whole segment.
struct ShmSegmentSample {
  std::uint64_t pid = 0;
  std::uint64_t published_ns = 0;
  std::uint64_t publish_count = 0;
  std::vector<ShmLockSample> locks;
};

// The worker side: creates (or re-creates) the segment file and publishes
// snapshots under the seqlock. Single-writer; callers serialize Publish().
class ShmSegmentWriter {
 public:
  static StatusOr<std::unique_ptr<ShmSegmentWriter>> Create(
      const std::string& path,
      std::uint32_t capacity = kShmSegmentDefaultCapacity);
  ~ShmSegmentWriter();

  ShmSegmentWriter(const ShmSegmentWriter&) = delete;
  ShmSegmentWriter& operator=(const ShmSegmentWriter&) = delete;

  // Publishes the given per-lock cumulative snapshots, stamped with
  // `published_ns` (pass ClockNowNs()). Fails if locks.size() > capacity.
  Status Publish(const std::vector<ShmLockSample>& locks,
                 std::uint64_t published_ns);

  const std::string& path() const { return path_; }
  std::uint32_t capacity() const { return capacity_; }

 private:
  ShmSegmentWriter(std::string path, int fd, void* base, std::size_t bytes,
                   std::uint32_t capacity);

  std::string path_;
  int fd_;
  void* base_;
  std::size_t bytes_;
  std::uint32_t capacity_;
};

// The agent side: maps an existing segment read-only and produces validated
// samples. Map() checks geometry once; every Read() re-checks the file size
// (the worker may have died and the file been truncated) and then runs the
// bounded seqlock + checksum protocol.
class ShmSegmentReader {
 public:
  static StatusOr<std::unique_ptr<ShmSegmentReader>> Map(
      const std::string& path);
  ~ShmSegmentReader();

  ShmSegmentReader(const ShmSegmentReader&) = delete;
  ShmSegmentReader& operator=(const ShmSegmentReader&) = delete;

  // Torn-read-safe sample. kInvalidArgument = permanent (corrupt/truncated;
  // evict the worker), kFailedPrecondition = transient (writer mid-publish; retry
  // next tick).
  StatusOr<ShmSegmentSample> Read(int max_retries = 8) const;

  const std::string& path() const { return path_; }

 private:
  ShmSegmentReader(std::string path, int fd, const void* base,
                   std::size_t bytes);

  std::string path_;
  int fd_;
  const void* base_;
  std::size_t bytes_;  // mapped size; also the minimum valid file size
};

// Layout helpers shared by writer/reader/tests.
std::size_t ShmSegmentBytes(std::uint32_t capacity);

// Serialization between the profiler's snapshot type and the POD record
// (exposed for tests).
void ShmEncodeRecord(const ShmLockSample& sample, ShmLockRecord& out);
void ShmDecodeRecord(const ShmLockRecord& record, std::uint64_t published_ns,
                     ShmLockSample& out);

}  // namespace concord

#endif  // SRC_CONCORD_AGENT_SHM_SEGMENT_H_
