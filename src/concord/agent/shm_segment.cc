#include "src/concord/agent/shm_segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/base/spinwait.h"

namespace concord {
namespace {

// FNV-1a over u64 words. Not cryptographic — it only needs to make a random
// byte flip (fuzz tests, disk corruption) fail validation deterministically.
std::uint64_t HashWords(std::uint64_t seed, const std::uint64_t* words,
                        std::size_t count) {
  std::uint64_t hash = seed == 0 ? 1469598103934665603ull : seed;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t word = words[i];
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (b * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// Per-word copies in and out of the shared mapping, ordered without fences
// (Boehm's seqlock recipe). The writer stores each word with release after
// the odd sequence, so a reader that sees any word of a publish also sees
// that publish's odd sequence on its re-check; the reader loads each word
// with acquire, so the re-check cannot move above the copy. Per-word atomic
// accesses keep concurrent in-process reader/writer pairs TSan-clean, and
// TSan models the whole ordering.
void CopyWordsFromShared(std::uint64_t* dst, const std::uint64_t* shared,
                         std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = __atomic_load_n(&shared[i], __ATOMIC_ACQUIRE);
  }
}

void CopyWordsToShared(std::uint64_t* shared, const std::uint64_t* src,
                       std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    __atomic_store_n(&shared[i], src[i], __ATOMIC_RELEASE);
  }
}

constexpr std::size_t kHeaderWords =
    sizeof(ShmSegmentHeader) / sizeof(std::uint64_t);
constexpr std::size_t kRecordWords =
    sizeof(ShmLockRecord) / sizeof(std::uint64_t);

std::uint64_t* RecordBase(void* base) {
  return reinterpret_cast<std::uint64_t*>(static_cast<char*>(base) +
                                          sizeof(ShmSegmentHeader));
}

const std::uint64_t* RecordBase(const void* base) {
  return reinterpret_cast<const std::uint64_t*>(
      static_cast<const char*>(base) + sizeof(ShmSegmentHeader));
}

// Checksum over the staged header (checksum field zeroed) and the first
// lock_count staged records. The header's `sequence` must already hold the
// final even value when this is computed.
std::uint64_t SegmentChecksum(const ShmSegmentHeader& header,
                              const std::uint64_t* records,
                              std::uint64_t lock_count) {
  ShmSegmentHeader scratch = header;
  scratch.checksum = 0;
  std::uint64_t hash =
      HashWords(0, reinterpret_cast<const std::uint64_t*>(&scratch),
                kHeaderWords);
  return HashWords(hash, records, lock_count * kRecordWords);
}

void EncodeHistogram(const Log2Histogram& hist, std::uint64_t* buckets,
                     std::uint64_t& sum, std::uint64_t& max) {
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    buckets[i] = hist.BucketCount(i);
  }
  sum = hist.Sum();
  max = hist.Max();
}

void DecodeHistogram(const std::uint64_t* buckets, std::uint64_t sum,
                     std::uint64_t max, Log2Histogram& out) {
  out.Reset();
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    if (buckets[i] != 0) {
      out.AddBucketCount(i, buckets[i]);
    }
  }
  out.AddSum(sum);
  out.ObserveMax(max);
}

}  // namespace

std::size_t ShmSegmentBytes(std::uint32_t capacity) {
  return sizeof(ShmSegmentHeader) +
         static_cast<std::size_t>(capacity) * sizeof(ShmLockRecord);
}

void ShmEncodeRecord(const ShmLockSample& sample, ShmLockRecord& out) {
  out = ShmLockRecord{};
  out.lock_id = sample.lock_id;
  const std::size_t copy =
      sample.name.size() < kShmMaxLockName - 1 ? sample.name.size()
                                               : kShmMaxLockName - 1;
  std::memcpy(out.name, sample.name.data(), copy);
  const LockProfileSnapshot& snap = sample.snapshot;
  out.counters = snap;
  EncodeHistogram(snap.wait_ns, out.wait_buckets, out.wait_sum, out.wait_max);
  EncodeHistogram(snap.hold_ns, out.hold_buckets, out.hold_sum, out.hold_max);
}

void ShmDecodeRecord(const ShmLockRecord& record, std::uint64_t published_ns,
                     ShmLockSample& out) {
  out.lock_id = record.lock_id;
  out.name.assign(record.name, strnlen(record.name, kShmMaxLockName));
  LockProfileSnapshot& snap = out.snapshot;
  snap = LockProfileSnapshot{};
  snap.taken_at_ns = published_ns;
  static_cast<LockProfileCounters&>(snap) = record.counters;
  DecodeHistogram(record.wait_buckets, record.wait_sum, record.wait_max,
                  snap.wait_ns);
  DecodeHistogram(record.hold_buckets, record.hold_sum, record.hold_max,
                  snap.hold_ns);
}

// --- writer -----------------------------------------------------------------

ShmSegmentWriter::ShmSegmentWriter(std::string path, int fd, void* base,
                                   std::size_t bytes, std::uint32_t capacity)
    : path_(std::move(path)),
      fd_(fd),
      base_(base),
      bytes_(bytes),
      capacity_(capacity) {}

ShmSegmentWriter::~ShmSegmentWriter() {
  if (base_ != nullptr) {
    ::munmap(base_, bytes_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
  // The file itself is left in place: a reader may still hold a mapping, and
  // the owning process (worker shutdown path) unlinks it explicitly.
}

StatusOr<std::unique_ptr<ShmSegmentWriter>> ShmSegmentWriter::Create(
    const std::string& path, std::uint32_t capacity) {
  if (capacity == 0) {
    return InvalidArgumentError("shm segment capacity must be > 0");
  }
  const std::size_t bytes = ShmSegmentBytes(capacity);
  // No O_TRUNC: shrinking an already-mapped file would turn a stale reader's
  // loads into SIGBUS. ftruncate to the exact size instead; a reader mapped
  // to an old layout fails its checksum and re-maps.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError("open(" + path + "): " + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    return InternalError("ftruncate(" + path + "): " + std::strerror(err));
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    return InternalError("mmap(" + path + "): " + std::strerror(err));
  }
  auto writer = std::unique_ptr<ShmSegmentWriter>(
      new ShmSegmentWriter(path, fd, base, bytes, capacity));
  // Publish an empty-but-valid state so a reader that maps between Create()
  // and the first real Publish() gets a clean zero-lock sample instead of a
  // corruption error. Any pre-existing file content is overwritten here
  // under the same seqlock protocol.
  CONCORD_RETURN_IF_ERROR(writer->Publish({}, 0));
  return writer;
}

Status ShmSegmentWriter::Publish(const std::vector<ShmLockSample>& locks,
                                 std::uint64_t published_ns) {
  if (locks.size() > capacity_) {
    return ResourceExhaustedError(
        "shm segment capacity " + std::to_string(capacity_) +
        " < " + std::to_string(locks.size()) + " profiled locks");
  }
  auto* shared_header = static_cast<ShmSegmentHeader*>(base_);
  auto* shared_words = reinterpret_cast<std::uint64_t*>(base_);

  // Stage everything locally so the shared critical section is a straight
  // word copy and the checksum is computed over exactly what gets written.
  std::vector<ShmLockRecord> records(locks.size());
  for (std::size_t i = 0; i < locks.size(); ++i) {
    ShmEncodeRecord(locks[i], records[i]);
  }
  const std::uint64_t seq =
      __atomic_load_n(&shared_header->sequence, __ATOMIC_RELAXED);

  ShmSegmentHeader staged;
  staged.magic = kShmSegmentMagic;
  staged.version = kShmSegmentVersion;
  staged.header_bytes = sizeof(ShmSegmentHeader);
  staged.record_bytes = sizeof(ShmLockRecord);
  staged.capacity = capacity_;
  staged.pid = static_cast<std::uint64_t>(::getpid());
  staged.sequence = seq + 2;  // the post-publish even value
  staged.published_ns = published_ns;
  staged.publish_count =
      __atomic_load_n(&shared_header->publish_count, __ATOMIC_RELAXED) + 1;
  staged.lock_count = locks.size();
  staged.checksum = SegmentChecksum(
      staged, reinterpret_cast<const std::uint64_t*>(records.data()),
      staged.lock_count);

  // Seqlock write side: odd sequence, payload and header words by release
  // stores, then the even sequence by a release store.
  __atomic_store_n(&shared_header->sequence, seq + 1, __ATOMIC_RELAXED);
  if (!records.empty()) {
    CopyWordsToShared(RecordBase(base_),
                      reinterpret_cast<const std::uint64_t*>(records.data()),
                      records.size() * kRecordWords);
  }
  // Header words except `sequence` (word index 6).
  const auto* staged_words = reinterpret_cast<const std::uint64_t*>(&staged);
  constexpr std::size_t kSequenceWord =
      offsetof(ShmSegmentHeader, sequence) / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < kHeaderWords; ++i) {
    if (i != kSequenceWord) {
      __atomic_store_n(&shared_words[i], staged_words[i], __ATOMIC_RELEASE);
    }
  }
  __atomic_store_n(&shared_header->sequence, seq + 2, __ATOMIC_RELEASE);
  return Status::Ok();
}

// --- reader -----------------------------------------------------------------

ShmSegmentReader::ShmSegmentReader(std::string path, int fd, const void* base,
                                   std::size_t bytes)
    : path_(std::move(path)), fd_(fd), base_(base), bytes_(bytes) {}

ShmSegmentReader::~ShmSegmentReader() {
  if (base_ != nullptr) {
    ::munmap(const_cast<void*>(base_), bytes_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<ShmSegmentReader>> ShmSegmentReader::Map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("open(" + path + "): " + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return InternalError("fstat(" + path + "): " + std::strerror(err));
  }
  if (static_cast<std::size_t>(st.st_size) < sizeof(ShmSegmentHeader)) {
    ::close(fd);
    return InvalidArgumentError(
        "shm segment " + path + " smaller than its header (" +
        std::to_string(st.st_size) + " bytes)");
  }
  // Geometry probe: read the header with ordinary I/O (no mapping yet) to
  // size the mapping. Full validation happens on every Read().
  ShmSegmentHeader probe = {};
  if (::pread(fd, &probe, sizeof(probe), 0) !=
      static_cast<ssize_t>(sizeof(probe))) {
    ::close(fd);
    return InternalError("pread(" + path + ") short read");
  }
  if (probe.magic != kShmSegmentMagic) {
    ::close(fd);
    return InvalidArgumentError("shm segment " + path + " bad magic");
  }
  if (probe.version != kShmSegmentVersion) {
    ::close(fd);
    return InvalidArgumentError(
        "shm segment " + path + " schema version " +
        std::to_string(probe.version) + " != expected " +
        std::to_string(kShmSegmentVersion));
  }
  if (probe.header_bytes != sizeof(ShmSegmentHeader) ||
      probe.record_bytes != sizeof(ShmLockRecord) || probe.capacity == 0 ||
      probe.capacity > (1u << 20)) {
    ::close(fd);
    return InvalidArgumentError("shm segment " + path + " bad geometry");
  }
  const std::size_t bytes =
      ShmSegmentBytes(static_cast<std::uint32_t>(probe.capacity));
  if (static_cast<std::size_t>(st.st_size) < bytes) {
    ::close(fd);
    return InvalidArgumentError(
        "shm segment " + path + " truncated: " + std::to_string(st.st_size) +
        " < " + std::to_string(bytes) + " bytes");
  }
  const void* base = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    return InternalError("mmap(" + path + "): " + std::strerror(err));
  }
  return std::unique_ptr<ShmSegmentReader>(
      new ShmSegmentReader(path, fd, base, bytes));
}

StatusOr<ShmSegmentSample> ShmSegmentReader::Read(int max_retries) const {
  // Re-check the backing file size first: if the worker died and something
  // truncated the file, touching pages past EOF is SIGBUS, not a wild read.
  struct stat st = {};
  if (::fstat(fd_, &st) != 0) {
    return InternalError("fstat(" + path_ + "): " + std::strerror(errno));
  }
  if (static_cast<std::size_t>(st.st_size) < bytes_) {
    return InvalidArgumentError(
        "shm segment " + path_ + " truncated under the mapping: " +
        std::to_string(st.st_size) + " < " + std::to_string(bytes_) +
        " bytes");
  }

  const auto* shared_header = static_cast<const ShmSegmentHeader*>(base_);
  const auto* shared_words = reinterpret_cast<const std::uint64_t*>(base_);
  const std::uint64_t mapped_capacity =
      (bytes_ - sizeof(ShmSegmentHeader)) / sizeof(ShmLockRecord);

  Status last_error =
      FailedPreconditionError("shm segment " + path_ + " reader never ran");
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      CpuRelax();
    }
    const std::uint64_t seq_before =
        __atomic_load_n(&shared_header->sequence, __ATOMIC_ACQUIRE);
    if ((seq_before & 1) != 0) {
      last_error = FailedPreconditionError(
          "shm segment " + path_ + " writer mid-publish (sequence " +
          std::to_string(seq_before) + ")");
      continue;
    }

    ShmSegmentHeader header;
    CopyWordsFromShared(reinterpret_cast<std::uint64_t*>(&header),
                        shared_words, kHeaderWords);
    if (__atomic_load_n(&shared_header->sequence, __ATOMIC_RELAXED) !=
        seq_before) {
      last_error = FailedPreconditionError(
          "shm segment " + path_ + " torn header read");
      continue;
    }

    // Header is a stable copy from sequence `seq_before`; geometry errors
    // are now permanent facts about the segment, not races.
    if (header.magic != kShmSegmentMagic) {
      return InvalidArgumentError("shm segment " + path_ + " bad magic");
    }
    if (header.version != kShmSegmentVersion) {
      return InvalidArgumentError(
          "shm segment " + path_ + " schema version " +
          std::to_string(header.version) + " != expected " +
          std::to_string(kShmSegmentVersion));
    }
    if (header.header_bytes != sizeof(ShmSegmentHeader) ||
        header.record_bytes != sizeof(ShmLockRecord) ||
        header.capacity != mapped_capacity ||
        header.lock_count > header.capacity) {
      return InvalidArgumentError("shm segment " + path_ +
                                  " corrupt geometry/lock_count");
    }
    if (header.sequence != seq_before) {
      return InvalidArgumentError("shm segment " + path_ +
                                  " inconsistent sequence field");
    }

    std::vector<ShmLockRecord> records(header.lock_count);
    if (!records.empty()) {
      CopyWordsFromShared(reinterpret_cast<std::uint64_t*>(records.data()),
                          RecordBase(base_),
                          records.size() * kRecordWords);
    }
    if (__atomic_load_n(&shared_header->sequence, __ATOMIC_RELAXED) !=
        seq_before) {
      last_error = FailedPreconditionError(
          "shm segment " + path_ + " torn record read");
      continue;
    }

    const std::uint64_t expect = SegmentChecksum(
        header, reinterpret_cast<const std::uint64_t*>(records.data()),
        header.lock_count);
    if (expect != header.checksum) {
      // Sequence was stable across the whole copy, so this is real
      // corruption, not a torn read.
      return InvalidArgumentError("shm segment " + path_ +
                                  " checksum mismatch");
    }

    ShmSegmentSample sample;
    sample.pid = header.pid;
    sample.published_ns = header.published_ns;
    sample.publish_count = header.publish_count;
    sample.locks.resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      ShmDecodeRecord(records[i], header.published_ns, sample.locks[i]);
    }
    return sample;
  }
  return last_error;
}

}  // namespace concord
