// Spans for the traced run, recorded only from benchmark code.
//
// A workload thread marks a sampled op by installing an OpScope for the
// duration of one kernelsim call. The TracedMutex/TracedRwLock wrappers,
// passed as the kernelsim container's lock template argument, record a child
// span around each Lock/Unlock/ReadLock/... made while an OpScope is active.
// Calls of unsampled ops cost the wrappers one thread-local load.
//
// Each thread owns a SpanBuffer preallocated during set-up; spans that do not
// fit are counted as dropped. Buffers are summarised into per-layer metrics
// and written out after the run.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/clock.h"
#include "src/sync/lock.h"

namespace perfbench {

enum class SpanKind : std::uint16_t {
  kKernelsimOp = 0,
  kLock,
  kUnlock,
  kReadLock,
  kReadUnlock,
  kWriteLock,
  kWriteUnlock,
  kControlIteration,
  kSnapshot,
  kVerify,
  kJitCompile,
  kAttach,
  kSynchronize,
  kCalibrationOp,  // root of the calibration phase's wrapper spans
};
inline constexpr int kNumSpanKinds = 14;

const char* SpanKindName(SpanKind kind);

inline constexpr std::uint32_t kNoParent = ~0u;

struct Span {
  std::uint64_t op_id = 0;
  std::uint64_t start = 0;  // ticks
  std::uint64_t end = 0;    // ticks; 0 while open
  std::uint32_t parent = kNoParent;  // index in the same buffer
  SpanKind kind = SpanKind::kKernelsimOp;
  std::uint16_t thread = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(std::uint16_t thread, std::size_t capacity);

  // Opens a span and returns its index, or kNoParent when the buffer is full.
  std::uint32_t Open(SpanKind kind, std::uint64_t op_id, std::uint32_t parent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back(Span{op_id, Ticks(), 0, parent, kind, thread_});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void Close(std::uint32_t index) {
    if (index != kNoParent) {
      spans_[index].end = Ticks();
    }
  }

  // Sampled ops start only while their spans fit, so no op loses children.
  bool HasRoom(std::size_t spans) const {
    return spans_.capacity() - spans_.size() >= spans;
  }
  std::uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint16_t thread_;
  std::vector<Span> spans_;  // capacity fixed at construction
  std::uint64_t dropped_ = 0;
};

// The calling thread's sampled op, if any.
struct OpContext {
  SpanBuffer* buffer = nullptr;
  std::uint64_t op_id = 0;
  std::uint32_t parent = kNoParent;
};
inline thread_local OpContext* tl_op = nullptr;

// Records one span of `kind` for the whole scope and makes it the parent of
// the spans recorded inside it.
class OpScope {
 public:
  OpScope(SpanBuffer& buffer, SpanKind kind, std::uint64_t op_id)
      : saved_(tl_op) {
    const std::uint32_t parent = saved_ != nullptr ? saved_->parent : kNoParent;
    context_ = {&buffer, op_id, buffer.Open(kind, op_id, parent)};
    tl_op = &context_;
  }
  ~OpScope() {
    tl_op = saved_;
    context_.buffer->Close(context_.parent);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpContext* saved_;
  OpContext context_;
};

// A child span under the current OpScope; nothing when there is none.
class ChildSpan {
 public:
  explicit ChildSpan(SpanKind kind) : op_(tl_op) {
    if (op_ != nullptr) {
      index_ = op_->buffer->Open(kind, op_->op_id, op_->parent);
    }
  }
  ~ChildSpan() {
    if (op_ != nullptr) {
      op_->buffer->Close(index_);
    }
  }
  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

 private:
  OpContext* op_;
  std::uint32_t index_ = kNoParent;
};

// Lock wrappers for the kernelsim containers. inner() is the lock that gets
// registered with Concord.
template <concord::Lockable Inner>
class TracedMutex {
 public:
  void Lock() {
    ChildSpan span(SpanKind::kLock);
    inner_.Lock();
  }
  void Unlock() {
    ChildSpan span(SpanKind::kUnlock);
    inner_.Unlock();
  }
  bool TryLock() { return inner_.TryLock(); }
  Inner& inner() { return inner_; }

 private:
  Inner inner_;
};

template <concord::SharedLockable Inner>
class TracedRwLock {
 public:
  void ReadLock() {
    ChildSpan span(SpanKind::kReadLock);
    inner_.ReadLock();
  }
  void ReadUnlock() {
    ChildSpan span(SpanKind::kReadUnlock);
    inner_.ReadUnlock();
  }
  void WriteLock() {
    ChildSpan span(SpanKind::kWriteLock);
    inner_.WriteLock();
  }
  void WriteUnlock() {
    ChildSpan span(SpanKind::kWriteUnlock);
    inner_.WriteUnlock();
  }
  Inner& inner() { return inner_; }

 private:
  Inner inner_;
};

// Unwraps a kernelsim lock argument to the lock Concord sees.
template <typename L>
L& InnerLock(L& lock) {
  return lock;
}
template <typename L>
L& InnerLock(TracedMutex<L>& lock) {
  return lock.inner();
}
template <typename L>
L& InnerLock(TracedRwLock<L>& lock) {
  return lock.inner();
}

// Per-kind durations (ticks) plus the self time of every kernelsim op span,
// gathered across buffers.
struct SpanSummary {
  std::vector<double> durations[kNumSpanKinds];
  std::vector<double> kernelsim_self;
};
SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers);

// Writes every span as one TSV line, times in ns from `origin_ticks`.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                std::uint64_t origin_ticks, double ns_per_tick);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
