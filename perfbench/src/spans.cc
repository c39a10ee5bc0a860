#include "src/spans.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "src/ledger.h"

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  static constexpr const char* kNames[kNumSpanKinds] = {
      "kernelsim.op", "sync.lock",        "sync.unlock",      "sync.read_lock",
      "sync.read_unlock", "sync.write_lock", "sync.write_unlock",
      "control.iteration", "concord.snapshot", "bpf.verify",
      "bpf.jit_compile",  "concord.attach",   "rcu.synchronize",
      "calibration.op"};
  return kNames[static_cast<int>(kind)];
}

SpanBuffer::SpanBuffer(std::uint16_t thread, std::size_t capacity)
    : thread_(thread) {
  spans_.reserve(capacity);
  // Touch the storage now so the run does not page-fault it in.
  spans_.resize(capacity);
  spans_.clear();
}

SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers) {
  SpanSummary summary;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span& span : spans) {
      if (span.end == 0) {
        continue;
      }
      summary.durations[static_cast<int>(span.kind)].push_back(
          static_cast<double>(span.end - span.start));
      if (span.parent != kNoParent) {
        children[span.parent].push_back({span.start, span.end});
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.kind == SpanKind::kKernelsimOp && span.end != 0) {
        summary.kernelsim_self.push_back(static_cast<double>(
            SelfTime({span.start, span.end}, std::move(children[i]))));
      }
    }
  }
  return summary;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                std::uint64_t origin_ticks, double ns_per_tick) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file.get(), "thread\top_id\tindex\tparent\tkind\tstart_ns\tdur_ns\n");
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double start =
          s.start >= origin_ticks
              ? static_cast<double>(s.start - origin_ticks) * ns_per_tick
              : -static_cast<double>(origin_ticks - s.start) * ns_per_tick;
      const double duration =
          s.end == 0 ? 0 : static_cast<double>(s.end - s.start) * ns_per_tick;
      std::fprintf(file.get(), "%u\t%" PRIu64 "\t%zu\t%ld\t%s\t%.0f\t%.1f\n",
                   s.thread, s.op_id, i,
                   s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                   SpanKindName(s.kind), start, duration);
    }
  }
  return std::fflush(file.get()) == 0;
}

}  // namespace perfbench
