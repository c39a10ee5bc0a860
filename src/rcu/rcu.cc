#include "src/rcu/rcu.h"

#include "src/base/check.h"
#include "src/base/spinwait.h"

namespace concord {
namespace {

thread_local std::atomic<std::uint64_t>* tls_reader_ctr = nullptr;

}  // namespace

Rcu& Rcu::Global() {
  static Rcu* rcu = new Rcu();  // intentionally leaked: slots outlive threads
  return *rcu;
}

void Rcu::ReadLock() {
  if (tls_reader_ctr == nullptr) {
    const std::uint32_t slot = next_slot_.fetch_add(1, std::memory_order_acq_rel);
    CONCORD_CHECK(slot < kMaxThreads);
    tls_reader_ctr = &slots_[slot].ctr;
  }
  const std::uint64_t current = tls_reader_ctr->load(std::memory_order_relaxed);
  if ((current & kNestMask) == 0) {
    // Outermost section: snapshot the global counter (phase bit included).
    // The seq_cst store is the read side's one fence (see rcu.h).
    tls_reader_ctr->store(gp_ctr_.load(std::memory_order_seq_cst),
                          std::memory_order_seq_cst);
  } else {
    tls_reader_ctr->store(current + 1, std::memory_order_release);
  }
}

void Rcu::ReadUnlock() {
  CONCORD_DCHECK(tls_reader_ctr != nullptr);
  const std::uint64_t current = tls_reader_ctr->load(std::memory_order_relaxed);
  CONCORD_DCHECK((current & kNestMask) != 0);
  // Release: the section's accesses happen before a writer's seq_cst load
  // that sees the section end.
  tls_reader_ctr->store(current - 1, std::memory_order_release);
}

bool Rcu::InReadSection() const {
  return tls_reader_ctr != nullptr &&
         (tls_reader_ctr->load(std::memory_order_relaxed) & kNestMask) != 0;
}

void Rcu::WaitForReaders() {
  const std::uint64_t gp = gp_ctr_.load(std::memory_order_seq_cst);
  const std::uint32_t nslots = next_slot_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < nslots; ++i) {
    SpinWait spin;
    while (true) {
      const std::uint64_t v = slots_[i].ctr.load(std::memory_order_seq_cst);
      const bool active = (v & kNestMask) != 0;
      const bool old_phase = ((v ^ gp) & kPhase) != 0;
      if (!active || !old_phase) {
        break;
      }
      spin.Once();
    }
  }
}

void Rcu::Synchronize() {
  CONCORD_CHECK(!InReadSection());
  std::lock_guard<std::mutex> guard(writer_mu_);
  // Two phase flips: the first catches readers that snapshotted before the
  // flip; the second catches a reader that raced the first flip by starting
  // a new section between our flip and our scan.
  for (int round = 0; round < 2; ++round) {
    gp_ctr_.fetch_xor(kPhase, std::memory_order_seq_cst);
    WaitForReaders();
  }
}

}  // namespace concord
