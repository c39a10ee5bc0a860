// The process-wide decision epoch.
//
// A lock may reuse a policy decision whose answer depends only on map
// contents (HookSite::RwMode) for as long as this epoch stays where it was
// when the decision ran. Everything that can change such an answer bumps the
// epoch once the change is in place:
//   - a control-plane map write (BpfMap::Update and BpfMap::Delete);
//   - a hook table install (HookSite::Install);
//   - a map becoming writable by a verified program
//     (BpfMap::MarkProgramWritable).
// A program's own map writes do not bump it, so that a counting program pays
// no shared RMW; a decision that reads a program-writable map is never
// reused.
//
// The bump is a release RMW and the read an acquire load: a read that loads
// the bumped epoch also sees the write that preceded the bump. So a map write
// that has returned is seen by every read that starts after it.

#ifndef SRC_BASE_DECISION_EPOCH_H_
#define SRC_BASE_DECISION_EPOCH_H_

#include <atomic>
#include <cstdint>

#include "src/base/cacheline.h"

namespace concord {

// On a line of its own: every cached read loads it, and only the control
// plane writes it.
struct CONCORD_CACHE_ALIGNED DecisionEpochWord {
  // Starts at 1, so a zeroed cached word never matches.
  std::atomic<std::uint64_t> value{1};
};
inline DecisionEpochWord g_decision_epoch;

inline std::uint64_t DecisionEpoch() {
  return g_decision_epoch.value.load(std::memory_order_acquire);
}

inline void BumpDecisionEpoch() {
  g_decision_epoch.value.fetch_add(1, std::memory_order_release);
}

}  // namespace concord

#endif  // SRC_BASE_DECISION_EPOCH_H_
