// Static verifier for policy programs (v2: range-tracking abstract
// interpretation).
//
// Models the kernel eBPF verifier's guarantees at the scale this project
// needs. A program that passes Verify() cannot, at runtime:
//   - execute forever (back edges are admitted only while the abstract state
//     keeps making progress; a state that repeats at a loop header is
//     rejected as an infinite loop, and every back edge carries a trip
//     budget),
//   - read or write outside its context struct, its 512-byte stack frame, or
//     a map value it null-checked,
//   - read uninitialized registers or stack bytes,
//   - call a helper the attach point does not allow, or with ill-typed
//     arguments,
//   - return a pointer (R0 must hold a scalar at exit).
//
// Analysis is a depth-first exploration of the CFG carrying per-register
// abstract states: UNINIT, SCALAR, PTR_TO_CTX, PTR_TO_STACK,
// PTR_TO_MAP_VALUE and MAP_VALUE_OR_NULL. Scalars (and the variable part of
// stack / map-value pointer offsets) track an unsigned interval, a signed
// interval and a tnum (known bits) — see src/bpf/verifier_state.h. Branches
// refine both arms' ranges, which is what terminates counter-bounded loops:
// each abstract iteration narrows the counter until the loop branch
// constant-folds (kernel-5.3-style bounded loops, no widening). States are
// checkpointed at loop headers; a header state equal to an in-progress
// ancestor is an infinite loop, and a header state covered by an already
// fully-explored checkpoint is pruned.
//
// Deliberate simplifications vs. the kernel (all *stricter*, never weaker):
//   - context pointer offsets must still be compile-time constants,
//   - variable pointer subtraction is rejected (add a negative range
//     instead),
//   - no pointer spills to the stack,
//   - map indices must be compile-time constants,
//   - 32-bit ALU on pointers is rejected outright.
//
// Every rejection message carries the abstract path (the sequence of basic
// block entry pcs) that led to it: "... [path: 0 -> 3 -> 7]".

#ifndef SRC_BPF_VERIFIER_H_
#define SRC_BPF_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier_state.h"

namespace concord {

class Verifier {
 public:
  struct Options {
    // Capability mask granted by the attach point; a helper requiring bits
    // outside this mask is rejected. Default: everything.
    std::uint32_t allowed_capabilities = ~0u;

    // Abstract-state budget; exceeding it rejects the program as too complex
    // (kernel behaviour). Generous relative to kMaxProgramInsns.
    std::size_t max_states = 1u << 17;

    // Per-path budget of trips through any single back edge. Bounds the
    // runtime of every admitted loop (and, transitively, of the whole
    // program: concrete executions follow an explored abstract path).
    // Comfortably above kShuffleRoundCap so the paper's shuffling policies
    // fit.
    std::uint64_t max_loop_trips = 1u << 13;
  };

  // Facts the exploration proved about the program, for consumers beyond
  // admission itself (the lock-policy lint layer, certification, and the
  // `concord_check` report). Only filled in when verification succeeds.
  struct LoopReport {
    std::size_t back_edge_pc = 0;
    std::size_t header_pc = 0;
    std::uint64_t max_trips = 0;  // worst trips on any explored path
  };
  // A direct memory access through a null-checked map-value pointer. The
  // shared-map race analyzer (src/bpf/analysis/race.h) classifies these;
  // helper-mediated accesses (map_update_elem etc.) are synchronized by the
  // map implementation and are not recorded here.
  struct MapAccessSite {
    enum class Kind : std::uint8_t { kLoad, kStore, kAtomicAdd };
    std::size_t pc = 0;
    std::uint32_t map_index = 0;
    Kind kind = Kind::kLoad;
  };
  struct Analysis {
    std::size_t states_processed = 0;
    std::vector<LoopReport> loops;

    // Union of R0 over every exit instruction reached.
    bool has_exit = false;
    ScalarValue r0_exit;

    // Helper ids actually called (deduplicated, first-call order).
    std::vector<std::uint32_t> helpers_called;
    bool writes_map = false;  // calls a helper with kCapMapWrite
    bool writes_ctx = false;  // stores through the context pointer

    // Call sites where a callee-saved register (r6-r9) held a context
    // pointer across the helper call — the lint layer's "retained waiter
    // pointer" signal.
    std::vector<std::size_t> ctx_ptr_across_call_pcs;

    // Map-value memory accesses on any explored path, deduplicated by
    // (pc, map_index, kind). One pc may carry several entries when different
    // paths reach it with pointers into different maps.
    std::vector<MapAccessSite> map_access_sites;
  };

  // On success marks program.verified = true, fills in
  // program.used_capabilities, ctx_fields_read and calls_get_cs_ewma_ns and,
  // if `analysis` is non-null, the proven facts above. On failure the
  // program is left unverified and the status message pinpoints the
  // offending instruction and the abstract path that reached it.
  static Status Verify(Program& program, const Options& options,
                       Analysis* analysis);
  static Status Verify(Program& program, const Options& options) {
    return Verify(program, options, nullptr);
  }
  static Status Verify(Program& program) { return Verify(program, Options{}); }
};

}  // namespace concord

#endif  // SRC_BPF_VERIFIER_H_
