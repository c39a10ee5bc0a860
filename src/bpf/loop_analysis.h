// Back-edge discovery over the instruction stream.
//
// Verifier v2 admits loops, so the structural pass no longer rejects jumps
// with non-positive displacement. Instead this pass enumerates every back
// edge (a jump whose target pc is <= its own pc) and the set of loop headers
// (back-edge targets). The verifier uses the result to
//   - checkpoint abstract states at loop headers (for infinite-loop
//     detection and state-equivalence pruning),
//   - count per-path trips through each back edge against the trip budget,
//   - attribute state-budget blowups to the loop that caused them.

#ifndef SRC_BPF_LOOP_ANALYSIS_H_
#define SRC_BPF_LOOP_ANALYSIS_H_

#include <cstddef>
#include <vector>

#include "src/bpf/insn.h"

namespace concord {

struct BackEdge {
  std::size_t from_pc = 0;    // the jump instruction
  std::size_t header_pc = 0;  // its (backward) target
};

class LoopAnalysis {
 public:
  // `imm64_second[pc]` marks the pseudo slot of a lddw; those are never
  // jumps. Jump targets are assumed already validated (in range).
  static LoopAnalysis Analyze(const std::vector<Insn>& insns,
                              const std::vector<bool>& imm64_second);

  const std::vector<BackEdge>& back_edges() const { return back_edges_; }

  bool IsHeader(std::size_t pc) const {
    return pc < is_header_.size() && is_header_[pc];
  }

  // Index into back_edges() for the jump at `from_pc`, or -1 if that
  // instruction is not a back-edge source.
  int EdgeIndex(std::size_t from_pc) const {
    return from_pc < edge_at_.size() ? edge_at_[from_pc] : -1;
  }

 private:
  std::vector<BackEdge> back_edges_;
  std::vector<bool> is_header_;
  std::vector<int> edge_at_;
};

}  // namespace concord

#endif  // SRC_BPF_LOOP_ANALYSIS_H_
