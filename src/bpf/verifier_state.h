// Abstract machine state for the range-tracking verifier.
//
// Verifier v2 tracks every register as one of the pointer types inherited
// from v1 plus, for scalars (and for the *variable part* of pointer
// offsets), a product domain of
//   - an unsigned interval [umin, umax],
//   - a signed interval   [smin, smax],
//   - a tnum (known bits, src/bpf/tnum.h).
// The three views are kept mutually consistent by ScalarValue::Sync(), the
// analogue of the kernel's __update_reg_bounds / __reg_deduce_bounds /
// __reg_bound_offset trio. Branch refinement narrows the views on both arms
// of a conditional, which is what lets a `jlt r2, 8, loop` back edge
// constant-fold after finitely many abstract iterations — the entire
// bounded-loop argument rests on these bounds making monotone progress.

#ifndef SRC_BPF_VERIFIER_STATE_H_
#define SRC_BPF_VERIFIER_STATE_H_

#include <bitset>
#include <cstdint>
#include <string>

#include "src/bpf/insn.h"
#include "src/bpf/tnum.h"

namespace concord {

enum class RegType : std::uint8_t {
  kUninit,
  kScalar,
  kPtrToCtx,
  kPtrToStack,      // offset relative to the frame pointer (<= 0)
  kPtrToMapValue,   // null-checked map value pointer
  kMapValueOrNull,  // map_lookup_elem result before the null check
};

// A set of 64-bit values: intervals in both signednesses plus known bits.
struct ScalarValue {
  std::uint64_t umin = 0;
  std::uint64_t umax = ~0ull;
  std::int64_t smin = INT64_MIN;
  std::int64_t smax = INT64_MAX;
  Tnum tnum = Tnum::Unknown();

  static ScalarValue Unknown() { return ScalarValue{}; }
  static ScalarValue Const(std::uint64_t v) {
    ScalarValue s;
    s.umin = s.umax = v;
    s.smin = s.smax = static_cast<std::int64_t>(v);
    s.tnum = Tnum::Const(v);
    return s;
  }
  bool IsConst() const { return umin == umax && tnum.IsConst(); }
  std::uint64_t ConstValue() const { return umin; }

  // Re-derives each view from the others; returns false if the views
  // contradict (the state is unreachable — a dead branch arm).
  bool Sync();

  // True iff every value in `b` is also in `a`.
  static bool Covers(const ScalarValue& a, const ScalarValue& b);

  bool operator==(const ScalarValue& other) const {
    return umin == other.umin && umax == other.umax && smin == other.smin &&
           smax == other.smax && tnum == other.tnum;
  }

  std::string ToString() const;
};

// Sound transfer functions; `is64 == false` models the ALU32 semantics
// (operate on the 32-bit views, zero-extend the result).
ScalarValue ScalarAluTransfer(std::uint8_t op, const ScalarValue& dst,
                              const ScalarValue& src, bool is64);

// The value set after truncation to the low 32 bits (32-bit mov semantics).
ScalarValue ScalarCast32(const ScalarValue& v);

// Branch refinement: narrows `dst` (and `src`, for reg-reg compares) under
// the assumption that `op` evaluated to `taken`. Returns false if the
// assumption contradicts the tracked ranges (arm is unreachable).
bool RefineBranch(std::uint8_t op, bool taken, bool is32, ScalarValue& dst,
                  ScalarValue& src);

// Three-valued branch evaluation from the tracked ranges.
enum class BranchOutcome : std::uint8_t { kUnknown, kAlways, kNever };
BranchOutcome EvalBranch(std::uint8_t op, bool is32, const ScalarValue& dst,
                         const ScalarValue& src);

struct RegState {
  RegType type = RegType::kUninit;
  // Scalars: the tracked value set. Pointers: the *variable* part of the
  // offset (Const(0) for exactly-known pointers).
  ScalarValue var = ScalarValue::Const(0);
  std::int64_t off = 0;  // pointers: fixed offset from the base
  std::uint32_t map_index = 0;

  static RegState Uninit() {
    RegState r;
    r.type = RegType::kUninit;
    return r;
  }
  static RegState Scalar() {
    RegState r;
    r.type = RegType::kScalar;
    r.var = ScalarValue::Unknown();
    return r;
  }
  static RegState Known(std::uint64_t v) {
    RegState r;
    r.type = RegType::kScalar;
    r.var = ScalarValue::Const(v);
    return r;
  }
  static RegState Ranged(const ScalarValue& v) {
    RegState r;
    r.type = RegType::kScalar;
    r.var = v;
    return r;
  }

  bool IsPointer() const {
    return type == RegType::kPtrToCtx || type == RegType::kPtrToStack ||
           type == RegType::kPtrToMapValue || type == RegType::kMapValueOrNull;
  }
  bool IsConstScalar() const {
    return type == RegType::kScalar && var.IsConst();
  }
  bool operator==(const RegState& other) const {
    return type == other.type && off == other.off &&
           map_index == other.map_index && var == other.var;
  }

  // True iff every concrete register state described by `b` is described by
  // `a` (so exploring `a` covered `b`).
  static bool Covers(const RegState& a, const RegState& b);

  std::string ToString() const;
};

struct AbstractState {
  std::size_t pc = 0;
  RegState regs[kBpfNumRegs];
  std::bitset<kBpfStackSize> stack_init;

  bool operator==(const AbstractState& other) const;

  // A hash of exactly the fields operator== compares: equal states hash
  // equal, so a hash mismatch rules equality out without comparing.
  std::uint64_t Hash() const;

  // State-equivalence for pruning: `a` covers `b` iff the verdicts reachable
  // from `b` are a subset of those explored from `a`.
  static bool Covers(const AbstractState& a, const AbstractState& b);
};

}  // namespace concord

#endif  // SRC_BPF_VERIFIER_STATE_H_
