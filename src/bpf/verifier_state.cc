#include "src/bpf/verifier_state.h"

#include <algorithm>
#include <cstdio>

namespace concord {
namespace {

bool SignedAddOverflows(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  return __builtin_add_overflow(a, b, &r);
}

bool SignedSubOverflows(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  return __builtin_sub_overflow(a, b, &r);
}

// Two tnums with no common element: a bit known in both with different
// values.
bool TnumsConflict(const Tnum& a, const Tnum& b) {
  return ((a.value ^ b.value) & ~a.mask & ~b.mask) != 0;
}

// Truncates a value set to its 32-bit (zero-extended) view.
ScalarValue Cast32(ScalarValue v) {
  constexpr std::uint64_t kMask = 0xffffffffull;
  if (v.umax <= kMask) {
    // Already 32-bit clean; signed views follow from the unsigned range.
    v.smin = std::max<std::int64_t>(v.smin, 0);
    v.Sync();
    return v;
  }
  ScalarValue out;
  if ((v.umin >> 32) == (v.umax >> 32) && (v.umin & kMask) <= (v.umax & kMask)) {
    // High bits fixed across the range: the low 32 bits sweep an interval.
    out.umin = v.umin & kMask;
    out.umax = v.umax & kMask;
  } else {
    out.umin = 0;
    out.umax = kMask;
  }
  out.smin = 0;
  out.smax = static_cast<std::int64_t>(kMask);
  out.tnum = TnumCast32(v.tnum);
  out.Sync();
  return out;
}

// Exact constant evaluation, matching BpfVm::AluOp64 bit for bit.
std::uint64_t ConstEval(std::uint8_t op, std::uint64_t a, std::uint64_t b,
                        bool is64) {
  if (!is64) {
    a &= 0xffffffffull;
    b &= 0xffffffffull;
  }
  std::uint64_t r = 0;
  switch (op) {
    case kBpfAdd:
      r = a + b;
      break;
    case kBpfSub:
      r = a - b;
      break;
    case kBpfMul:
      r = a * b;
      break;
    case kBpfDiv:
      r = b == 0 ? 0 : a / b;
      break;
    case kBpfOr:
      r = a | b;
      break;
    case kBpfAnd:
      r = a & b;
      break;
    case kBpfLsh:
      r = a << (b & (is64 ? 63 : 31));
      break;
    case kBpfRsh:
      r = a >> (b & (is64 ? 63 : 31));
      break;
    case kBpfMod:
      r = b == 0 ? a : a % b;
      break;
    case kBpfXor:
      r = a ^ b;
      break;
    case kBpfArsh:
      if (is64) {
        r = static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (b & 63));
      } else {
        r = static_cast<std::uint64_t>(static_cast<std::uint32_t>(
            static_cast<std::int32_t>(a) >> (b & 31)));
      }
      break;
    default:
      r = 0;
      break;
  }
  return is64 ? r : (r & 0xffffffffull);
}

ScalarValue Transfer64(std::uint8_t op, const ScalarValue& dst,
                       const ScalarValue& src) {
  ScalarValue res;  // starts fully unknown
  switch (op) {
    case kBpfAdd: {
      res.tnum = TnumAdd(dst.tnum, src.tnum);
      if (!SignedAddOverflows(dst.smin, src.smin) &&
          !SignedAddOverflows(dst.smax, src.smax)) {
        res.smin = dst.smin + src.smin;
        res.smax = dst.smax + src.smax;
      }
      if (dst.umin + src.umin >= dst.umin && dst.umax + src.umax >= dst.umax) {
        res.umin = dst.umin + src.umin;
        res.umax = dst.umax + src.umax;
      }
      break;
    }
    case kBpfSub: {
      res.tnum = TnumSub(dst.tnum, src.tnum);
      if (!SignedSubOverflows(dst.smin, src.smax) &&
          !SignedSubOverflows(dst.smax, src.smin)) {
        res.smin = dst.smin - src.smax;
        res.smax = dst.smax - src.smin;
      }
      if (dst.umin >= src.umax) {
        res.umin = dst.umin - src.umax;
        res.umax = dst.umax - src.umin;
      }
      break;
    }
    case kBpfAnd: {
      res.tnum = TnumAnd(dst.tnum, src.tnum);
      res.umin = 0;
      res.umax = std::min(dst.umax, src.umax);
      break;
    }
    case kBpfOr: {
      res.tnum = TnumOr(dst.tnum, src.tnum);
      res.umin = std::max(dst.umin, src.umin);
      break;
    }
    case kBpfXor: {
      res.tnum = TnumXor(dst.tnum, src.tnum);
      break;
    }
    case kBpfMul: {
      res.tnum = TnumMul(dst.tnum, src.tnum);
      if (dst.smin >= 0 && src.smin >= 0 && dst.umax <= 0xffffffffull &&
          src.umax <= 0xffffffffull) {
        res.umin = dst.umin * src.umin;
        res.umax = dst.umax * src.umax;
      }
      break;
    }
    case kBpfDiv: {
      // Unsigned divide; divisor 0 yields 0. Result never exceeds the
      // dividend in either case.
      res.umin = 0;
      res.umax = dst.umax;
      break;
    }
    case kBpfMod: {
      // Modulus 0 leaves dst unchanged; otherwise result < divisor.
      res.umin = 0;
      res.umax = src.umin >= 1 ? std::min(dst.umax, src.umax - 1) : dst.umax;
      break;
    }
    case kBpfLsh: {
      if (src.IsConst()) {
        const std::uint8_t sh = static_cast<std::uint8_t>(src.ConstValue() & 63);
        res.tnum = TnumLshift(dst.tnum, sh);
        if (sh == 0 || (dst.umax >> (64 - sh)) == 0) {
          res.umin = dst.umin << sh;
          res.umax = dst.umax << sh;
        }
      }
      break;
    }
    case kBpfRsh: {
      if (src.IsConst()) {
        const std::uint8_t sh = static_cast<std::uint8_t>(src.ConstValue() & 63);
        res.tnum = TnumRshift(dst.tnum, sh);
        res.umin = dst.umin >> sh;
        res.umax = dst.umax >> sh;
      } else {
        res.umin = 0;
        res.umax = dst.umax;  // any shift amount only shrinks the value
      }
      break;
    }
    case kBpfArsh: {
      if (src.IsConst()) {
        const std::uint8_t sh = static_cast<std::uint8_t>(src.ConstValue() & 63);
        res.tnum = TnumArshift(dst.tnum, sh);
        res.smin = dst.smin >> sh;
        res.smax = dst.smax >> sh;
      }
      break;
    }
    default:
      break;  // unknown op: fully unknown result (structurally rejected)
  }
  if (!res.Sync()) {
    // A sound transfer function cannot produce an empty set from non-empty
    // inputs; fall back to unknown defensively.
    res = ScalarValue::Unknown();
  }
  return res;
}

// Refinement helpers: tighten and detect contradictions.
bool SetUmin(ScalarValue& v, std::uint64_t lo) {
  v.umin = std::max(v.umin, lo);
  return v.umin <= v.umax;
}
bool SetUmax(ScalarValue& v, std::uint64_t hi) {
  v.umax = std::min(v.umax, hi);
  return v.umin <= v.umax;
}
bool SetSmin(ScalarValue& v, std::int64_t lo) {
  v.smin = std::max(v.smin, lo);
  return v.smin <= v.smax;
}
bool SetSmax(ScalarValue& v, std::int64_t hi) {
  v.smax = std::min(v.smax, hi);
  return v.smin <= v.smax;
}

// 32-bit compares only refine (or decide) when the truncation is a no-op:
// unsigned forms need both operands within [0, 2^32), signed forms within
// [0, 2^31) so sign extension of the 32-bit view is the identity.
bool Is32CompareExact(std::uint8_t op, const ScalarValue& a,
                      const ScalarValue& b) {
  const bool is_signed =
      op == kBpfJsgt || op == kBpfJsge || op == kBpfJslt || op == kBpfJsle;
  const std::uint64_t limit = is_signed ? 0x7fffffffull : 0xffffffffull;
  return a.umax <= limit && b.umax <= limit;
}

}  // namespace

bool ScalarValue::Sync() {
  for (int round = 0; round < 2; ++round) {
    // Known bits bound the unsigned range.
    umin = std::max(umin, tnum.Min());
    umax = std::min(umax, tnum.Max());
    if (umin > umax) {
      return false;
    }
    // If the unsigned range does not cross the sign boundary, it equals the
    // signed range.
    if (static_cast<std::int64_t>(umin) <= static_cast<std::int64_t>(umax)) {
      smin = std::max(smin, static_cast<std::int64_t>(umin));
      smax = std::min(smax, static_cast<std::int64_t>(umax));
    }
    if (smin > smax) {
      return false;
    }
    // A sign-uniform signed range transfers to the unsigned views.
    if (smin >= 0 || smax < 0) {
      umin = std::max(umin, static_cast<std::uint64_t>(smin));
      umax = std::min(umax, static_cast<std::uint64_t>(smax));
      if (umin > umax) {
        return false;
      }
    }
    // The unsigned range bounds the known bits.
    const Tnum range = TnumRange(umin, umax);
    if (TnumsConflict(tnum, range)) {
      return false;
    }
    tnum = TnumIntersect(tnum, range);
  }
  return true;
}

bool ScalarValue::Covers(const ScalarValue& a, const ScalarValue& b) {
  return a.umin <= b.umin && a.umax >= b.umax && a.smin <= b.smin &&
         a.smax >= b.smax && TnumIn(a.tnum, b.tnum);
}

std::string ScalarValue::ToString() const {
  char buf[160];
  if (IsConst()) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(umin));
    return buf;
  }
  std::string out = "[";
  if (umin != 0 || umax != ~0ull) {
    std::snprintf(buf, sizeof(buf), "u:%llu..%llu",
                  static_cast<unsigned long long>(umin),
                  static_cast<unsigned long long>(umax));
    out += buf;
  }
  if (smin != INT64_MIN || smax != INT64_MAX) {
    std::snprintf(buf, sizeof(buf), "%ss:%lld..%lld",
                  out.size() > 1 ? " " : "", static_cast<long long>(smin),
                  static_cast<long long>(smax));
    out += buf;
  }
  if (tnum.mask != ~0ull) {
    std::snprintf(buf, sizeof(buf), "%stnum(%#llx/%#llx)",
                  out.size() > 1 ? " " : "",
                  static_cast<unsigned long long>(tnum.value),
                  static_cast<unsigned long long>(tnum.mask));
    out += buf;
  }
  if (out.size() == 1) {
    out += "unknown";
  }
  out += "]";
  return out;
}

ScalarValue ScalarCast32(const ScalarValue& v) { return Cast32(v); }

ScalarValue ScalarAluTransfer(std::uint8_t op, const ScalarValue& dst,
                              const ScalarValue& src, bool is64) {
  if (dst.IsConst() && src.IsConst()) {
    return ScalarValue::Const(
        ConstEval(op, dst.ConstValue(), src.ConstValue(), is64));
  }
  if (is64) {
    return Transfer64(op, dst, src);
  }
  // ALU32: operate on the 32-bit views, then truncate the result. Shift
  // counts mask by 31, so clamp constant counts before the 64-bit transfer.
  ScalarValue src32 = Cast32(src);
  if ((op == kBpfLsh || op == kBpfRsh || op == kBpfArsh) && src32.IsConst()) {
    src32 = ScalarValue::Const(src32.ConstValue() & 31);
  }
  ScalarValue res = Transfer64(op, Cast32(dst), src32);
  if (op == kBpfArsh) {
    // The 64-bit transfer sign-extended from bit 63, not bit 31; only the
    // tnum's low bits survive truncation soundly.
    ScalarValue t;
    t.tnum = TnumCast32(res.tnum);
    res = t;
  }
  return Cast32(res);
}

BranchOutcome EvalBranch(std::uint8_t op, bool is32, const ScalarValue& dst0,
                         const ScalarValue& src0) {
  ScalarValue dst = dst0;
  ScalarValue src = src0;
  if (is32) {
    dst = Cast32(dst);
    src = Cast32(src);
    if (!Is32CompareExact(op, dst, src)) {
      return BranchOutcome::kUnknown;
    }
  }
  switch (op) {
    case kBpfJeq:
      if (dst.IsConst() && src.IsConst()) {
        return dst.ConstValue() == src.ConstValue() ? BranchOutcome::kAlways
                                                    : BranchOutcome::kNever;
      }
      if (dst.umax < src.umin || dst.umin > src.umax ||
          dst.smax < src.smin || dst.smin > src.smax ||
          TnumsConflict(dst.tnum, src.tnum)) {
        return BranchOutcome::kNever;
      }
      return BranchOutcome::kUnknown;
    case kBpfJne: {
      const BranchOutcome eq = EvalBranch(kBpfJeq, false, dst, src);
      if (eq == BranchOutcome::kAlways) return BranchOutcome::kNever;
      if (eq == BranchOutcome::kNever) return BranchOutcome::kAlways;
      return BranchOutcome::kUnknown;
    }
    case kBpfJgt:
      if (dst.umin > src.umax) return BranchOutcome::kAlways;
      if (dst.umax <= src.umin) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJge:
      if (dst.umin >= src.umax) return BranchOutcome::kAlways;
      if (dst.umax < src.umin) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJlt:
      if (dst.umax < src.umin) return BranchOutcome::kAlways;
      if (dst.umin >= src.umax) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJle:
      if (dst.umax <= src.umin) return BranchOutcome::kAlways;
      if (dst.umin > src.umax) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJsgt:
      if (dst.smin > src.smax) return BranchOutcome::kAlways;
      if (dst.smax <= src.smin) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJsge:
      if (dst.smin >= src.smax) return BranchOutcome::kAlways;
      if (dst.smax < src.smin) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJslt:
      if (dst.smax < src.smin) return BranchOutcome::kAlways;
      if (dst.smin >= src.smax) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJsle:
      if (dst.smax <= src.smin) return BranchOutcome::kAlways;
      if (dst.smin > src.smax) return BranchOutcome::kNever;
      return BranchOutcome::kUnknown;
    case kBpfJset:
      if (src.IsConst()) {
        const std::uint64_t bits = src.ConstValue();
        if ((dst.tnum.value & bits) != 0) return BranchOutcome::kAlways;
        if (((dst.tnum.value | dst.tnum.mask) & bits) == 0) {
          return BranchOutcome::kNever;
        }
      }
      return BranchOutcome::kUnknown;
    default:
      return BranchOutcome::kUnknown;
  }
}

bool RefineBranch(std::uint8_t op, bool taken, bool is32, ScalarValue& dst,
                  ScalarValue& src) {
  if (is32 && !Is32CompareExact(op, dst, src)) {
    return true;  // truncated compare: no refinement, arm stays feasible
  }

  // Canonicalise "not taken" into the complementary predicate.
  if (!taken) {
    switch (op) {
      case kBpfJeq:
        op = kBpfJne;
        break;
      case kBpfJne:
        op = kBpfJeq;
        break;
      case kBpfJgt:
        op = kBpfJle;
        break;
      case kBpfJle:
        op = kBpfJgt;
        break;
      case kBpfJge:
        op = kBpfJlt;
        break;
      case kBpfJlt:
        op = kBpfJge;
        break;
      case kBpfJsgt:
        op = kBpfJsle;
        break;
      case kBpfJsle:
        op = kBpfJsgt;
        break;
      case kBpfJsge:
        op = kBpfJslt;
        break;
      case kBpfJslt:
        op = kBpfJsge;
        break;
      case kBpfJset: {
        // !(dst & bits): with a constant mask, those bits are known zero.
        if (src.IsConst()) {
          const std::uint64_t bits = src.ConstValue();
          if ((dst.tnum.value & bits) != 0) {
            return false;  // a known-set bit contradicts "not taken"
          }
          dst.tnum.mask &= ~bits;
          dst.tnum.value &= ~bits;
          return dst.Sync();
        }
        return true;
      }
      default:
        return true;
    }
  } else if (op == kBpfJset) {
    if (src.IsConst() && src.ConstValue() != 0) {
      return SetUmin(dst, 1) && dst.Sync();  // some bit set => nonzero
    }
    return true;
  }

  bool ok = true;
  switch (op) {
    case kBpfJeq: {
      if (TnumsConflict(dst.tnum, src.tnum)) {
        return false;
      }
      const Tnum t = TnumIntersect(dst.tnum, src.tnum);
      ok = SetUmin(dst, src.umin) && SetUmax(dst, src.umax) &&
           SetSmin(dst, src.smin) && SetSmax(dst, src.smax);
      dst.tnum = t;
      ok = ok && SetUmin(src, dst.umin) && SetUmax(src, dst.umax) &&
           SetSmin(src, dst.smin) && SetSmax(src, dst.smax);
      src.tnum = t;
      break;
    }
    case kBpfJne: {
      // Only a constant on one side lets us trim the other's endpoints.
      if (src.IsConst()) {
        const std::uint64_t c = src.ConstValue();
        if (dst.IsConst() && dst.ConstValue() == c) {
          return false;
        }
        if (dst.umin == c) ++dst.umin;
        if (dst.umax == c) --dst.umax;
        if (dst.umin > dst.umax) return false;
      } else if (dst.IsConst()) {
        const std::uint64_t c = dst.ConstValue();
        if (src.umin == c) ++src.umin;
        if (src.umax == c) --src.umax;
        if (src.umin > src.umax) return false;
      }
      break;
    }
    case kBpfJgt:
      if (src.umin == ~0ull || dst.umax == 0) return false;
      ok = SetUmin(dst, src.umin + 1) && SetUmax(src, dst.umax - 1);
      break;
    case kBpfJge:
      ok = SetUmin(dst, src.umin) && SetUmax(src, dst.umax);
      break;
    case kBpfJlt:
      if (src.umax == 0 || dst.umin == ~0ull) return false;
      ok = SetUmax(dst, src.umax - 1) && SetUmin(src, dst.umin + 1);
      break;
    case kBpfJle:
      ok = SetUmax(dst, src.umax) && SetUmin(src, dst.umin);
      break;
    case kBpfJsgt:
      if (src.smin == INT64_MAX || dst.smax == INT64_MIN) return false;
      ok = SetSmin(dst, src.smin + 1) && SetSmax(src, dst.smax - 1);
      break;
    case kBpfJsge:
      ok = SetSmin(dst, src.smin) && SetSmax(src, dst.smax);
      break;
    case kBpfJslt:
      if (src.smax == INT64_MIN || dst.smin == INT64_MAX) return false;
      ok = SetSmax(dst, src.smax - 1) && SetSmin(src, dst.smin + 1);
      break;
    case kBpfJsle:
      ok = SetSmax(dst, src.smax) && SetSmin(src, dst.smin);
      break;
    default:
      break;
  }
  return ok && dst.Sync() && src.Sync();
}

bool RegState::Covers(const RegState& a, const RegState& b) {
  if (a.type == RegType::kUninit) {
    // The covering exploration never read this register, so anything goes.
    return true;
  }
  if (a.type != b.type) {
    return false;
  }
  switch (a.type) {
    case RegType::kScalar:
      return ScalarValue::Covers(a.var, b.var);
    case RegType::kPtrToCtx:
    case RegType::kPtrToStack:
      return a.off == b.off && ScalarValue::Covers(a.var, b.var);
    case RegType::kPtrToMapValue:
    case RegType::kMapValueOrNull:
      return a.map_index == b.map_index && a.off == b.off &&
             ScalarValue::Covers(a.var, b.var);
    case RegType::kUninit:
      return true;
  }
  return false;
}

std::string RegState::ToString() const {
  char buf[64];
  switch (type) {
    case RegType::kUninit:
      return "uninit";
    case RegType::kScalar:
      return "scalar" + var.ToString();
    case RegType::kPtrToCtx:
    case RegType::kPtrToStack:
    case RegType::kPtrToMapValue:
    case RegType::kMapValueOrNull: {
      const char* base = type == RegType::kPtrToCtx ? "ctx"
                         : type == RegType::kPtrToStack
                             ? "fp"
                             : (type == RegType::kPtrToMapValue
                                    ? "map_value"
                                    : "map_value_or_null");
      std::snprintf(buf, sizeof(buf), "%s%+lld", base,
                    static_cast<long long>(off));
      std::string out = buf;
      if (!(var.IsConst() && var.ConstValue() == 0)) {
        out += "+var" + var.ToString();
      }
      return out;
    }
  }
  return "?";
}

bool AbstractState::operator==(const AbstractState& other) const {
  if (pc != other.pc || stack_init != other.stack_init) {
    return false;
  }
  for (int i = 0; i < kBpfNumRegs; ++i) {
    if (!(regs[i] == other.regs[i])) {
      return false;
    }
  }
  return true;
}

std::uint64_t AbstractState::Hash() const {
  std::uint64_t h = std::hash<std::bitset<kBpfStackSize>>{}(stack_init);
  // Murmur3's 64-bit finalizer per word, so a difference in any bit of any
  // field reaches every bit of the hash.
  auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
  };
  mix(pc);
  for (const RegState& reg : regs) {
    mix(static_cast<std::uint64_t>(reg.type));
    mix(static_cast<std::uint64_t>(reg.off));
    mix(reg.map_index);
    mix(reg.var.umin);
    mix(reg.var.umax);
    mix(static_cast<std::uint64_t>(reg.var.smin));
    mix(static_cast<std::uint64_t>(reg.var.smax));
    mix(reg.var.tnum.value);
    mix(reg.var.tnum.mask);
  }
  return h;
}

bool AbstractState::Covers(const AbstractState& a, const AbstractState& b) {
  if (a.pc != b.pc) {
    return false;
  }
  // Everything the covering exploration saw as initialized must be
  // initialized here too.
  if ((a.stack_init & ~b.stack_init).any()) {
    return false;
  }
  for (int i = 0; i < kBpfNumRegs; ++i) {
    if (!RegState::Covers(a.regs[i], b.regs[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace concord
