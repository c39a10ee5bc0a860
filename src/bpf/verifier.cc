#include "src/bpf/verifier.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/bpf/helpers.h"
#include "src/bpf/insn.h"
#include "src/bpf/loop_analysis.h"
#include "src/bpf/verifier_state.h"

namespace concord {
namespace {

// One node in the exploration tree. A node is created at every control
// transfer (jump target, branch arm, loop-header checkpoint); the parent
// chain of the node a path is currently under IS the path, which is how
// rejection messages recover their branch history.
struct ExploreNode {
  int parent = -1;
  std::size_t entry_pc = 0;
  // Outstanding (not yet fully explored) leaf paths in this subtree. When it
  // drops to zero the subtree is complete and a loop-header snapshot here
  // becomes eligible for pruning — never before, so pruning can't justify
  // termination circularly (the kernel's branches==0 discipline).
  std::uint32_t branches = 1;
  // Loop headers only: the abstract state on entry, used for infinite-loop
  // detection (exact repeat vs an in-progress ancestor) and pruning
  // (coverage by a completed exploration).
  std::unique_ptr<AbstractState> snapshot;
};

// A forked path waiting to be explored: its state, the tree node it hangs
// off, and how many times it has taken each back edge so far.
struct PendingPath {
  AbstractState state;
  int node = 0;
  std::vector<std::uint64_t> trips;
};

class VerifierImpl {
 public:
  VerifierImpl(Program& program, const Verifier::Options& options,
               Verifier::Analysis* analysis)
      : program_(program),
        options_(options),
        analysis_(analysis),
        map_lookup_sites_(program.insns.size(), Program::kNoMapSite) {}

  Status Run() {
    CONCORD_RETURN_IF_ERROR(StructuralChecks());
    loops_ = LoopAnalysis::Analyze(program_.insns, imm64_second_);
    header_visits_.assign(program_.insns.size(), 0);
    completed_snapshots_.assign(program_.insns.size(), {});
    loop_trip_max_.assign(loops_.back_edges().size(), 0);
    CONCORD_RETURN_IF_ERROR(Explore());
    if (analysis_ != nullptr) {
      analysis_->states_processed = states_processed_;
      for (std::size_t e = 0; e < loops_.back_edges().size(); ++e) {
        Verifier::LoopReport report;
        report.back_edge_pc = loops_.back_edges()[e].from_pc;
        report.header_pc = loops_.back_edges()[e].header_pc;
        report.max_trips = loop_trip_max_[e];
        analysis_->loops.push_back(report);
      }
    }
    return Status::Ok();
  }

  std::uint32_t used_capabilities() const { return used_capabilities_; }
  std::vector<std::int32_t> TakeMapLookupSites() {
    return std::move(map_lookup_sites_);
  }

 private:
  // ---- rejection messages carry the abstract path --------------------------
  std::string PathString(std::size_t cur_pc) const {
    std::vector<std::size_t> pcs;
    for (int n = cur_node_; n >= 0; n = nodes_[n].parent) {
      pcs.push_back(nodes_[n].entry_pc);
    }
    std::reverse(pcs.begin(), pcs.end());
    pcs.push_back(cur_pc);
    // Collapse consecutive repeats (checkpoints at the pc we are already at).
    pcs.erase(std::unique(pcs.begin(), pcs.end()), pcs.end());

    std::string out;
    const std::size_t n = pcs.size();
    constexpr std::size_t kHead = 4;
    constexpr std::size_t kTail = 16;
    for (std::size_t i = 0; i < n; ++i) {
      if (n > kHead + kTail + 1 && i == kHead) {
        out += " -> ...";
        i = n - kTail - 1;
        continue;
      }
      if (!out.empty()) {
        out += " -> ";
      }
      out += std::to_string(pcs[i]);
    }
    return out;
  }

  std::string At(std::size_t pc, const Insn& insn,
                 const std::string& msg) const {
    return "insn " + std::to_string(pc) + " (" + DisassembleInsn(insn) +
           "): " + msg + " [path: " + PathString(pc) + "]";
  }

  // ---- pass 1: instruction-local validity and jump targets -----------------
  Status StructuralChecks() {
    const auto& insns = program_.insns;
    if (insns.empty()) {
      return InvalidArgumentError("empty program");
    }
    if (insns.size() > kMaxProgramInsns) {
      return ResourceExhaustedError("program exceeds " +
                                    std::to_string(kMaxProgramInsns) +
                                    " instructions");
    }
    if (program_.ctx_desc == nullptr) {
      return InvalidArgumentError("program has no context descriptor");
    }

    imm64_second_.assign(insns.size(), false);
    for (std::size_t pc = 0; pc < insns.size(); ++pc) {
      if (imm64_second_[pc]) {
        continue;  // pseudo slot, validated with its first half
      }
      const Insn& insn = insns[pc];
      CONCORD_RETURN_IF_ERROR(CheckInsnShape(pc, insn));
      if (insn.Class() == kBpfClassLd) {
        if (pc + 1 >= insns.size()) {
          return InvalidArgumentError(AtNoPath(pc, insn, "truncated lddw"));
        }
        const Insn& second = insns[pc + 1];
        if (second.opcode != 0 || second.dst != 0 || second.src != 0 ||
            second.off != 0) {
          return InvalidArgumentError(
              AtNoPath(pc, insn, "malformed lddw second slot"));
        }
        imm64_second_[pc + 1] = true;
      }
    }

    // Jump-target validation. Back edges are legal as of verifier v2; the
    // termination argument moved into the abstract interpreter (loop-header
    // state checkpoints + per-path trip budgets).
    for (std::size_t pc = 0; pc < insns.size(); ++pc) {
      if (imm64_second_[pc]) {
        continue;
      }
      const Insn& insn = insns[pc];
      if (insn.Class() != kBpfClassJmp && insn.Class() != kBpfClassJmp32) {
        continue;
      }
      const std::uint8_t op = insn.JmpOp();
      if (op == kBpfExit || op == kBpfCall) {
        continue;
      }
      const std::int64_t target = static_cast<std::int64_t>(pc) + 1 +
                                  static_cast<std::int64_t>(insn.off);
      if (target < 0 || target >= static_cast<std::int64_t>(insns.size())) {
        return InvalidArgumentError(AtNoPath(pc, insn, "jump out of bounds"));
      }
      if (imm64_second_[static_cast<std::size_t>(target)]) {
        return InvalidArgumentError(
            AtNoPath(pc, insn, "jump into the middle of a lddw"));
      }
    }
    return Status::Ok();
  }

  // Structural-pass variant of At(): no exploration has happened yet, so
  // there is no path to report.
  static std::string AtNoPath(std::size_t pc, const Insn& insn,
                              const std::string& msg) {
    return "insn " + std::to_string(pc) + " (" + DisassembleInsn(insn) +
           "): " + msg;
  }

  Status CheckInsnShape(std::size_t pc, const Insn& insn) {
    if (insn.dst >= kBpfNumRegs || insn.src >= kBpfNumRegs) {
      return InvalidArgumentError(AtNoPath(pc, insn, "register out of range"));
    }
    switch (insn.Class()) {
      case kBpfClassAlu64:
      case kBpfClassAlu32: {
        switch (insn.AluOp()) {
          case kBpfAdd:
          case kBpfSub:
          case kBpfMul:
          case kBpfDiv:
          case kBpfOr:
          case kBpfAnd:
          case kBpfLsh:
          case kBpfRsh:
          case kBpfNeg:
          case kBpfMod:
          case kBpfXor:
          case kBpfMov:
          case kBpfArsh:
            break;
          default:
            return InvalidArgumentError(AtNoPath(pc, insn, "unknown ALU op"));
        }
        if ((insn.AluOp() == kBpfDiv || insn.AluOp() == kBpfMod) &&
            !insn.UsesSrcReg() && insn.imm == 0) {
          return InvalidArgumentError(
              AtNoPath(pc, insn, "division by constant zero"));
        }
        if (insn.dst == kBpfReg10) {
          return PermissionDeniedError(
              AtNoPath(pc, insn, "write to frame pointer r10"));
        }
        return Status::Ok();
      }
      case kBpfClassJmp:
      case kBpfClassJmp32: {
        switch (insn.JmpOp()) {
          case kBpfJeq:
          case kBpfJgt:
          case kBpfJge:
          case kBpfJset:
          case kBpfJne:
          case kBpfJsgt:
          case kBpfJsge:
          case kBpfJlt:
          case kBpfJle:
          case kBpfJslt:
          case kBpfJsle:
            return Status::Ok();
          case kBpfJa:
          case kBpfCall:
          case kBpfExit:
            if (insn.Class() == kBpfClassJmp32) {
              return InvalidArgumentError(AtNoPath(
                  pc, insn, "ja/call/exit are not valid in the JMP32 class"));
            }
            return Status::Ok();
          default:
            return InvalidArgumentError(AtNoPath(pc, insn, "unknown JMP op"));
        }
      }
      case kBpfClassLdx:
      case kBpfClassSt:
        if (insn.Mode() != kBpfModeMem) {
          return InvalidArgumentError(
              AtNoPath(pc, insn, "unsupported memory mode"));
        }
        if (ByteWidth(insn.Size()) == 0) {
          return InvalidArgumentError(AtNoPath(pc, insn, "bad access size"));
        }
        return Status::Ok();
      case kBpfClassStx:
        if (insn.Mode() != kBpfModeMem && insn.Mode() != kBpfModeAtomic) {
          return InvalidArgumentError(
              AtNoPath(pc, insn, "unsupported memory mode"));
        }
        if (ByteWidth(insn.Size()) == 0) {
          return InvalidArgumentError(AtNoPath(pc, insn, "bad access size"));
        }
        if (insn.Mode() == kBpfModeAtomic && ByteWidth(insn.Size()) < 4) {
          return InvalidArgumentError(
              AtNoPath(pc, insn, "atomic add requires word or dword size"));
        }
        return Status::Ok();
      case kBpfClassLd:
        if (insn.Mode() != kBpfModeImm || insn.Size() != kBpfSizeDw) {
          return InvalidArgumentError(
              AtNoPath(pc, insn, "only lddw is supported in class LD"));
        }
        if (insn.dst == kBpfReg10) {
          return PermissionDeniedError(
              AtNoPath(pc, insn, "write to frame pointer r10"));
        }
        return Status::Ok();
      default:
        return InvalidArgumentError(
            AtNoPath(pc, insn, "unknown instruction class"));
    }
  }

  // ---- pass 2: abstract interpretation over all paths ----------------------

  int NewNode(int parent, std::size_t entry_pc) {
    ExploreNode node;
    node.parent = parent;
    node.entry_pc = entry_pc;
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size() - 1);
  }

  // True if `ancestor` is `node` or on its parent chain. A node is always
  // created after its parent, so the walk stops once it passes `ancestor`.
  bool IsAncestor(int ancestor, int node) const {
    while (node > ancestor) {
      node = nodes_[static_cast<std::size_t>(node)].parent;
    }
    return node == ancestor;
  }

  // A path reached exit (or was pruned): retire it, completing every subtree
  // it was the last outstanding leaf of.
  void CompletePath(int node) {
    for (int n = node; n >= 0;) {
      ExploreNode& e = nodes_[static_cast<std::size_t>(n)];
      if (--e.branches != 0) {
        break;
      }
      if (e.snapshot != nullptr) {
        completed_snapshots_[e.entry_pc].push_back(n);
      }
      n = e.parent;
    }
  }

  Status ChargeState() {
    if (++states_processed_ <= options_.max_states) {
      return Status::Ok();
    }
    std::string msg = "program too complex to verify: explored " +
                      std::to_string(states_processed_) +
                      " abstract states (budget " +
                      std::to_string(options_.max_states) + ")";
    // Attribute the blowup: the hottest loop header, or branch explosion.
    std::size_t hot_pc = 0;
    std::size_t hot_visits = 0;
    for (std::size_t pc = 0; pc < header_visits_.size(); ++pc) {
      if (header_visits_[pc] > hot_visits) {
        hot_visits = header_visits_[pc];
        hot_pc = pc;
      }
    }
    if (hot_visits > 0) {
      msg += "; hottest loop header at insn " + std::to_string(hot_pc) + " (" +
             std::to_string(hot_visits) + " state visits)";
    } else {
      msg += "; no loops involved (branch explosion)";
    }
    return ResourceExhaustedError(msg);
  }

  Status Explore() {
    AbstractState initial;
    initial.pc = 0;
    initial.regs[kBpfReg1].type = RegType::kPtrToCtx;
    initial.regs[kBpfReg10].type = RegType::kPtrToStack;

    NewNode(-1, 0);  // root
    std::vector<PendingPath> pending;
    pending.push_back(PendingPath{
        std::move(initial), 0,
        std::vector<std::uint64_t>(loops_.back_edges().size(), 0)});

    while (!pending.empty()) {
      PendingPath path = std::move(pending.back());
      pending.pop_back();
      CONCORD_RETURN_IF_ERROR(ChargeState());
      CONCORD_RETURN_IF_ERROR(RunPath(std::move(path), pending));
    }
    return Status::Ok();
  }

  // Counts a trip through the back edge at `from_pc` against the per-path
  // budget.
  Status CountTrip(std::size_t from_pc, const Insn& insn,
                   std::vector<std::uint64_t>& trips) {
    const int e = loops_.EdgeIndex(from_pc);
    if (e < 0) {
      return InternalError(At(from_pc, insn, "untracked back edge"));
    }
    const auto idx = static_cast<std::size_t>(e);
    ++trips[idx];
    loop_trip_max_[idx] = std::max(loop_trip_max_[idx], trips[idx]);
    if (trips[idx] > options_.max_loop_trips) {
      return ResourceExhaustedError(
          At(from_pc, insn,
             "loop exceeded " + std::to_string(options_.max_loop_trips) +
                 " iterations (back edge to insn " +
                 std::to_string(loops_.back_edges()[idx].header_pc) + ")"));
    }
    return Status::Ok();
  }

  // Transfers control of the running path to `to_pc` (a resolved jump),
  // recording the transfer as a path node and counting back-edge trips.
  Status Goto(std::size_t from_pc, const Insn& insn, std::size_t to_pc,
              PendingPath& path) {
    if (to_pc <= from_pc) {
      CONCORD_RETURN_IF_ERROR(CountTrip(from_pc, insn, path.trips));
    }
    cur_node_ = NewNode(cur_node_, to_pc);
    path.state.pc = to_pc;
    return Status::Ok();
  }

  // Executes one path until it exits, is pruned, or forks (forked states go
  // to `pending`).
  Status RunPath(PendingPath path, std::vector<PendingPath>& pending) {
    const auto& insns = program_.insns;
    AbstractState& state = path.state;
    cur_node_ = path.node;

    while (true) {
      if (state.pc >= insns.size()) {
        return PermissionDeniedError(
            "control falls off the end of the program [path: " +
            PathString(insns.size()) + "]");
      }
      const std::size_t pc = state.pc;
      const Insn& insn = insns[pc];

      if (loops_.IsHeader(pc)) {
        CONCORD_RETURN_IF_ERROR(ChargeState());
        ++header_visits_[pc];
        // Infinite loop: the exact same abstract state at the same header as
        // an ancestor still being explored means another identical iteration
        // is coming — no progress, ever. Checkpoints are indexed by state
        // hash, so only a likely repeat costs a comparison and an ancestry
        // walk.
        const std::uint64_t hash = state.Hash();
        const auto [first, last] = checkpoints_by_hash_.equal_range(hash);
        for (auto it = first; it != last; ++it) {
          if (*nodes_[static_cast<std::size_t>(it->second)].snapshot == state &&
              IsAncestor(it->second, cur_node_)) {
            return PermissionDeniedError(At(
                pc, insn,
                "infinite loop detected: abstract state repeats at the loop "
                "header with no progress"));
          }
        }
        // Pruning: a completed exploration from a covering state already
        // proved every outcome reachable from here.
        bool pruned = false;
        for (const int idx : completed_snapshots_[pc]) {
          if (AbstractState::Covers(*nodes_[static_cast<std::size_t>(idx)].snapshot,
                                    state)) {
            pruned = true;
            break;
          }
        }
        if (pruned) {
          CompletePath(cur_node_);
          return Status::Ok();
        }
        // Checkpoint this visit.
        const int ck = NewNode(cur_node_, pc);
        nodes_[static_cast<std::size_t>(ck)].snapshot =
            std::make_unique<AbstractState>(state);
        checkpoints_by_hash_.emplace(hash, ck);
        cur_node_ = ck;
      }

      switch (insn.Class()) {
        case kBpfClassAlu64:
        case kBpfClassAlu32:
          CONCORD_RETURN_IF_ERROR(StepAlu(pc, insn, state));
          state.pc = pc + 1;
          break;
        case kBpfClassLdx:
          CONCORD_RETURN_IF_ERROR(StepLoad(pc, insn, state));
          state.pc = pc + 1;
          break;
        case kBpfClassStx:
        case kBpfClassSt:
          CONCORD_RETURN_IF_ERROR(StepStore(pc, insn, state));
          state.pc = pc + 1;
          break;
        case kBpfClassLd: {
          const std::uint64_t lo = static_cast<std::uint32_t>(insn.imm);
          const std::uint64_t hi =
              static_cast<std::uint32_t>(insns[pc + 1].imm);
          state.regs[insn.dst] = RegState::Known(lo | (hi << 32));
          state.pc = pc + 2;
          break;
        }
        case kBpfClassJmp32: {
          bool path_done = false;
          CONCORD_RETURN_IF_ERROR(
              StepCondJmp(pc, insn, path, pending, path_done));
          if (path_done) {
            return Status::Ok();
          }
          break;
        }
        case kBpfClassJmp: {
          const std::uint8_t op = insn.JmpOp();
          if (op == kBpfExit) {
            const RegState& r0 = state.regs[kBpfReg0];
            if (r0.type == RegType::kUninit) {
              return PermissionDeniedError(
                  At(pc, insn, "exit with uninitialized r0"));
            }
            if (r0.IsPointer()) {
              return PermissionDeniedError(
                  At(pc, insn, "exit would leak a pointer in r0"));
            }
            if (analysis_ != nullptr) {
              RecordExit(r0.var);
            }
            CompletePath(cur_node_);
            return Status::Ok();
          }
          if (op == kBpfCall) {
            CONCORD_RETURN_IF_ERROR(StepCall(pc, insn, state));
            state.pc = pc + 1;
            break;
          }
          if (op == kBpfJa) {
            CONCORD_RETURN_IF_ERROR(
                Goto(pc, insn, static_cast<std::size_t>(pc + 1 + insn.off),
                     path));
            break;
          }
          bool path_done = false;
          CONCORD_RETURN_IF_ERROR(
              StepCondJmp(pc, insn, path, pending, path_done));
          if (path_done) {
            return Status::Ok();
          }
          break;
        }
        default:
          return InternalError(At(pc, insn, "class escaped structural checks"));
      }
    }
  }

  void RecordExit(const ScalarValue& r0) {
    if (!analysis_->has_exit) {
      analysis_->has_exit = true;
      analysis_->r0_exit = r0;
      return;
    }
    ScalarValue& u = analysis_->r0_exit;
    u.umin = std::min(u.umin, r0.umin);
    u.umax = std::max(u.umax, r0.umax);
    u.smin = std::min(u.smin, r0.smin);
    u.smax = std::max(u.smax, r0.smax);
    u.tnum = TnumUnion(u.tnum, r0.tnum);
  }

  Status StepAlu(std::size_t pc, const Insn& insn, AbstractState& state) {
    RegState& dst = state.regs[insn.dst];
    const bool is64 = insn.Class() == kBpfClassAlu64;
    const std::uint8_t op = insn.AluOp();

    RegState src = insn.UsesSrcReg()
                       ? state.regs[insn.src]
                       : RegState::Known(static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(insn.imm)));
    if (insn.UsesSrcReg() && src.type == RegType::kUninit) {
      return PermissionDeniedError(
          At(pc, insn, "read of uninitialized register"));
    }

    if (op == kBpfMov) {
      if (!is64 && src.IsPointer()) {
        return PermissionDeniedError(At(pc, insn, "32-bit mov of a pointer"));
      }
      if (is64) {
        dst = src;
      } else {
        dst = RegState::Ranged(ScalarCast32(src.var));
      }
      return Status::Ok();
    }

    if (op == kBpfNeg) {
      if (dst.type == RegType::kUninit) {
        return PermissionDeniedError(
            At(pc, insn, "neg of uninitialized register"));
      }
      if (dst.IsPointer()) {
        return PermissionDeniedError(At(pc, insn, "arithmetic on pointer"));
      }
      dst.var = ScalarAluTransfer(kBpfSub, ScalarValue::Const(0), dst.var,
                                  is64);
      return Status::Ok();
    }

    if (dst.type == RegType::kUninit) {
      return PermissionDeniedError(
          At(pc, insn, "ALU on uninitialized register"));
    }

    // Pointer arithmetic: ptr +/- scalar, 64-bit only. Constant offsets fold
    // into `off`; a ranged scalar becomes (or extends) the variable part,
    // proven in-bounds at the access site by its tracked range.
    if (dst.IsPointer()) {
      if (!is64) {
        return PermissionDeniedError(At(pc, insn, "32-bit ALU on pointer"));
      }
      if (op != kBpfAdd && op != kBpfSub) {
        return PermissionDeniedError(
            At(pc, insn, "only +/- allowed on pointers"));
      }
      if (dst.type == RegType::kMapValueOrNull) {
        return PermissionDeniedError(At(
            pc, insn,
            "arithmetic on possibly-null map value (null-check first)"));
      }
      if (src.IsPointer()) {
        return PermissionDeniedError(At(pc, insn, "pointer +/- pointer"));
      }
      if (src.IsConstScalar()) {
        const auto delta = static_cast<std::int64_t>(src.var.ConstValue());
        dst.off += (op == kBpfAdd) ? delta : -delta;
        return Status::Ok();
      }
      if (dst.type == RegType::kPtrToCtx) {
        return PermissionDeniedError(
            At(pc, insn,
               "context pointer offset must be a compile-time constant"));
      }
      if (op == kBpfSub) {
        return PermissionDeniedError(
            At(pc, insn,
               "variable pointer subtraction is not supported (the offset "
               "must be a compile-time constant)"));
      }
      dst.var = ScalarAluTransfer(kBpfAdd, dst.var, src.var, true);
      return Status::Ok();
    }

    if (src.IsPointer()) {
      return PermissionDeniedError(
          At(pc, insn, "pointer used as scalar operand"));
    }

    dst.var = ScalarAluTransfer(op, dst.var, src.var, is64);
    return Status::Ok();
  }

  Status CheckStackRange(std::size_t pc, const Insn& insn, std::int64_t lo,
                         std::int64_t hi_excl, bool must_be_init,
                         const AbstractState& state) const {
    if (lo < -kBpfStackSize || hi_excl > 0) {
      return PermissionDeniedError(At(pc, insn, "stack access out of bounds"));
    }
    if (must_be_init) {
      for (std::int64_t b = lo; b < hi_excl; ++b) {
        if (!state.stack_init[static_cast<std::size_t>(b + kBpfStackSize)]) {
          return PermissionDeniedError(
              At(pc, insn, "read of uninitialized stack byte"));
        }
      }
    }
    return Status::Ok();
  }

  // The variable part of a pointer, range-validated so that fixed + var
  // arithmetic below cannot overflow. Stack offsets may be negative; map
  // value offsets may not.
  Status CheckVarPart(std::size_t pc, const Insn& insn, const ScalarValue& var,
                      bool allow_negative) const {
    constexpr std::int64_t kLimit = 1 << 20;  // far beyond any valid object
    if (var.smax > kLimit || var.smin < (allow_negative ? -kLimit : 0)) {
      return PermissionDeniedError(
          At(pc, insn,
             allow_negative
                 ? "pointer variable offset is not proven in range"
                 : "pointer variable offset may be negative or is unbounded"));
    }
    return Status::Ok();
  }

  // Alignment of fixed + variable offset: every bit below the access width
  // must be known, and zero, in fixed + tnum(var).
  static bool AlignedAccess(std::int64_t fixed, const ScalarValue& var,
                            int width) {
    const Tnum t =
        TnumAdd(Tnum::Const(static_cast<std::uint64_t>(fixed)), var.tnum);
    const auto low = static_cast<std::uint64_t>(width - 1);
    return ((t.value | t.mask) & low) == 0;
  }

  Status StepLoad(std::size_t pc, const Insn& insn, AbstractState& state) {
    const RegState& base = state.regs[insn.src];
    const int width = ByteWidth(insn.Size());
    const std::int64_t fixed = base.off + insn.off;

    switch (base.type) {
      case RegType::kPtrToCtx: {
        // Context pointers never acquire a variable part (rejected in
        // StepAlu), so this is an exact-offset check as in v1.
        if (fixed < 0 || (fixed % width) != 0) {
          return PermissionDeniedError(
              At(pc, insn, "misaligned context access"));
        }
        const ContextField* field = program_.ctx_desc->FindField(
            static_cast<std::uint32_t>(fixed),
            static_cast<std::uint32_t>(width));
        if (field == nullptr) {
          return PermissionDeniedError(
              At(pc, insn, "context load does not match any declared field"));
        }
        program_.ctx_fields_read |=
            std::uint64_t{1} << (field - program_.ctx_desc->fields().data());
        state.regs[insn.dst] = RegState::Scalar();
        return Status::Ok();
      }
      case RegType::kPtrToStack: {
        CONCORD_RETURN_IF_ERROR(
            CheckVarPart(pc, insn, base.var, /*allow_negative=*/true));
        if (!AlignedAccess(fixed, base.var, width)) {
          return PermissionDeniedError(At(pc, insn, "misaligned stack access"));
        }
        CONCORD_RETURN_IF_ERROR(CheckStackRange(
            pc, insn, fixed + base.var.smin, fixed + base.var.smax + width,
            /*must_be_init=*/true, state));
        state.regs[insn.dst] = RegState::Scalar();
        return Status::Ok();
      }
      case RegType::kPtrToMapValue: {
        BpfMap* map = program_.maps[base.map_index];
        CONCORD_RETURN_IF_ERROR(
            CheckVarPart(pc, insn, base.var, /*allow_negative=*/false));
        const std::int64_t lo = fixed + base.var.smin;
        const std::int64_t hi = fixed + base.var.smax + width;
        if (lo < 0 || hi > static_cast<std::int64_t>(map->value_size()) ||
            !AlignedAccess(fixed, base.var, width)) {
          return PermissionDeniedError(
              At(pc, insn, "map value access out of bounds"));
        }
        RecordMapAccess(pc, base.map_index,
                        Verifier::MapAccessSite::Kind::kLoad);
        state.regs[insn.dst] = RegState::Scalar();
        return Status::Ok();
      }
      case RegType::kMapValueOrNull:
        return PermissionDeniedError(At(
            pc, insn,
            "dereference of possibly-null map value (null-check first)"));
      case RegType::kScalar:
      case RegType::kUninit:
        return PermissionDeniedError(At(pc, insn, "load from non-pointer"));
    }
    return InternalError("unreachable");
  }

  Status StepStore(std::size_t pc, const Insn& insn, AbstractState& state) {
    const RegState& base = state.regs[insn.dst];
    const int width = ByteWidth(insn.Size());
    const std::int64_t fixed = base.off + insn.off;

    if (insn.Class() == kBpfClassStx) {
      const RegState& src = state.regs[insn.src];
      if (src.type == RegType::kUninit) {
        return PermissionDeniedError(
            At(pc, insn, "store of uninitialized register"));
      }
      if (src.IsPointer()) {
        return PermissionDeniedError(
            At(pc, insn, "pointer spill to memory is not supported"));
      }
    }

    const bool is_atomic =
        insn.Class() == kBpfClassStx && insn.Mode() == kBpfModeAtomic;
    switch (base.type) {
      case RegType::kPtrToCtx: {
        if (is_atomic) {
          return PermissionDeniedError(
              At(pc, insn, "atomic add to context is not allowed"));
        }
        if (fixed < 0 || (fixed % width) != 0) {
          return PermissionDeniedError(
              At(pc, insn, "misaligned context access"));
        }
        const ContextField* field = program_.ctx_desc->FindField(
            static_cast<std::uint32_t>(fixed),
            static_cast<std::uint32_t>(width));
        if (field == nullptr) {
          return PermissionDeniedError(
              At(pc, insn, "context store does not match any declared field"));
        }
        if (!field->writable) {
          return PermissionDeniedError(
              At(pc, insn,
                 "store to read-only context field '" + field->name + "'"));
        }
        if (analysis_ != nullptr) {
          analysis_->writes_ctx = true;
        }
        return Status::Ok();
      }
      case RegType::kPtrToStack: {
        CONCORD_RETURN_IF_ERROR(
            CheckVarPart(pc, insn, base.var, /*allow_negative=*/true));
        if (!AlignedAccess(fixed, base.var, width)) {
          return PermissionDeniedError(At(pc, insn, "misaligned stack access"));
        }
        // Atomic add reads before writing: the bytes must already be
        // initialized. A store through a variable offset must also find the
        // whole reachable range initialized, because we cannot tell which
        // bytes it actually wrote (it never *sets* init bits).
        const bool exact = base.var.IsConst();
        const std::int64_t lo = fixed + base.var.smin;
        const std::int64_t hi = fixed + base.var.smax + width;
        CONCORD_RETURN_IF_ERROR(CheckStackRange(
            pc, insn, lo, hi, /*must_be_init=*/is_atomic || !exact, state));
        if (exact) {
          const std::int64_t at = fixed +
                                  static_cast<std::int64_t>(
                                      base.var.ConstValue());
          for (std::int64_t b = at; b < at + width; ++b) {
            state.stack_init[static_cast<std::size_t>(b + kBpfStackSize)] =
                true;
          }
        }
        return Status::Ok();
      }
      case RegType::kPtrToMapValue: {
        BpfMap* map = program_.maps[base.map_index];
        CONCORD_RETURN_IF_ERROR(
            CheckVarPart(pc, insn, base.var, /*allow_negative=*/false));
        const std::int64_t lo = fixed + base.var.smin;
        const std::int64_t hi = fixed + base.var.smax + width;
        if (lo < 0 || hi > static_cast<std::int64_t>(map->value_size()) ||
            !AlignedAccess(fixed, base.var, width)) {
          return PermissionDeniedError(
              At(pc, insn, "map value access out of bounds"));
        }
        RecordMapAccess(pc, base.map_index,
                        is_atomic ? Verifier::MapAccessSite::Kind::kAtomicAdd
                                  : Verifier::MapAccessSite::Kind::kStore);
        return Status::Ok();
      }
      case RegType::kMapValueOrNull:
        return PermissionDeniedError(At(
            pc, insn,
            "store through possibly-null map value (null-check first)"));
      case RegType::kScalar:
      case RegType::kUninit:
        return PermissionDeniedError(At(pc, insn, "store to non-pointer"));
    }
    return InternalError("unreachable");
  }

  void RecordMapAccess(std::size_t pc, std::uint32_t map_index,
                       Verifier::MapAccessSite::Kind kind) {
    if (analysis_ == nullptr) {
      return;
    }
    for (const auto& site : analysis_->map_access_sites) {
      if (site.pc == pc && site.map_index == map_index && site.kind == kind) {
        return;
      }
    }
    analysis_->map_access_sites.push_back({pc, map_index, kind});
  }

  Status StepCall(std::size_t pc, const Insn& insn, AbstractState& state) {
    const HelperDef* helper =
        HelperRegistry::Global().Find(static_cast<std::uint32_t>(insn.imm));
    if (helper == nullptr) {
      return PermissionDeniedError(At(pc, insn, "unknown helper"));
    }
    if ((helper->capabilities & ~options_.allowed_capabilities) != 0) {
      return PermissionDeniedError(
          At(pc, insn,
             "helper '" + helper->name +
                 "' is not permitted at this attach point"));
    }

    std::uint32_t pending_map_index = 0;
    bool have_map_index = false;
    for (int i = 0; i < 5; ++i) {
      const RegState& arg = state.regs[i + 1];
      switch (helper->args[i]) {
        case HelperArgKind::kNone:
          break;
        case HelperArgKind::kScalar:
          if (arg.type != RegType::kScalar) {
            return PermissionDeniedError(
                At(pc, insn, "helper arg " + std::to_string(i + 1) +
                                 " must be an initialized scalar"));
          }
          break;
        case HelperArgKind::kConstMapIndex: {
          if (!arg.IsConstScalar()) {
            return PermissionDeniedError(At(
                pc, insn, "map index argument must be a compile-time constant"));
          }
          const std::uint64_t value = arg.var.ConstValue();
          if (value >= program_.maps.size()) {
            return PermissionDeniedError(
                At(pc, insn, "map index " + std::to_string(value) +
                                 " out of range (program declares " +
                                 std::to_string(program_.maps.size()) +
                                 " maps)"));
          }
          pending_map_index = static_cast<std::uint32_t>(value);
          have_map_index = true;
          break;
        }
        case HelperArgKind::kStackKeyPtr:
        case HelperArgKind::kStackValuePtr: {
          if (!have_map_index) {
            return InternalError(
                At(pc, insn, "helper signature: stack ptr without map index"));
          }
          if (arg.type != RegType::kPtrToStack) {
            return PermissionDeniedError(
                At(pc, insn, "helper arg " + std::to_string(i + 1) +
                                 " must point into the stack"));
          }
          if (!arg.var.IsConst()) {
            return PermissionDeniedError(
                At(pc, insn,
                   "helper stack pointer must have a compile-time constant "
                   "offset"));
          }
          BpfMap* map = program_.maps[pending_map_index];
          const int size = static_cast<int>(
              helper->args[i] == HelperArgKind::kStackKeyPtr
                  ? map->key_size()
                  : map->value_size());
          const std::int64_t at =
              arg.off + static_cast<std::int64_t>(arg.var.ConstValue());
          CONCORD_RETURN_IF_ERROR(
              CheckStackRange(pc, insn, at, at + size, true, state));
          break;
        }
      }
    }

    used_capabilities_ |= helper->capabilities;
    if (static_cast<std::uint32_t>(insn.imm) == kHelperGetCsEwmaNs) {
      program_.calls_get_cs_ewma_ns = true;
    }

    // Record the constant map index each lookup site resolves to; the JIT
    // inlines per-CPU array lookups only for sites where every verified path
    // agrees on the map.
    if (static_cast<std::uint32_t>(insn.imm) == kHelperMapLookupElem &&
        have_map_index) {
      std::int32_t& site = map_lookup_sites_[pc];
      const std::int32_t index = static_cast<std::int32_t>(pending_map_index);
      if (site == Program::kNoMapSite) {
        site = index;
      } else if (site != index) {
        site = Program::kPolymorphicMapSite;
      }
    }

    if (analysis_ != nullptr) {
      if (std::find(analysis_->helpers_called.begin(),
                    analysis_->helpers_called.end(),
                    static_cast<std::uint32_t>(insn.imm)) ==
          analysis_->helpers_called.end()) {
        analysis_->helpers_called.push_back(
            static_cast<std::uint32_t>(insn.imm));
      }
      if ((helper->capabilities & kCapMapWrite) != 0) {
        analysis_->writes_map = true;
      }
      for (int r = 6; r <= 9; ++r) {
        if (state.regs[r].type == RegType::kPtrToCtx) {
          analysis_->ctx_ptr_across_call_pcs.push_back(pc);
          break;
        }
      }
    }

    // Call clobbers r1-r5; r0 takes the helper's return type.
    for (int r = 1; r <= 5; ++r) {
      state.regs[r] = RegState::Uninit();
    }
    if (helper->ret == HelperRetKind::kMapValueOrNull) {
      RegState r0;
      r0.type = RegType::kMapValueOrNull;
      r0.map_index = pending_map_index;
      state.regs[kBpfReg0] = r0;
    } else {
      state.regs[kBpfReg0] = RegState::Scalar();
    }
    return Status::Ok();
  }

  // Forks the running path at a two-armed branch: the taken arm is queued,
  // the fall-through arm continues in place.
  Status Fork(std::size_t pc, const Insn& insn, PendingPath& path,
              AbstractState&& taken, std::size_t taken_pc,
              std::size_t fall_pc, std::vector<PendingPath>& pending) {
    ExploreNode& parent = nodes_[static_cast<std::size_t>(cur_node_)];
    ++parent.branches;
    const int taken_node = NewNode(cur_node_, taken_pc);
    const int fall_node = NewNode(cur_node_, fall_pc);

    PendingPath forked{std::move(taken), taken_node, path.trips};
    forked.state.pc = taken_pc;
    if (taken_pc <= pc) {
      CONCORD_RETURN_IF_ERROR(CountTrip(pc, insn, forked.trips));
    }
    pending.push_back(std::move(forked));

    cur_node_ = fall_node;
    path.state.pc = fall_pc;
    return Status::Ok();
  }

  Status StepCondJmp(std::size_t pc, const Insn& insn, PendingPath& path,
                     std::vector<PendingPath>& pending, bool& path_done) {
    AbstractState& state = path.state;
    const std::uint8_t op = insn.JmpOp();
    const RegState& dst = state.regs[insn.dst];
    if (dst.type == RegType::kUninit) {
      return PermissionDeniedError(
          At(pc, insn, "branch on uninitialized register"));
    }
    RegState src = insn.UsesSrcReg()
                       ? state.regs[insn.src]
                       : RegState::Known(static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(insn.imm)));
    if (insn.UsesSrcReg() && src.type == RegType::kUninit) {
      return PermissionDeniedError(
          At(pc, insn, "branch on uninitialized register"));
    }

    const std::size_t taken_pc = pc + 1 + insn.off;
    const std::size_t fall_pc = pc + 1;
    const bool is32 = insn.Class() == kBpfClassJmp32;

    // Null-check refinement for MAP_VALUE_OR_NULL. Only the 64-bit compare
    // counts: a 32-bit view of a pointer being zero proves nothing.
    const bool null_test = !is32 && (op == kBpfJeq || op == kBpfJne) &&
                           !insn.UsesSrcReg() && insn.imm == 0 &&
                           dst.type == RegType::kMapValueOrNull;
    if (null_test) {
      RegState non_null;
      non_null.type = RegType::kPtrToMapValue;
      non_null.map_index = dst.map_index;

      AbstractState taken = state;
      if (op == kBpfJeq) {  // taken => null
        taken.regs[insn.dst] = RegState::Known(0);
        state.regs[insn.dst] = non_null;
      } else {  // JNE: taken => non-null
        taken.regs[insn.dst] = non_null;
        state.regs[insn.dst] = RegState::Known(0);
      }
      return Fork(pc, insn, path, std::move(taken), taken_pc, fall_pc,
                  pending);
    }

    if (dst.IsPointer() || src.IsPointer()) {
      return PermissionDeniedError(
          At(pc, insn, "comparisons involving pointers are not allowed"));
    }

    // Decide the branch from the tracked ranges where possible; this prunes
    // dead arms and is what terminates counter-bounded loops.
    const BranchOutcome outcome = EvalBranch(op, is32, dst.var, src.var);
    if (outcome == BranchOutcome::kAlways) {
      return Goto(pc, insn, taken_pc, path);
    }
    if (outcome == BranchOutcome::kNever) {
      state.pc = fall_pc;
      return Status::Ok();
    }

    // Both arms look feasible: refine each under its branch assumption. A
    // refinement contradiction (tnum vs interval) kills that arm after all.
    AbstractState taken = state;
    ScalarValue taken_imm = src.var;
    ScalarValue fall_imm = src.var;
    const bool taken_ok = RefineBranch(
        op, /*taken=*/true, is32, taken.regs[insn.dst].var,
        insn.UsesSrcReg() ? taken.regs[insn.src].var : taken_imm);
    const bool fall_ok = RefineBranch(
        op, /*taken=*/false, is32, state.regs[insn.dst].var,
        insn.UsesSrcReg() ? state.regs[insn.src].var : fall_imm);

    if (taken_ok && fall_ok) {
      return Fork(pc, insn, path, std::move(taken), taken_pc, fall_pc,
                  pending);
    }
    if (taken_ok) {
      state = std::move(taken);
      return Goto(pc, insn, taken_pc, path);
    }
    if (fall_ok) {
      state.pc = fall_pc;
      return Status::Ok();
    }
    // Neither arm is feasible: the ranges reaching this compare are
    // contradictory, i.e. the instruction is unreachable. Retire the path.
    CompletePath(cur_node_);
    path_done = true;
    return Status::Ok();
  }

  Program& program_;
  const Verifier::Options& options_;
  Verifier::Analysis* analysis_;
  std::vector<std::int32_t> map_lookup_sites_;
  std::vector<bool> imm64_second_;
  LoopAnalysis loops_;
  std::uint32_t used_capabilities_ = 0;

  std::vector<ExploreNode> nodes_;
  int cur_node_ = 0;
  std::size_t states_processed_ = 0;
  std::vector<std::size_t> header_visits_;
  // Every checkpoint node, keyed by AbstractState::Hash() of its snapshot.
  std::unordered_multimap<std::uint64_t, int> checkpoints_by_hash_;
  // Per pc: the checkpoint nodes whose subtrees are fully explored, the only
  // ones pruning may use.
  std::vector<std::vector<int>> completed_snapshots_;
  std::vector<std::uint64_t> loop_trip_max_;
};

}  // namespace

Status Verifier::Verify(Program& program, const Options& options,
                        Analysis* analysis) {
  program.verified = false;
  program.used_capabilities = 0;
  program.ctx_fields_read = 0;
  program.calls_get_cs_ewma_ns = false;
  program.map_lookup_sites.clear();
  VerifierImpl impl(program, options, analysis);
  CONCORD_RETURN_IF_ERROR(impl.Run());
  program.used_capabilities = impl.used_capabilities();
  program.map_lookup_sites = impl.TakeMapLookupSites();
  program.verified = true;
  return Status::Ok();
}

}  // namespace concord
