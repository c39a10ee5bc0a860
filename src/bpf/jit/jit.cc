// x86-64 template JIT backend.
//
// One forward pass over the verified bytecode, expanding each BPF
// instruction into a fixed x86-64 template (see abi.h for the register map
// and frame layout). Branches are resolved in a patch pass at the end —
// every BPF jump becomes a rel32 jmp/jcc whose displacement is filled in
// once all instruction offsets are known.
//
// The only runtime branches the templates add beyond the bytecode's own are
// the divide-by-zero guards, which mirror the interpreter exactly
// (src/bpf/vm.cc AluOp64): div by 0 yields 0, mod by 0 leaves dst unchanged
// (its 32-bit view for ALU32). Everything else the verifier proved — bounds,
// alignment, termination, helper signatures — is inherited, so templates
// carry no checks.
//
// x86 subtleties this file is careful about (each covered by jit_test.cc):
//  - 32-bit ALU results must zero-extend to 64 bits. Most 32-bit x86 ops do
//    this for free; shifts whose (masked) count is zero do NOT write the
//    destination register at all, so 32-bit shifts are followed by a
//    self-`mov r32, r32` that forces the zero-extension.
//  - shift-by-register needs the count in CL; three aliasing cases (src is
//    rcx / dst is rcx / neither) each save and restore around it.
//  - div/mod uses rdx:rax implicitly; the template preserves both and writes
//    the destination last so dst==rax / dst==rdx alias correctly.
//  - byte stores of rdi/rsi/rbp need a REX prefix to select dil/sil/bpl
//    (without one, those encodings mean ah/ch/dh).
//  - no BPF register lives in rsp/r12, so memory operands never need a SIB
//    byte; the only SIB in emitted code is the rsp-relative VmEnv* slot.

#include "src/bpf/jit/jit.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/fault.h"
#include "src/bpf/helpers.h"
#include "src/bpf/insn.h"

namespace concord {
namespace {

using namespace jit;  // NOLINT(build/namespaces) — register names, ABI consts

// -1 = follow the environment; 0/1 = forced by SetEnabledOverride.
int g_enabled_override = -1;

bool EnvEnabled() {
  const char* v = std::getenv("CONCORD_JIT");
  if (v == nullptr) {
    return true;
  }
  return std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "false") != 0;
}

#if CONCORD_JIT_SUPPORTED

class CodeBuffer {
 public:
  void U8(std::uint8_t b) { bytes_.push_back(b); }
  void U16(std::uint16_t v) {
    U8(static_cast<std::uint8_t>(v));
    U8(static_cast<std::uint8_t>(v >> 8));
  }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      U8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      U8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void Patch8(std::size_t pos, std::uint8_t v) { bytes_[pos] = v; }
  void Patch32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  std::size_t size() const { return bytes_.size(); }
  const std::uint8_t* data() const { return bytes_.data(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Compiler {
 public:
  explicit Compiler(const Program& program) : program_(program) {}

  StatusOr<ExecutableCode> Compile() {
    const std::vector<Insn>& insns = program_.insns;
    const std::size_t count = insns.size();
    // pc_off_[pc] = native offset of BPF instruction pc; the extra slot at
    // [count] is the epilogue, the branch target of every `exit`.
    pc_off_.assign(count + 1, 0);

    EmitPrologue();

    for (std::size_t pc = 0; pc < count; ++pc) {
      pc_off_[pc] = buf_.size();
      const Insn& insn = insns[pc];
      switch (insn.Class()) {
        case kBpfClassAlu64:
        case kBpfClassAlu32:
          CONCORD_RETURN_IF_ERROR(EmitAlu(insn));
          break;
        case kBpfClassLdx:
          EmitLoad(insn.Size(), kBpfToX86[insn.dst], kBpfToX86[insn.src],
                   insn.off);
          break;
        case kBpfClassStx:
          if (insn.Mode() == kBpfModeAtomic) {
            EmitAtomicAdd(insn.Size() == kBpfSizeDw, kBpfToX86[insn.dst],
                          kBpfToX86[insn.src], insn.off);
          } else {
            EmitStoreReg(insn.Size(), kBpfToX86[insn.dst], kBpfToX86[insn.src],
                         insn.off);
          }
          break;
        case kBpfClassSt:
          EmitStoreImm(insn.Size(), kBpfToX86[insn.dst], insn.off, insn.imm);
          break;
        case kBpfClassLd: {
          // Only LD_IMM64 (verifier-enforced); consumes two slots.
          if (pc + 1 >= count) {
            return InvalidArgumentError("truncated lddw");
          }
          const std::uint64_t lo = static_cast<std::uint32_t>(insn.imm);
          const std::uint64_t hi =
              static_cast<std::uint32_t>(insns[pc + 1].imm);
          MovImm64(kBpfToX86[insn.dst], lo | (hi << 32));
          ++pc;
          pc_off_[pc] = buf_.size();  // never a branch target, but keep sane
          break;
        }
        case kBpfClassJmp:
        case kBpfClassJmp32: {
          const std::uint8_t op = insn.JmpOp();
          if (op == kBpfExit) {
            JmpRel32(count);
          } else if (op == kBpfCall) {
            CONCORD_RETURN_IF_ERROR(EmitCall(pc, insn));
          } else {
            CONCORD_RETURN_IF_ERROR(EmitJmp(insn, pc, count));
          }
          break;
        }
        default:
          return InvalidArgumentError("jit: unsupported instruction class");
      }
    }
    pc_off_[count] = buf_.size();
    EmitEpilogue();

    for (const Fixup& f : fixups_) {
      const std::int64_t rel =
          static_cast<std::int64_t>(pc_off_[f.target_pc]) -
          static_cast<std::int64_t>(f.pos + 4);
      buf_.Patch32(f.pos, static_cast<std::uint32_t>(rel));
    }

    return CodeCache::Global().Publish(buf_.data(), buf_.size());
  }

 private:
  struct Fixup {
    std::size_t pos;        // offset of the rel32 field to patch
    std::size_t target_pc;  // BPF pc it must land on (count = epilogue)
  };

  // --- encoding primitives ---------------------------------------------------

  void Rex(bool w, std::uint8_t reg, std::uint8_t rm, bool force = false) {
    std::uint8_t rex = 0x40;
    if (w) rex |= 0x08;
    if (reg & 8) rex |= 0x04;
    if (rm & 8) rex |= 0x01;
    if (rex != 0x40 || force) buf_.U8(rex);
  }
  void ModRM(std::uint8_t mod, std::uint8_t reg, std::uint8_t rm) {
    buf_.U8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  // [base + disp32]; base must not be rsp/r12 (would need a SIB byte) — no
  // BPF register maps there, see abi.h.
  void MemOp(std::uint8_t reg, std::uint8_t base, std::int32_t disp) {
    CONCORD_DCHECK((base & 7) != kRsp);
    ModRM(2, reg, base);
    buf_.U32(static_cast<std::uint32_t>(disp));
  }

  // Register-register ALU, store-form opcode (add 0x01, sub 0x29, or 0x09,
  // and 0x21, xor 0x31, cmp 0x39, mov 0x89, test 0x85): op dst, src.
  void AluRR(std::uint8_t opcode, bool w, std::uint8_t src, std::uint8_t dst) {
    Rex(w, src, dst);
    buf_.U8(opcode);
    ModRM(3, src, dst);
  }
  // 81 /ext with imm32 (add 0, or 1, and 4, sub 5, xor 6, cmp 7). With REX.W
  // the immediate sign-extends to 64 bits, matching the interpreter's
  // (s64)imm operand.
  void AluImm(std::uint8_t ext, bool w, std::uint8_t dst, std::int32_t imm) {
    Rex(w, 0, dst);
    buf_.U8(0x81);
    ModRM(3, ext, dst);
    buf_.U32(static_cast<std::uint32_t>(imm));
  }
  void MovRR(bool w, std::uint8_t src, std::uint8_t dst) {
    AluRR(0x89, w, src, dst);
  }
  // mov r32, imm32 — zero-extends, the ALU32 mov-imm semantics.
  void MovImm32(std::uint8_t dst, std::uint32_t imm) {
    Rex(false, 0, dst);
    buf_.U8(static_cast<std::uint8_t>(0xb8 | (dst & 7)));
    buf_.U32(imm);
  }
  // mov r64, imm32 sign-extended — the ALU64 mov-imm semantics.
  void MovImmSx(std::uint8_t dst, std::int32_t imm) {
    Rex(true, 0, dst);
    buf_.U8(0xc7);
    ModRM(3, 0, dst);
    buf_.U32(static_cast<std::uint32_t>(imm));
  }
  // Arbitrary 64-bit constant, in the shortest encoding that preserves it.
  void MovImm64(std::uint8_t dst, std::uint64_t imm) {
    if (imm <= 0xffffffffull) {
      MovImm32(dst, static_cast<std::uint32_t>(imm));
    } else if (static_cast<std::int64_t>(imm) ==
               static_cast<std::int32_t>(imm)) {
      MovImmSx(dst, static_cast<std::int32_t>(imm));
    } else {
      Rex(true, 0, dst);
      buf_.U8(static_cast<std::uint8_t>(0xb8 | (dst & 7)));
      buf_.U64(imm);
    }
  }
  // Self-mov of the 32-bit view: unconditionally writes the register, so the
  // upper 32 bits are zeroed even when a prior 32-bit shift was a no-op.
  void ZeroExtend32(std::uint8_t reg) { MovRR(false, reg, reg); }
  void XorZero(std::uint8_t reg) { AluRR(0x31, false, reg, reg); }

  void EmitLoad(std::uint8_t size, std::uint8_t dst, std::uint8_t base,
                std::int32_t disp) {
    switch (size) {
      case kBpfSizeB:  // movzx r32, m8 — zero-extends to 64
        Rex(false, dst, base);
        buf_.U8(0x0f);
        buf_.U8(0xb6);
        MemOp(dst, base, disp);
        break;
      case kBpfSizeH:  // movzx r32, m16
        Rex(false, dst, base);
        buf_.U8(0x0f);
        buf_.U8(0xb7);
        MemOp(dst, base, disp);
        break;
      case kBpfSizeW:  // mov r32, m32 — zero-extends
        Rex(false, dst, base);
        buf_.U8(0x8b);
        MemOp(dst, base, disp);
        break;
      default:  // mov r64, m64
        Rex(true, dst, base);
        buf_.U8(0x8b);
        MemOp(dst, base, disp);
        break;
    }
  }
  void EmitStoreReg(std::uint8_t size, std::uint8_t base, std::uint8_t src,
                    std::int32_t disp) {
    switch (size) {
      case kBpfSizeB:
        // Forced REX so rdi/rsi/rbp encode dil/sil/bpl, not ah/dh/ch.
        Rex(false, src, base, /*force=*/true);
        buf_.U8(0x88);
        MemOp(src, base, disp);
        break;
      case kBpfSizeH:
        buf_.U8(0x66);  // operand-size prefix precedes REX
        Rex(false, src, base);
        buf_.U8(0x89);
        MemOp(src, base, disp);
        break;
      case kBpfSizeW:
        Rex(false, src, base);
        buf_.U8(0x89);
        MemOp(src, base, disp);
        break;
      default:
        Rex(true, src, base);
        buf_.U8(0x89);
        MemOp(src, base, disp);
        break;
    }
  }
  void EmitStoreImm(std::uint8_t size, std::uint8_t base, std::int32_t disp,
                    std::int32_t imm) {
    switch (size) {
      case kBpfSizeB:
        Rex(false, 0, base);
        buf_.U8(0xc6);
        MemOp(0, base, disp);
        buf_.U8(static_cast<std::uint8_t>(imm));
        break;
      case kBpfSizeH:
        buf_.U8(0x66);
        Rex(false, 0, base);
        buf_.U8(0xc7);
        MemOp(0, base, disp);
        buf_.U16(static_cast<std::uint16_t>(imm));
        break;
      case kBpfSizeW:
        Rex(false, 0, base);
        buf_.U8(0xc7);
        MemOp(0, base, disp);
        buf_.U32(static_cast<std::uint32_t>(imm));
        break;
      default:
        // REX.W C7 sign-extends imm32, matching the interpreter's (s64)imm
        // double-word store.
        Rex(true, 0, base);
        buf_.U8(0xc7);
        MemOp(0, base, disp);
        buf_.U32(static_cast<std::uint32_t>(imm));
        break;
    }
  }
  void EmitAtomicAdd(bool w, std::uint8_t base, std::uint8_t src,
                     std::int32_t disp) {
    buf_.U8(0xf0);  // lock (precedes REX)
    Rex(w, src, base);
    buf_.U8(0x01);
    MemOp(src, base, disp);
  }

  // mov/lea through the only SIB-addressed slot: [rsp + disp].
  void LoadRsp(std::uint8_t dst, std::int32_t disp) {
    Rex(true, dst, kRsp);
    buf_.U8(0x8b);
    ModRM(2, dst, 4);
    buf_.U8(0x24);  // SIB: scale 1, no index, base rsp
    buf_.U32(static_cast<std::uint32_t>(disp));
  }
  void StoreRsp(std::int32_t disp, std::uint8_t src) {
    Rex(true, src, kRsp);
    buf_.U8(0x89);
    ModRM(2, src, 4);
    buf_.U8(0x24);
    buf_.U32(static_cast<std::uint32_t>(disp));
  }
  void LeaRsp(std::uint8_t dst, std::int32_t disp) {
    Rex(true, dst, kRsp);
    buf_.U8(0x8d);
    ModRM(2, dst, 4);
    buf_.U8(0x24);
    buf_.U32(static_cast<std::uint32_t>(disp));
  }

  void Push(std::uint8_t reg) {
    if (reg & 8) buf_.U8(0x41);
    buf_.U8(static_cast<std::uint8_t>(0x50 | (reg & 7)));
  }
  void Pop(std::uint8_t reg) {
    if (reg & 8) buf_.U8(0x41);
    buf_.U8(static_cast<std::uint8_t>(0x58 | (reg & 7)));
  }
  void SubRsp(std::int32_t n) {
    Rex(true, 0, kRsp);
    buf_.U8(0x81);
    ModRM(3, 5, kRsp);
    buf_.U32(static_cast<std::uint32_t>(n));
  }
  void AddRsp(std::int32_t n) {
    Rex(true, 0, kRsp);
    buf_.U8(0x81);
    ModRM(3, 0, kRsp);
    buf_.U32(static_cast<std::uint32_t>(n));
  }
  void CallRax() {
    buf_.U8(0xff);
    buf_.U8(0xd0);
  }
  void Ret() { buf_.U8(0xc3); }

  void NegReg(bool w, std::uint8_t dst) {  // f7 /3
    Rex(w, 0, dst);
    buf_.U8(0xf7);
    ModRM(3, 3, dst);
  }
  void ImulRR(bool w, std::uint8_t dst, std::uint8_t src) {  // 0f af /r
    Rex(w, dst, src);
    buf_.U8(0x0f);
    buf_.U8(0xaf);
    ModRM(3, dst, src);
  }
  void ImulImm(bool w, std::uint8_t dst, std::int32_t imm) {  // 69 /r imm32
    Rex(w, dst, dst);
    buf_.U8(0x69);
    ModRM(3, dst, dst);
    buf_.U32(static_cast<std::uint32_t>(imm));
  }
  void DivByR11(bool w) {  // f7 /6: unsigned rdx:rax / r11
    Rex(w, 0, kR11);
    buf_.U8(0xf7);
    ModRM(3, 6, kR11);
  }
  void TestRR(bool w, std::uint8_t a, std::uint8_t b) { AluRR(0x85, w, a, b); }
  void TestImm(bool w, std::uint8_t dst, std::int32_t imm) {  // f7 /0 imm32
    Rex(w, 0, dst);
    buf_.U8(0xf7);
    ModRM(3, 0, dst);
    buf_.U32(static_cast<std::uint32_t>(imm));
  }
  void ShiftImm(bool w, std::uint8_t ext, std::uint8_t dst,
                std::uint8_t count) {  // c1 /ext imm8
    Rex(w, 0, dst);
    buf_.U8(0xc1);
    ModRM(3, ext, dst);
    buf_.U8(count);
  }
  void ShiftCl(bool w, std::uint8_t ext, std::uint8_t dst) {  // d3 /ext
    Rex(w, 0, dst);
    buf_.U8(0xd3);
    ModRM(3, ext, dst);
  }

  // Short (rel8) branches for intra-template control flow only.
  std::size_t JeShort() {
    buf_.U8(0x74);
    buf_.U8(0);
    return buf_.size() - 1;
  }
  // Generic short jcc; `cc8` is the one-byte condition opcode (0x72 jb,
  // 0x73 jae, 0x75 jne, ...).
  std::size_t JccShort(std::uint8_t cc8) {
    buf_.U8(cc8);
    buf_.U8(0);
    return buf_.size() - 1;
  }
  // cmp dword [base + disp], imm8 (0x83 /7) — the inline-lookup guards.
  void CmpMem32Imm8(std::uint8_t base, std::int32_t disp, std::int8_t imm) {
    Rex(false, 0, base);
    buf_.U8(0x83);
    MemOp(7, base, disp);
    buf_.U8(static_cast<std::uint8_t>(imm));
  }
  std::size_t JmpShort() {
    buf_.U8(0xeb);
    buf_.U8(0);
    return buf_.size() - 1;
  }
  void BindShort(std::size_t pos) {
    const std::size_t rel = buf_.size() - (pos + 1);
    CONCORD_CHECK(rel <= 127);
    buf_.Patch8(pos, static_cast<std::uint8_t>(rel));
  }

  // BPF-level branches: rel32, resolved in the final patch pass.
  void JmpRel32(std::size_t target_pc) {
    buf_.U8(0xe9);
    fixups_.push_back({buf_.size(), target_pc});
    buf_.U32(0);
  }
  void JccRel32(std::uint8_t cc, std::size_t target_pc) {
    buf_.U8(0x0f);
    buf_.U8(cc);
    fixups_.push_back({buf_.size(), target_pc});
    buf_.U32(0);
  }

  // --- per-instruction templates --------------------------------------------

  Status EmitAlu(const Insn& insn) {
    const bool w = insn.Class() == kBpfClassAlu64;
    const std::uint8_t d = kBpfToX86[insn.dst];
    const std::uint8_t op = insn.AluOp();

    switch (op) {
      case kBpfNeg:
        NegReg(w, d);  // 32-bit form zero-extends
        return Status::Ok();
      case kBpfDiv:
      case kBpfMod:
        return EmitDivMod(insn, w, d);
      case kBpfLsh:
      case kBpfRsh:
      case kBpfArsh:
        return EmitShift(insn, w, d);
      default:
        break;
    }

    if (insn.UsesSrcReg()) {
      const std::uint8_t s = kBpfToX86[insn.src];
      switch (op) {
        case kBpfAdd:
          AluRR(0x01, w, s, d);
          break;
        case kBpfSub:
          AluRR(0x29, w, s, d);
          break;
        case kBpfOr:
          AluRR(0x09, w, s, d);
          break;
        case kBpfAnd:
          AluRR(0x21, w, s, d);
          break;
        case kBpfXor:
          AluRR(0x31, w, s, d);
          break;
        case kBpfMov:
          MovRR(w, s, d);
          break;
        case kBpfMul:
          ImulRR(w, d, s);
          break;
        default:
          return InvalidArgumentError("jit: unsupported ALU op");
      }
    } else {
      switch (op) {
        case kBpfAdd:
          AluImm(0, w, d, insn.imm);
          break;
        case kBpfSub:
          AluImm(5, w, d, insn.imm);
          break;
        case kBpfOr:
          AluImm(1, w, d, insn.imm);
          break;
        case kBpfAnd:
          AluImm(4, w, d, insn.imm);
          break;
        case kBpfXor:
          AluImm(6, w, d, insn.imm);
          break;
        case kBpfMov:
          if (w) {
            MovImmSx(d, insn.imm);
          } else {
            MovImm32(d, static_cast<std::uint32_t>(insn.imm));
          }
          break;
        case kBpfMul:
          // imul r, r, imm32 sign-extends the immediate — low bits of the
          // product match the interpreter's dst * (s64)imm for both widths.
          ImulImm(w, d, insn.imm);
          break;
        default:
          return InvalidArgumentError("jit: unsupported ALU op");
      }
    }
    return Status::Ok();
  }

  // div/mod, preserving rax/rdx and mirroring the interpreter's zero-divisor
  // behavior: div by 0 -> 0; mod by 0 -> dst unchanged (32-bit view for
  // ALU32). The destination is written last so dst aliasing rax/rdx works.
  Status EmitDivMod(const Insn& insn, bool w, std::uint8_t d) {
    const bool is_mod = insn.AluOp() == kBpfMod;

    // Divisor into r11 before anything else gets clobbered. The 32-bit
    // moves zero-extend, giving the interpreter's (u32) operand views.
    if (insn.UsesSrcReg()) {
      MovRR(w, kBpfToX86[insn.src], kR11);
    } else if (w) {
      MovImmSx(kR11, insn.imm);
    } else {
      MovImm32(kR11, static_cast<std::uint32_t>(insn.imm));
    }

    Push(kRax);
    Push(kRdx);
    MovRR(w, d, kRax);  // dividend (self-mov zero-extends when d==rax, !w)

    TestRR(w, kR11, kR11);
    const std::size_t on_zero = JeShort();
    XorZero(kRdx);
    DivByR11(w);  // quotient -> rax, remainder -> rdx
    MovRR(w, is_mod ? kRdx : kRax, kR11);
    const std::size_t done = JmpShort();
    BindShort(on_zero);
    if (is_mod) {
      MovRR(w, kRax, kR11);  // rax still holds the (possibly masked) dividend
    } else {
      XorZero(kR11);
    }
    BindShort(done);

    Pop(kRdx);
    Pop(kRax);
    MovRR(w, kR11, d);  // after the pops: d may be rax or rdx
    return Status::Ok();
  }

  Status EmitShift(const Insn& insn, bool w, std::uint8_t d) {
    std::uint8_t ext;
    switch (insn.AluOp()) {
      case kBpfLsh:
        ext = 4;  // shl
        break;
      case kBpfRsh:
        ext = 5;  // shr
        break;
      default:
        ext = 7;  // sar
        break;
    }

    if (!insn.UsesSrcReg()) {
      const std::uint8_t count =
          static_cast<std::uint8_t>(insn.imm) & (w ? 63 : 31);
      if (count != 0) {
        ShiftImm(w, ext, d, count);  // 32-bit form zero-extends
      } else if (!w) {
        // Count 0 still zero-extends in BPF: dst = (u32)dst.
        ZeroExtend32(d);
      }
      return Status::Ok();
    }

    // Register count: x86 shifts take the count in CL and mask it by 63/31
    // exactly as BPF does. Three aliasing cases around rcx (BPF r4):
    const std::uint8_t s = kBpfToX86[insn.src];
    if (s == kRcx) {
      // Count already in CL (sampled before the write, so d==rcx is fine).
      ShiftCl(w, ext, d);
      if (!w) ZeroExtend32(d);  // CL may have masked to 0: force the extend
    } else if (d == kRcx) {
      MovRR(true, kRcx, kR11);  // value out of the way
      MovRR(true, s, kRcx);     // count into CL
      ShiftCl(w, ext, kR11);
      MovRR(w, kR11, kRcx);  // 32-bit form re-extends even if count was 0
    } else {
      MovRR(true, kRcx, kR11);  // save caller's rcx (BPF r4)
      MovRR(true, s, kRcx);
      ShiftCl(w, ext, d);
      if (!w) ZeroExtend32(d);
      MovRR(true, kR11, kRcx);  // restore
    }
    return Status::Ok();
  }

  Status EmitJmp(const Insn& insn, std::size_t pc, std::size_t count) {
    const bool w = insn.Class() == kBpfClassJmp;
    const std::size_t target = static_cast<std::size_t>(
        static_cast<std::int64_t>(pc) + 1 + insn.off);
    if (target >= count) {
      return InvalidArgumentError("jit: branch target out of range");
    }
    const std::uint8_t op = insn.JmpOp();

    if (op == kBpfJa) {
      JmpRel32(target);
      return Status::Ok();
    }

    const std::uint8_t d = kBpfToX86[insn.dst];
    if (op == kBpfJset) {
      if (insn.UsesSrcReg()) {
        TestRR(w, kBpfToX86[insn.src], d);
      } else {
        TestImm(w, d, insn.imm);  // REX.W form sign-extends, as (s64)imm
      }
      JccRel32(0x85, target);  // jne
      return Status::Ok();
    }

    // cmp at the BPF width: 32-bit cmp gives exactly the interpreter's
    // unsigned-on-(u32) and signed-on-(s32) orderings via the usual flags.
    if (insn.UsesSrcReg()) {
      AluRR(0x39, w, kBpfToX86[insn.src], d);
    } else {
      AluImm(7, w, d, insn.imm);
    }
    std::uint8_t cc;
    switch (op) {
      case kBpfJeq:
        cc = 0x84;  // je
        break;
      case kBpfJne:
        cc = 0x85;  // jne
        break;
      case kBpfJgt:
        cc = 0x87;  // ja
        break;
      case kBpfJge:
        cc = 0x83;  // jae
        break;
      case kBpfJlt:
        cc = 0x82;  // jb
        break;
      case kBpfJle:
        cc = 0x86;  // jbe
        break;
      case kBpfJsgt:
        cc = 0x8f;  // jg
        break;
      case kBpfJsge:
        cc = 0x8d;  // jge
        break;
      case kBpfJslt:
        cc = 0x8c;  // jl
        break;
      case kBpfJsle:
        cc = 0x8e;  // jle
        break;
      default:
        return InvalidArgumentError("jit: unsupported JMP op");
    }
    JccRel32(cc, target);
    return Status::Ok();
  }

  Status EmitCall(std::size_t pc, const Insn& insn) {
    const HelperDef* helper = HelperRegistry::Global().Find(
        static_cast<std::uint32_t>(insn.imm));
    if (helper == nullptr || helper->fn == nullptr) {
      return InvalidArgumentError("jit: call to unregistered helper");
    }
    if (static_cast<std::uint32_t>(insn.imm) == kHelperMapLookupElem &&
        EmitInlinePerCpuLookup(pc, helper)) {
      return Status::Ok();
    }
    // BPF r1..r5 already sit in the SysV argument registers (see abi.h), so
    // the call shim is just: arg 6 = VmEnv*, target, call.
    LoadRsp(kR9, kEnvSlotOffset);
    MovImm64(kRax, reinterpret_cast<std::uint64_t>(helper->fn));
    CallRax();
    // Interpreter parity: calls clobber r1-r5 to zero.
    XorZero(kRdi);
    XorZero(kRsi);
    XorZero(kRdx);
    XorZero(kRcx);
    XorZero(kR8);
    return Status::Ok();
  }

  // Per-CPU array lookups with a verifier-proven constant map index compile
  // to a direct slot-address computation — no helper call, no map lock:
  //
  //     eax  = *(u32*)r2                 ; the key the program built on stack
  //     if (eax >= max_entries) r0 = 0   ; the helper's miss result
  //     r11d = env->cpu                  ; set once per invocation (jit.h)
  //     if (r11d >= num_cpus) goto slow  ; helper's modulo path, rare
  //     r0   = base + (r11*max + eax)*stride
  //
  // The slow label is the ordinary helper call, also taken (in fault-
  // injection builds) while ANY fault point is armed so bpf.map_lookup
  // keeps firing deterministically. Returns true when inlined; false means
  // the site is polymorphic / not a per-CPU array and the caller emits the
  // regular call.
  bool EmitInlinePerCpuLookup(std::size_t pc, const HelperDef* helper) {
    if (pc >= program_.map_lookup_sites.size()) {
      return false;
    }
    const std::int32_t site = program_.map_lookup_sites[pc];
    if (site < 0 ||
        static_cast<std::size_t>(site) >= program_.maps.size()) {
      return false;
    }
    BpfMap* map = program_.maps[static_cast<std::size_t>(site)];
    if (map->type() != MapType::kPerCpuArray) {
      return false;
    }
    auto* percpu = static_cast<PerCpuArrayMap*>(map);
    const auto max_entries = static_cast<std::int32_t>(percpu->max_entries());
    const auto num_cpus = static_cast<std::int32_t>(percpu->num_cpus());
    const auto stride = static_cast<std::int32_t>(percpu->stride());

    std::vector<std::size_t> to_slow;
    std::vector<std::size_t> to_done;
#if CONCORD_FAULT_INJECTION
    MovImm64(kR11, reinterpret_cast<std::uint64_t>(
                       FaultRegistry::Global().armed_flag()));
    CmpMem32Imm8(kR11, 0, 0);
    to_slow.push_back(JccShort(0x75));  // jne: a fault is armed
#endif
    EmitLoad(kBpfSizeW, kRax, kRsi, 0);  // eax = u32 key (r2 = key ptr)
    AluImm(7, false, kRax, max_entries);
    const std::size_t to_miss = JccShort(0x73);  // jae: index out of range
    LoadRsp(kR11, kEnvSlotOffset);
    EmitLoad(kBpfSizeW, kR11, kR11,
             static_cast<std::int32_t>(offsetof(VmEnv, cpu)));
    AluImm(7, false, kR11, num_cpus);
    to_slow.push_back(JccShort(0x73));  // jae: let the helper take cpu % n
    ImulImm(true, kR11, max_entries);
    AluRR(0x01, true, kRax, kR11);  // r11 = cpu * max_entries + index
    ImulImm(true, kR11, stride);
    MovImm64(kRax, reinterpret_cast<std::uint64_t>(percpu->slot_base()));
    AluRR(0x01, true, kR11, kRax);  // rax = slot address
    to_done.push_back(JmpShort());

    BindShort(to_miss);
    XorZero(kRax);  // miss: r0 = NULL, as the helper returns
    to_done.push_back(JmpShort());

    for (std::size_t pos : to_slow) {
      BindShort(pos);
    }
    LoadRsp(kR9, kEnvSlotOffset);
    MovImm64(kRax, reinterpret_cast<std::uint64_t>(helper->fn));
    CallRax();

    for (std::size_t pos : to_done) {
      BindShort(pos);
    }
    // Interpreter parity: calls clobber r1-r5 to zero (all paths).
    XorZero(kRdi);
    XorZero(kRsi);
    XorZero(kRdx);
    XorZero(kRcx);
    XorZero(kR8);
    return true;
  }

  void EmitPrologue() {
    // endbr64: CET landing pad, a NOP on CPUs without it.
    buf_.U8(0xf3);
    buf_.U8(0x0f);
    buf_.U8(0x1e);
    buf_.U8(0xfa);
    // Entry: rdi = ctx (stays put — it IS BPF r1), rsi = VmEnv*.
    Push(kRbp);
    Push(kRbx);
    Push(kR13);
    Push(kR14);
    Push(kR15);  // rsp now 16-byte aligned; kFrameSize keeps it so
    SubRsp(kFrameSize);
    StoreRsp(kEnvSlotOffset, kRsi);  // before rsi is zeroed below
    LeaRsp(kRbp, kEnvSlotOffset);    // BPF r10 = end of the 512-byte stack
    // Interpreter parity: all registers but r1/r10 start at zero.
    XorZero(kRax);  // r0
    XorZero(kRsi);  // r2
    XorZero(kRdx);  // r3
    XorZero(kRcx);  // r4
    XorZero(kR8);   // r5
    XorZero(kRbx);  // r6
    XorZero(kR13);  // r7
    XorZero(kR14);  // r8
    XorZero(kR15);  // r9
  }
  void EmitEpilogue() {
    AddRsp(kFrameSize);
    Pop(kR15);
    Pop(kR14);
    Pop(kR13);
    Pop(kRbx);
    Pop(kRbp);
    Ret();
  }

  const Program& program_;
  CodeBuffer buf_;
  std::vector<std::size_t> pc_off_;
  std::vector<Fixup> fixups_;
};

#endif  // CONCORD_JIT_SUPPORTED

}  // namespace

bool Jit::Supported() { return CONCORD_JIT_SUPPORTED != 0; }

bool Jit::Enabled() {
  if (!Supported()) {
    return false;
  }
  if (g_enabled_override >= 0) {
    return g_enabled_override != 0;
  }
  return EnvEnabled();
}

int Jit::SetEnabledOverride(int state) {
  const int prev = g_enabled_override;
  g_enabled_override = state;
  return prev;
}

StatusOr<std::shared_ptr<const JitProgram>> Jit::Compile(
    const Program& program) {
#if CONCORD_JIT_SUPPORTED
  CONCORD_CHECK(program.verified);
  if (CONCORD_FAULT_POINT("jit.compile")) {
    return InternalError("fault injection: jit.compile");
  }
  Compiler compiler(program);
  StatusOr<jit::ExecutableCode> code = compiler.Compile();
  if (!code.ok()) {
    return code.status();
  }
  return std::shared_ptr<const JitProgram>(
      std::make_shared<JitProgram>(std::move(code.value())));
#else
  (void)program;
  return FailedPreconditionError(
      "JIT backend not built (non-x86-64 target)");
#endif
}

std::string JitProgram::HexDump() const {
  std::string out;
  char tmp[32];
  const std::uint8_t* bytes = code();
  const std::size_t len = code_size();
  for (std::size_t i = 0; i < len; i += 16) {
    std::snprintf(tmp, sizeof(tmp), "%6zx:", i);
    out += tmp;
    const std::size_t end = std::min(i + 16, len);
    for (std::size_t j = i; j < end; ++j) {
      std::snprintf(tmp, sizeof(tmp), " %02x", bytes[j]);
      out += tmp;
    }
    out += '\n';
  }
  return out;
}

}  // namespace concord
