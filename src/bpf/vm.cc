#include "src/bpf/vm.h"

#include <cstring>

#include "src/base/check.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

std::uint64_t LoadSized(const void* addr, int width) {
  switch (width) {
    case 1: {
      std::uint8_t v;
      std::memcpy(&v, addr, 1);
      return v;
    }
    case 2: {
      std::uint16_t v;
      std::memcpy(&v, addr, 2);
      return v;
    }
    case 4: {
      std::uint32_t v;
      std::memcpy(&v, addr, 4);
      return v;
    }
    default: {
      std::uint64_t v;
      std::memcpy(&v, addr, 8);
      return v;
    }
  }
}

void StoreSized(void* addr, int width, std::uint64_t value) {
  switch (width) {
    case 1: {
      const std::uint8_t v = static_cast<std::uint8_t>(value);
      std::memcpy(addr, &v, 1);
      return;
    }
    case 2: {
      const std::uint16_t v = static_cast<std::uint16_t>(value);
      std::memcpy(addr, &v, 2);
      return;
    }
    case 4: {
      const std::uint32_t v = static_cast<std::uint32_t>(value);
      std::memcpy(addr, &v, 4);
      return;
    }
    default:
      std::memcpy(addr, &value, 8);
      return;
  }
}

std::uint64_t AluOp64(std::uint8_t op, std::uint64_t dst, std::uint64_t src,
                      bool is64 = true) {
  const unsigned shift_mask = is64 ? 63 : 31;
  switch (op) {
    case kBpfAdd:
      return dst + src;
    case kBpfSub:
      return dst - src;
    case kBpfMul:
      return dst * src;
    case kBpfDiv:
      return src == 0 ? 0 : dst / src;  // div-by-zero yields 0, as in eBPF
    case kBpfOr:
      return dst | src;
    case kBpfAnd:
      return dst & src;
    case kBpfLsh:
      return dst << (src & shift_mask);
    case kBpfRsh:
      return dst >> (src & shift_mask);
    case kBpfNeg:
      return 0 - dst;  // two's complement; INT64_MIN negates to itself
    case kBpfMod:
      return src == 0 ? dst : dst % src;
    case kBpfXor:
      return dst ^ src;
    case kBpfMov:
      return src;
    case kBpfArsh:
      if (!is64) {
        // 32-bit arithmetic shift sign-extends from bit 31.
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(
            static_cast<std::int32_t>(dst) >> (src & shift_mask)));
      }
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(dst) >>
                                        (src & shift_mask));
    default:
      CONCORD_CHECK(false && "unreachable ALU op");
      return 0;
  }
}

bool JmpTaken(std::uint8_t op, std::uint64_t dst, std::uint64_t src) {
  const auto sdst = static_cast<std::int64_t>(dst);
  const auto ssrc = static_cast<std::int64_t>(src);
  switch (op) {
    case kBpfJeq:
      return dst == src;
    case kBpfJgt:
      return dst > src;
    case kBpfJge:
      return dst >= src;
    case kBpfJset:
      return (dst & src) != 0;
    case kBpfJne:
      return dst != src;
    case kBpfJsgt:
      return sdst > ssrc;
    case kBpfJsge:
      return sdst >= ssrc;
    case kBpfJlt:
      return dst < src;
    case kBpfJle:
      return dst <= src;
    case kBpfJslt:
      return sdst < ssrc;
    case kBpfJsle:
      return sdst <= ssrc;
    default:
      CONCORD_CHECK(false && "unreachable JMP op");
      return false;
  }
}

}  // namespace

std::uint64_t BpfVm::Run(const Program& program, void* ctx, void* hook_data,
                         std::uint64_t* steps_out) {
  CONCORD_CHECK(program.verified);

  std::uint64_t regs[kBpfNumRegs] = {};
  alignas(8) std::uint8_t stack[kBpfStackSize];
  regs[kBpfReg1] = reinterpret_cast<std::uint64_t>(ctx);
  regs[kBpfReg10] = reinterpret_cast<std::uint64_t>(stack + kBpfStackSize);

  VmEnv env;
  env.program = &program;
  env.hook_data = hook_data;
  env.cpu = Self().vcpu;

  const Insn* insns = program.insns.data();
  const std::size_t count = program.insns.size();
  std::size_t pc = 0;
  std::uint64_t steps = 0;

  while (true) {
    CONCORD_CHECK(pc < count);
    CONCORD_CHECK(++steps <= kInsnBudget);
    const Insn& insn = insns[pc];
    const std::uint8_t cls = insn.Class();

    switch (cls) {
      case kBpfClassAlu64: {
        const std::uint64_t src = insn.UsesSrcReg()
                                      ? regs[insn.src]
                                      : static_cast<std::uint64_t>(
                                            static_cast<std::int64_t>(insn.imm));
        regs[insn.dst] = AluOp64(insn.AluOp(), regs[insn.dst], src);
        ++pc;
        break;
      }
      case kBpfClassAlu32: {
        const std::uint64_t src =
            insn.UsesSrcReg()
                ? (regs[insn.src] & 0xffffffffull)
                : static_cast<std::uint64_t>(static_cast<std::uint32_t>(insn.imm));
        const std::uint64_t result =
            AluOp64(insn.AluOp(), regs[insn.dst] & 0xffffffffull, src,
                    /*is64=*/false);
        regs[insn.dst] = result & 0xffffffffull;  // 32-bit ops zero-extend
        ++pc;
        break;
      }
      case kBpfClassLdx: {
        const int width = ByteWidth(insn.Size());
        const auto* addr =
            reinterpret_cast<const void*>(regs[insn.src] + insn.off);
        regs[insn.dst] = LoadSized(addr, width);
        ++pc;
        break;
      }
      case kBpfClassStx: {
        const int width = ByteWidth(insn.Size());
        auto* addr = reinterpret_cast<void*>(regs[insn.dst] + insn.off);
        if (insn.Mode() == kBpfModeAtomic) {
          if (width == 8) {
            __atomic_fetch_add(reinterpret_cast<std::uint64_t*>(addr),
                               regs[insn.src], __ATOMIC_RELAXED);
          } else {
            __atomic_fetch_add(reinterpret_cast<std::uint32_t*>(addr),
                               static_cast<std::uint32_t>(regs[insn.src]),
                               __ATOMIC_RELAXED);
          }
        } else {
          StoreSized(addr, width, regs[insn.src]);
        }
        ++pc;
        break;
      }
      case kBpfClassSt: {
        const int width = ByteWidth(insn.Size());
        auto* addr = reinterpret_cast<void*>(regs[insn.dst] + insn.off);
        StoreSized(addr, width,
                   static_cast<std::uint64_t>(static_cast<std::int64_t>(insn.imm)));
        ++pc;
        break;
      }
      case kBpfClassLd: {
        // Only LD_IMM64 reaches here (verifier enforces).
        const std::uint64_t lo = static_cast<std::uint32_t>(insn.imm);
        const std::uint64_t hi = static_cast<std::uint32_t>(insns[pc + 1].imm);
        regs[insn.dst] = lo | (hi << 32);
        pc += 2;
        break;
      }
      case kBpfClassJmp32: {
        const std::uint8_t op = insn.JmpOp();
        const std::uint64_t src =
            insn.UsesSrcReg()
                ? (regs[insn.src] & 0xffffffffull)
                : static_cast<std::uint64_t>(static_cast<std::uint32_t>(insn.imm));
        // Signed forms compare the sign-extended 32-bit views.
        const std::uint64_t dst32 = regs[insn.dst] & 0xffffffffull;
        const std::uint64_t sdst = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(dst32)));
        const std::uint64_t ssrc = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(src)));
        const bool is_signed = op == kBpfJsgt || op == kBpfJsge ||
                               op == kBpfJslt || op == kBpfJsle;
        const bool taken = is_signed ? JmpTaken(op, sdst, ssrc)
                                     : JmpTaken(op, dst32, src);
        if (taken) {
          pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 +
                                        insn.off);
        } else {
          ++pc;
        }
        break;
      }
      case kBpfClassJmp: {
        const std::uint8_t op = insn.JmpOp();
        if (op == kBpfExit) {
          if (steps_out != nullptr) {
            *steps_out = steps;
          }
          return regs[kBpfReg0];
        }
        if (op == kBpfCall) {
          const HelperDef* helper =
              HelperRegistry::Global().Find(static_cast<std::uint32_t>(insn.imm));
          CONCORD_CHECK(helper != nullptr);
          regs[kBpfReg0] = helper->fn(regs[1], regs[2], regs[3], regs[4], regs[5],
                                      env);
          // R1-R5 are clobbered by calls, as in eBPF.
          regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0;
          ++pc;
          break;
        }
        if (op == kBpfJa) {
          pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 +
                                        insn.off);
          break;
        }
        const std::uint64_t src = insn.UsesSrcReg()
                                      ? regs[insn.src]
                                      : static_cast<std::uint64_t>(
                                            static_cast<std::int64_t>(insn.imm));
        if (JmpTaken(op, regs[insn.dst], src)) {
          pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 +
                                        insn.off);
        } else {
          ++pc;
        }
        break;
      }
      default:
        CONCORD_CHECK(false && "unreachable instruction class");
    }
  }
}

}  // namespace concord
