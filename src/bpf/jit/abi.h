// ABI of JIT-compiled policy programs on x86-64.
//
// The contract between the template JIT (jit.cc), the interpreter it must
// agree with bit-for-bit (src/bpf/vm.cc), and the helper functions both tiers
// call. Compiled code is a normal System-V function:
//
//   std::uint64_t entry(void* ctx, VmEnv* env);
//
// so hook trampolines can call it like any C function. Inside, BPF registers
// live in fixed x86-64 registers, chosen (as in the kernel's JIT) so that a
// BPF helper call needs *no* argument shuffling:
//
//   BPF   x86-64   role
//   r0    rax      return value / helper result
//   r1    rdi      ctx on entry; helper arg 1  (SysV arg 1)
//   r2    rsi      helper arg 2                (SysV arg 2)
//   r3    rdx      helper arg 3                (SysV arg 3)
//   r4    rcx      helper arg 4                (SysV arg 4)
//   r5    r8       helper arg 5                (SysV arg 5)
//   r6    rbx      callee-saved
//   r7    r13      callee-saved
//   r8    r14      callee-saved
//   r9    r15      callee-saved
//   r10   rbp      frame pointer (read-only; callee-saved)
//
// r11 (and, inside the div/mod sequence, the saved rax/rdx pair) is the
// JIT's scratch register; no BPF register maps to rsp/r12, so memory
// operands never need a SIB byte except the rsp-relative env slot below.
//
// Frame layout after the prologue (rsp is 16-byte aligned here, so helper
// call sites meet the SysV stack-alignment rule with no extra padding):
//
//   [rsp + 0   .. rsp + 511]   the program's 512-byte BPF stack
//   [rsp + 512]                saved VmEnv* (reloaded into r9, SysV arg 6,
//                              before every helper call — HelperFn's final
//                              VmEnv& parameter)
//   [rsp + 520]                padding to keep the frame a multiple of 16
//
// BPF r10 (rbp) points at rsp+512, the *end* of the stack region, matching
// the interpreter's `stack + kBpfStackSize`; verified programs only ever
// access [r10-512, r10), i.e. [rsp, rsp+512).

#ifndef SRC_BPF_JIT_ABI_H_
#define SRC_BPF_JIT_ABI_H_

#include <cstdint>

#include "src/bpf/insn.h"

// The backend exists only on x86-64; elsewhere Jit::Supported() is false and
// every Compile() fails cleanly.
#if defined(__x86_64__)
#define CONCORD_JIT_SUPPORTED 1
#else
#define CONCORD_JIT_SUPPORTED 0
#endif

namespace concord {
namespace jit {

// x86-64 register numbers (the 4-bit ModRM/REX encoding).
inline constexpr std::uint8_t kRax = 0;
inline constexpr std::uint8_t kRcx = 1;
inline constexpr std::uint8_t kRdx = 2;
inline constexpr std::uint8_t kRbx = 3;
inline constexpr std::uint8_t kRsp = 4;
inline constexpr std::uint8_t kRbp = 5;
inline constexpr std::uint8_t kRsi = 6;
inline constexpr std::uint8_t kRdi = 7;
inline constexpr std::uint8_t kR8 = 8;
inline constexpr std::uint8_t kR9 = 9;
inline constexpr std::uint8_t kR10 = 10;
inline constexpr std::uint8_t kR11 = 11;
inline constexpr std::uint8_t kR13 = 13;
inline constexpr std::uint8_t kR14 = 14;
inline constexpr std::uint8_t kR15 = 15;

// BPF r0..r10 -> x86-64 register (see table above).
inline constexpr std::uint8_t kBpfToX86[kBpfNumRegs] = {
    kRax, kRdi, kRsi, kRdx, kRcx, kR8, kRbx, kR13, kR14, kR15, kRbp};

// Stack frame: BPF stack, then the VmEnv* slot, then padding to 16.
inline constexpr std::int32_t kEnvSlotOffset = kBpfStackSize;        // 512
inline constexpr std::int32_t kFrameSize = kBpfStackSize + 16;       // 528

}  // namespace jit
}  // namespace concord

#endif  // SRC_BPF_JIT_ABI_H_
