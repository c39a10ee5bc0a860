// Textual assembler for policy programs.
//
// This is the "C-style code" surface of the paper made concrete: users write
// a policy as text, the assembler produces bytecode, and the verifier decides
// whether it may attach. Grammar (one instruction per line):
//
//   line      := [label ':'] [insn] [';' comment]
//   insn      := alu | mem | jmp | 'call' name_or_id | 'exit'
//   alu       := op reg ',' (reg | imm)          ; op in mov add sub mul div
//                                                 ; or and xor lsh rsh arsh
//                                                 ; mod neg  (neg takes 1 op)
//                 op may carry a '32' suffix for 32-bit ALU, e.g. 'add32'
//   mem       := 'ldx'sz reg ',' '[' reg sign off ']'
//              | 'stx'sz '[' reg sign off ']' ',' reg
//              | 'st'sz  '[' reg sign off ']' ',' imm
//              | 'lddw' reg ',' imm64
//   sz        := 'b' | 'h' | 'w' | 'dw'
//   jmp       := 'ja' target
//              | jop reg ',' (reg | imm) ',' target
//   jop       := jeq jne jgt jge jlt jle jsgt jsge jslt jsle jset
//   target    := label name
//   reg       := 'r0' .. 'r10'
//
// Map declarations (`.map` directives) let a policy source carry its own
// state instead of relying on maps the host passes in:
//
//   .map name, array,        value_size, max_entries
//   .map name, percpu_array, value_size, max_entries
//   .map name, hash,         key_size, value_size, max_entries
//   .map name, percpu_hash,  key_size, value_size, max_entries
//
// Declared maps are appended to the program's map table after any maps the
// caller passed, in declaration order; per-CPU kinds size themselves to the
// machine topology. Ownership lands in the caller's `declared_maps` sink —
// sources using `.map` are rejected when the caller passes none.
//
// Example — a NUMA-grouping cmp_node policy:
//
//     ldxw r2, [r1+0]      ; shuffler socket
//     ldxw r3, [r1+4]      ; candidate socket
//     jeq  r2, r3, same
//     mov  r0, 0
//     exit
//   same:
//     mov  r0, 1
//     exit

#ifndef SRC_BPF_ASSEMBLER_H_
#define SRC_BPF_ASSEMBLER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/bpf/program.h"

namespace concord {

// Assembles `source` into a program named `name` against `ctx_desc`.
// `maps` become the head of the program's map table (referenced by index
// from helper calls); maps created by `.map` directives follow them and
// their ownership is appended to `*declared_maps` (the caller must keep
// them alive as long as the program — PolicySpec::maps is the usual home).
// The result is NOT verified; run Verifier::Verify next.
StatusOr<Program> AssembleProgram(
    const std::string& name, const std::string& source,
    const ContextDescriptor* ctx_desc, std::vector<BpfMap*> maps = {},
    std::vector<std::shared_ptr<BpfMap>>* declared_maps = nullptr);

// True when `source` carries `.map` directives. LoadPolicy
// (src/concord/policy_source.h), the one host that injects a default map
// for legacy sources, skips the injection for such sources: the author laid
// out the map table themselves, and their indices start at 0.
bool SourceDeclaresMaps(const std::string& source);

}  // namespace concord

#endif  // SRC_BPF_ASSEMBLER_H_
