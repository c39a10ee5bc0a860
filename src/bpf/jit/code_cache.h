// W^X executable-memory cache for JIT-compiled policy programs.
//
// Lifecycle of a compiled program's code, enforced so that no page is ever
// writable and executable at the same time:
//
//   1. CodeCache::Publish mmaps a fresh anonymous PROT_READ|PROT_WRITE
//      region and copies the emitted bytes in,
//   2. the region is sealed with mprotect(PROT_READ|PROT_EXEC),
//   3. the returned ExecutableCode handle owns the mapping; dropping the
//      handle munmaps it.
//
// Handles are owned (via JitProgram, via Program) by the policy spec that
// was attached, so code lives exactly as long as some attached or in-flight
// copy of the program references it — the RCU grace period in
// Concord::ReinstallLocked guarantees no lock is still executing the old
// table when the last reference drops.

#ifndef SRC_BPF_JIT_CODE_CACHE_H_
#define SRC_BPF_JIT_CODE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/base/status.h"

namespace concord {
namespace jit {

// Owning handle to one sealed (read+execute) code region.
class ExecutableCode {
 public:
  ExecutableCode() = default;
  ExecutableCode(void* base, std::size_t map_len, std::size_t code_len)
      : base_(base), map_len_(map_len), code_len_(code_len) {}
  ~ExecutableCode();

  ExecutableCode(const ExecutableCode&) = delete;
  ExecutableCode& operator=(const ExecutableCode&) = delete;
  ExecutableCode(ExecutableCode&& other) noexcept { *this = std::move(other); }
  ExecutableCode& operator=(ExecutableCode&& other) noexcept;

  bool valid() const { return base_ != nullptr; }
  const void* entry() const { return base_; }
  // The emitted bytes (the region is PROT_READ|PROT_EXEC, so reading for
  // disassembly/dumping is fine).
  const std::uint8_t* data() const {
    return static_cast<const std::uint8_t*>(base_);
  }
  std::size_t code_size() const { return code_len_; }

 private:
  void Release();

  void* base_ = nullptr;
  std::size_t map_len_ = 0;
  std::size_t code_len_ = 0;
};

// Process-wide allocator for executable regions; tracks how much native code
// is live for introspection and tests.
class CodeCache {
 public:
  static CodeCache& Global();

  // Copies `len` bytes of machine code into a fresh mapping and seals it
  // PROT_READ|PROT_EXEC. Fails if the kernel refuses the mapping (e.g. a
  // hardened W^X-less environment); callers fall back to the interpreter.
  StatusOr<ExecutableCode> Publish(const std::uint8_t* code, std::size_t len);

  struct Stats {
    std::uint64_t programs_published = 0;  // lifetime count
    std::uint64_t code_bytes = 0;          // lifetime emitted bytes
    std::uint64_t mapped_bytes = 0;        // lifetime page-rounded bytes
  };
  Stats stats() const;

 private:
  CodeCache() = default;

  std::atomic<std::uint64_t> programs_{0};
  std::atomic<std::uint64_t> code_bytes_{0};
  std::atomic<std::uint64_t> mapped_bytes_{0};
};

}  // namespace jit
}  // namespace concord

#endif  // SRC_BPF_JIT_CODE_CACHE_H_
