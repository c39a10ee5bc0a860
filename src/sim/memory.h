// Simulated shared memory: one cache line per SimWord.
//
// Every operation is an awaitable that charges coherence-realistic latency:
//   - hit (requester owns / shares the line):        local_hit_ns
//   - miss served by a sibling core's cache:         same_socket_ns
//   - miss served across the interconnect:           remote_ns
// Misses and all mutations serialize on the line (`busy_until_`), which is
// what makes centralized locks collapse at high core counts in the
// simulation, exactly as on hardware.
//
// Spinning is modeled the way hardware behaves, not the way software is
// written: a spin loop on real silicon parks on its local cache copy until
// an invalidation arrives. SpinUntil therefore suspends the vthread on a
// waiter list and wakes it (charging the reload miss) when a mutation makes
// its predicate true — no per-iteration events.

#ifndef SRC_SIM_MEMORY_H_
#define SRC_SIM_MEMORY_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/engine.h"

namespace concord {

class SimWord {
 public:
  SimWord(SimEngine& engine, std::uint64_t initial = 0)
      : engine_(engine), value_(initial) {}
  SimWord(const SimWord&) = delete;
  SimWord& operator=(const SimWord&) = delete;

  // Unsimulated peek for harness/statistics code (no cost, no wakeups).
  std::uint64_t PeekValue() const { return value_; }

  // --- awaitable operations ------------------------------------------------
  // All awaitables resolve after the modeled latency; mutations apply at
  // completion time, in line-serialization order.

  auto Load() { return OpAwaiter(this, OpKind::kLoad, 0, 0); }
  auto Store(std::uint64_t v) { return OpAwaiter(this, OpKind::kStore, v, 0); }
  auto FetchAdd(std::uint64_t delta) {
    return OpAwaiter(this, OpKind::kFetchAdd, delta, 0);
  }
  auto Exchange(std::uint64_t v) {
    return OpAwaiter(this, OpKind::kExchange, v, 0);
  }
  // Resolves to 1 on success (old value == expected), else 0.
  auto CompareExchange(std::uint64_t expected, std::uint64_t desired) {
    return OpAwaiter(this, OpKind::kCas, desired, expected);
  }

  // Suspends until pred(value) holds; resolves to the satisfying value.
  // If it already holds, costs one load.
  auto SpinUntil(std::function<bool(std::uint64_t)> pred) {
    return SpinAwaiter(this, std::move(pred));
  }

 private:
  enum class OpKind { kLoad, kStore, kFetchAdd, kExchange, kCas };

  struct Waiter {
    std::coroutine_handle<> handle;
    std::uint32_t cpu;
    std::function<bool(std::uint64_t)> pred;
    std::uint64_t observed = 0;  // value that satisfied pred
  };

  // Latency for an access by `cpu`, and ownership-state update.
  std::uint64_t AccessCost(std::uint32_t cpu, bool is_write) {
    const SimConfig& config = engine_.config();
    const std::uint32_t socket = config.SocketOf(cpu);
    const std::uint32_t socket_bit = 1u << (socket % 32);
    std::uint64_t cost;
    if (!is_write) {
      if (owner_cpu_ == static_cast<std::int64_t>(cpu) ||
          (sharers_ & socket_bit) != 0) {
        cost = config.local_hit_ns;
      } else if (owner_socket_ == static_cast<std::int64_t>(socket)) {
        cost = config.same_socket_ns;
      } else {
        cost = config.remote_ns;
      }
      sharers_ |= socket_bit;
    } else {
      if (owner_cpu_ == static_cast<std::int64_t>(cpu) && sharers_ == socket_bit) {
        cost = config.local_hit_ns;
      } else if (owner_socket_ == static_cast<std::int64_t>(socket) &&
                 (sharers_ & ~socket_bit) == 0) {
        cost = config.same_socket_ns;
      } else {
        cost = config.remote_ns;  // invalidate other sockets + fetch
      }
      owner_cpu_ = cpu;
      owner_socket_ = socket;
      sharers_ = socket_bit;
    }
    return cost;
  }

  // Applies a mutation now (completion time) and wakes satisfied spinners.
  // Every registered spinner refetches the invalidated line (that is what
  // spinning hardware does), so each one — woken or not — adds a line
  // transfer to the serial distribution chain. This is the mechanism that
  // makes centralized spin locks collapse with waiter count in the
  // simulation: the handoff reload queues behind O(waiters) refetches.
  void ApplyAndWake(std::uint64_t new_value) {
    value_ = new_value;
    if (waiters_.empty()) {
      return;
    }
    std::vector<Waiter> keep;
    keep.reserve(waiters_.size());
    const SimConfig& config = engine_.config();
    const std::uint32_t writer_socket = engine_.current_socket();
    std::uint64_t stagger = 0;
    for (Waiter& waiter : waiters_) {
      // Refetch by this spinner: cheap if it sits on the writer's socket —
      // this distance term is where NUMA-aware handoff policies win.
      stagger += config.SocketOf(waiter.cpu) == writer_socket
                     ? config.same_socket_ns
                     : config.remote_ns;
      if (waiter.pred(value_)) {
        engine_.ScheduleAt(engine_.now() + stagger, waiter.cpu, waiter.handle);
      } else {
        keep.push_back(std::move(waiter));
      }
    }
    waiters_ = std::move(keep);
    const std::uint64_t line_free = engine_.now() + stagger;
    if (line_free > busy_until_) {
      busy_until_ = line_free;
    }
  }

  struct OpAwaiter {
    SimWord* word;
    OpKind kind;
    std::uint64_t arg;       // store value / add delta / CAS desired
    std::uint64_t expected;  // CAS expected
    std::uint64_t result = 0;

    OpAwaiter(SimWord* w, OpKind k, std::uint64_t a, std::uint64_t e)
        : word(w), kind(k), arg(a), expected(e) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      SimEngine& engine = word->engine_;
      const std::uint32_t cpu = engine.current_cpu();
      const bool is_write = kind != OpKind::kLoad;
      const std::uint64_t cost = word->AccessCost(cpu, is_write);
      std::uint64_t start = engine.now();
      // Misses and mutations serialize on the line.
      const bool serializes = is_write || cost > engine.config().local_hit_ns;
      if (serializes && word->busy_until_ > start) {
        start = word->busy_until_;
      }
      const std::uint64_t done = start + cost;
      if (serializes) {
        word->busy_until_ = done;
      }
      // Defer the mutation to completion via a completion record: we model
      // it by scheduling a small trampoline — but since completions are
      // serialized in `busy_until_` order and the engine pops events in
      // time order, applying at resume is equivalent; OpAwaiter::await_resume
      // runs exactly at `done`.
      completion_time = done;
      engine.ScheduleAt(done, cpu, handle);
    }
    std::uint64_t await_resume() {
      switch (kind) {
        case OpKind::kLoad:
          result = word->value_;
          break;
        case OpKind::kStore:
          result = 0;
          word->ApplyAndWake(arg);
          break;
        case OpKind::kFetchAdd:
          result = word->value_;
          word->ApplyAndWake(word->value_ + arg);
          break;
        case OpKind::kExchange:
          result = word->value_;
          word->ApplyAndWake(arg);
          break;
        case OpKind::kCas:
          if (word->value_ == expected) {
            word->ApplyAndWake(arg);
            result = 1;
          } else {
            result = 0;
          }
          break;
      }
      return result;
    }

    std::uint64_t completion_time = 0;
  };

  struct SpinAwaiter {
    SimWord* word;
    std::function<bool(std::uint64_t)> pred;
    bool immediate = false;

    SpinAwaiter(SimWord* w, std::function<bool(std::uint64_t)> p)
        : word(w), pred(std::move(p)) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      SimEngine& engine = word->engine_;
      const std::uint32_t cpu = engine.current_cpu();
      if (pred(word->value_)) {
        // Satisfied already: charge one load.
        const std::uint64_t cost = word->AccessCost(cpu, /*is_write=*/false);
        engine.ScheduleAt(engine.now() + cost, cpu, handle);
        immediate = true;
        return;
      }
      word->waiters_.push_back(Waiter{handle, cpu, pred, 0});
    }
    std::uint64_t await_resume() { return word->value_; }
  };

  SimEngine& engine_;
  std::uint64_t value_;
  std::uint64_t busy_until_ = 0;
  std::int64_t owner_cpu_ = -1;
  std::int64_t owner_socket_ = -1;
  std::uint32_t sharers_ = 0;
  std::vector<Waiter> waiters_;
};

}  // namespace concord

#endif  // SRC_SIM_MEMORY_H_
