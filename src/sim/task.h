// Minimal coroutine task type with symmetric transfer.
//
// Simulated threads (vthreads) are coroutines: `SimTask F()` bodies co_await
// engine awaitables (delays, simulated memory operations) and other SimTasks
// (e.g. `co_await lock.Lock(cpu)`). Awaiting a SimTask suspends the caller
// and resumes it when the callee finishes, via symmetric transfer so deep
// call chains do not grow the host stack.

#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

namespace concord {

template <typename T>
class SimTask;

namespace sim_internal {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    std::coroutine_handle<> continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

template <typename T>
struct SimPromiseBase {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { std::terminate(); }
};

}  // namespace sim_internal

template <typename T = void>
class [[nodiscard]] SimTask {
 public:
  struct promise_type : sim_internal::SimPromiseBase<T> {
    T value{};
    SimTask get_return_object() {
      return SimTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  SimTask() = default;
  explicit SimTask(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  SimTask(SimTask&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() { Destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
    handle_.promise().continuation = caller;
    return handle_;
  }
  T await_resume() { return std::move(handle_.promise().value); }

  std::coroutine_handle<> handle() const { return handle_; }
  bool done() const { return handle_ == nullptr || handle_.done(); }
  // Detaches ownership (used by the engine for root tasks it tracks itself).
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, {});
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] SimTask<void> {
 public:
  struct promise_type : sim_internal::SimPromiseBase<void> {
    SimTask get_return_object() {
      return SimTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  SimTask() = default;
  explicit SimTask(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  SimTask(SimTask&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() { Destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
    handle_.promise().continuation = caller;
    return handle_;
  }
  void await_resume() {}

  std::coroutine_handle<promise_type> handle() const { return handle_; }
  bool done() const { return handle_ == nullptr || handle_.done(); }
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, {});
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace concord

#endif  // SRC_SIM_TASK_H_
