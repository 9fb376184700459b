#include "quicksand/sim/fiber.h"

#include "quicksand/sim/simulator.h"

namespace quicksand {

namespace {

// The awaiter is the wait-list node: it lives in Join()'s coroutine frame for
// the whole suspension, so enqueueing is a pointer append with no allocation.
struct JoinAwaiter {
  internal::FiberState& state;
  internal::JoinWaiter node;

  bool await_ready() const noexcept { return state.done; }
  void await_suspend(std::coroutine_handle<> h) {
    node.handle = h;
    node.next = nullptr;
    if (state.join_tail != nullptr) {
      state.join_tail->next = &node;
    } else {
      state.join_head = &node;
    }
    state.join_tail = &node;
  }
  void await_resume() const noexcept {}
};

}  // namespace

Task<> Fiber::Join() {
  QS_CHECK_MSG(state_ != nullptr, "Join() on an empty Fiber");
  if (!state_->done) {
    co_await JoinAwaiter{*state_, {}};
  }
  if (state_->error) {
    std::rethrow_exception(state_->error);
  }
}

Task<> JoinAll(std::vector<Fiber> fibers) {
  for (Fiber& fiber : fibers) {
    co_await fiber.Join();
  }
}

}  // namespace quicksand
