#include "quicksand/runtime/proclet.h"

#include "quicksand/runtime/runtime.h"

namespace quicksand {

const char* ProcletKindName(ProcletKind kind) {
  switch (kind) {
    case ProcletKind::kCompute:
      return "compute";
    case ProcletKind::kMemory:
      return "memory";
    case ProcletKind::kStorage:
      return "storage";
  }
  return "unknown";
}

bool ProcletBase::TryChargeHeap(int64_t bytes) {
  QS_CHECK(bytes >= 0);
  if (lost_) {
    // The hosting machine is gone; bytes written to a lost proclet vanish
    // with it. Accepting the charge (without accounting) keeps callers'
    // rollback invariants intact — the data loss surfaces through
    // ProcletLostError on the next invocation, not through a phantom OOM.
    return true;
  }
  if (!rt_->cluster().machine(location_).memory().TryCharge(bytes)) {
    return false;
  }
  heap_bytes_ += bytes;
  return true;
}

void ProcletBase::ReleaseHeap(int64_t bytes) {
  QS_CHECK(bytes >= 0);
  if (lost_) {
    return;  // accounting was zeroed wholesale when the machine died
  }
  QS_CHECK_MSG(bytes <= heap_bytes_, "releasing more heap than the proclet holds");
  rt_->cluster().machine(location_).memory().Release(bytes);
  heap_bytes_ -= bytes;
}

Task<bool> ProcletBase::EnterCall() {
  while (gate_closed_ && !destroyed_) {
    co_await gate_waiters_.Park();
  }
  if (destroyed_) {
    co_return false;
  }
  ++active_calls_;
  ++invocation_count_;
  last_invocation_ = gate_waiters_.sim().Now();
  co_return true;
}

void ProcletBase::ExitCall() {
  QS_CHECK(active_calls_ > 0);
  if (--active_calls_ == 0) {
    drain_waiters_.WakeAll();
  }
}

Task<> ProcletBase::CloseGateAndDrain() {
  QS_CHECK_MSG(!gate_closed_, "gate already closed");
  gate_closed_ = true;
  OnGateClose();
  while (active_calls_ > 0) {
    co_await drain_waiters_.Park();
  }
}

void ProcletBase::OpenGate() {
  QS_CHECK(gate_closed_);
  gate_closed_ = false;
  gate_waiters_.WakeAll();
}

void ProcletBase::MarkDestroyed() {
  destroyed_ = true;
  gate_waiters_.WakeAll();
}

void ProcletBase::MarkLost() {
  if (lost_) {
    return;
  }
  lost_ = true;
  OnLost();
  heap_bytes_ = 0;
  MarkDestroyed();
  // Drain waiters (a migration or destroy mid-drain) must also wake: the
  // calls they were waiting out died with the machine.
  drain_waiters_.WakeAll();
}

}  // namespace quicksand
