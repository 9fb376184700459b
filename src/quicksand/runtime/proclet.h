// ProcletBase: the migratable unit of resource consumption.
//
// A proclet (following Nu [50]) is an independently schedulable unit with a
// heap and methods. Quicksand specializes proclets by resource: compute
// proclets consume CPU, memory proclets store data, storage proclets keep
// persistent objects (§3.1). This base class carries what all of them share:
//
//  * identity and current location,
//  * byte-accounted heap charged to the hosting machine,
//  * the invocation gate — method calls are blocked while the proclet is
//    being migrated, split, or merged (§3.3), and migration drains active
//    calls before copying the heap (calls parked inside the proclet are
//    released first, see OnGateClose),
//  * invocation statistics the scheduler uses (recency, affinity).
//
// Subclasses take a ProcletInit as their first constructor argument and
// forward it to ProcletBase; Runtime::Create is the only producer of
// ProcletInit values.

#ifndef QUICKSAND_RUNTIME_PROCLET_H_
#define QUICKSAND_RUNTIME_PROCLET_H_

#include <any>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "quicksand/cluster/machine.h"
#include "quicksand/common/status.h"
#include "quicksand/sim/task.h"
#include "quicksand/sim/wait_queue.h"

namespace quicksand {

class Runtime;
class ProcletBase;

// Deep-copied snapshot of a proclet's durable state, produced by
// ProcletBase::CaptureState and consumed by RestoreState on a freshly
// constructed object of the same concrete type. `data` is a per-type
// payload the two hooks agree on; `bytes` is the full serialized size the
// durability subsystem charges through the fabric and disk cost models.
// (Named StateImage, not Snapshot, to avoid colliding with
// ShardIndexProclet::Snapshot.)
struct StateImage {
  std::any data;
  int64_t bytes = 0;

  int64_t WireBytes() const { return bytes; }
};

// One logged mutation of a replicated proclet. `apply` replays the mutation
// against the backup object (same concrete type); `bytes` is the wire size
// of the log record shipped primary -> backup.
struct MutationRecord {
  std::function<Status(ProcletBase&)> apply;
  int64_t bytes = 0;
};

// Destination for a replicated proclet's mutation log. Implemented by the
// durability subsystem's ReplicationManager; declared here so Runtime::Invoke
// can flush the log without depending on durability headers.
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;

  // Ships `primary`'s pending mutation records to its backup. Runs inside
  // Runtime::Invoke after the call body completes (and after ExitCall), so
  // a durable-ack mode can suspend the invocation until the backup
  // acknowledged without holding the gate.
  virtual Task<> Flush(ProcletBase& primary) = 0;
};

using ProcletId = uint64_t;
inline constexpr ProcletId kInvalidProcletId = 0;

enum class ProcletKind { kCompute, kMemory, kStorage };

const char* ProcletKindName(ProcletKind kind);

// Opaque construction token passed from Runtime::Create to the proclet.
struct ProcletInit {
  Runtime* rt;
  Simulator* sim;
  ProcletId id;
  ProcletKind kind;
  MachineId location;
};

class ProcletBase {
 public:
  explicit ProcletBase(const ProcletInit& init)
      : rt_(init.rt),
        id_(init.id),
        kind_(init.kind),
        location_(init.location),
        gate_waiters_(*init.sim),
        drain_waiters_(*init.sim) {}

  virtual ~ProcletBase() = default;

  ProcletBase(const ProcletBase&) = delete;
  ProcletBase& operator=(const ProcletBase&) = delete;

  ProcletId id() const { return id_; }
  ProcletKind kind() const { return kind_; }
  MachineId location() const { return location_; }
  int64_t heap_bytes() const { return heap_bytes_; }

  // Fencing token: bumped by the Runtime on every directory rebind
  // (creation, migration flip, restore adoption). Proclet methods that
  // admit stamped requests compare the caller's stamp against this (see
  // health/fencing.h); 0 only before Create finishes wiring the object.
  uint64_t epoch() const { return epoch_; }
  // True when the controller declared this incarnation dead (gray failure /
  // partition) while the hosting machine may still be running: the object
  // must no longer serve or complete anything.
  bool fenced() const { return fenced_; }

  bool gate_closed() const { return gate_closed_; }
  int64_t active_calls() const { return active_calls_; }
  int64_t invocation_count() const { return invocation_count_; }
  SimTime last_invocation() const { return last_invocation_; }

  // True once the hosting machine crashed out from under this proclet. The
  // object lingers (the Runtime keeps it until teardown so in-flight
  // operations can observe the loss safely), but its state is gone: Find()
  // no longer returns it, invocations raise ProcletLostError, and heap
  // accounting becomes a no-op.
  bool lost() const { return lost_; }

  // True for proclets holding only soft state that can be dropped and
  // recomputed (memo cache shards). The EmergencyEvacuator and LocalReactor
  // reclaim these FIRST — dropping cache costs zero wire bytes, while
  // migrating live state races the revocation deadline — and never spend
  // migration budget moving them.
  virtual bool harvestable() const { return false; }

  // --- Heap accounting (call only from within a proclet method) ------------

  // Grows the heap, charging the hosting machine. Fails without side effects
  // if the machine is out of memory.
  bool TryChargeHeap(int64_t bytes);
  void ReleaseHeap(int64_t bytes);

  // --- Durability hooks -----------------------------------------------------
  // Types that override both hooks can be checkpointed and replicated; the
  // defaults make a proclet unprotectable (CheckpointManager::Protect and
  // ReplicationManager::Replicate refuse it).

  // Deep-copies the durable state. Returns nullopt when the type does not
  // support state capture (e.g. compute proclets, whose "state" is queued
  // closures recovered via DistPool lineage instead).
  virtual std::optional<StateImage> CaptureState() const { return std::nullopt; }

  // Rebuilds state from an image captured by the same concrete type,
  // re-charging the heap (and auxiliary resources such as disk capacity)
  // against the machine in this object's ProcletInit. Must be side-effect
  // free on failure.
  virtual Status RestoreState(const StateImage& image) {
    (void)image;
    return Status::FailedPrecondition("proclet type is not restorable");
  }

  // Bytes mutated since the last checkpoint — the incremental-checkpoint
  // wire cost. Maintained by RecordMutation; drained by the checkpoint
  // manager at capture time.
  int64_t dirty_bytes() const { return dirty_bytes_; }
  int64_t TakeDirtyBytes() { return std::exchange(dirty_bytes_, 0); }
  void AddDirtyBytes(int64_t bytes) { dirty_bytes_ += bytes; }

  bool replicated() const { return sink_ != nullptr; }
  bool checkpoint_protected() const { return checkpoint_protected_; }
  // Durable proclets must keep their identity and shape: shard maintenance
  // (split/merge) mutates state outside the invocation path the mutation log
  // observes, so it skips them.
  bool durable() const { return replicated() || checkpoint_protected_; }

  void AttachReplicationSink(ReplicationSink* sink) { sink_ = sink; }
  void DetachReplicationSink() {
    sink_ = nullptr;
    pending_mutations_.clear();
  }
  void SetCheckpointProtected(bool on) { checkpoint_protected_ = on; }

  bool has_pending_mutations() const { return !pending_mutations_.empty(); }
  std::vector<MutationRecord> TakePendingMutations() {
    return std::exchange(pending_mutations_, {});
  }
  ReplicationSink* replication_sink() const { return sink_; }

 protected:
  Runtime& runtime() const { return *rt_; }

  // --- Lifecycle hooks (overridden by resource proclets) --------------------

  // Called synchronously when the gate closes (Migrate, Destroy,
  // BeginMaintenance), before the drain waits out active calls. A proclet
  // whose methods park inside the call until another call changes its state
  // (a queue segment's blocking pop) must release them here, or the drain
  // waits on them forever; a released call returns, and its caller re-issues
  // it and follows the proclet to its new host. Must not suspend.
  virtual void OnGateClose() {}
  // Called with the gate closed and calls drained, before the heap is copied
  // for migration or released for destruction. Compute proclets use this to
  // let in-flight jobs finish so heap accounting stays consistent.
  virtual Task<> OnQuiesce() { co_return; }
  // Called after a migration completes (gate reopened).
  virtual void OnResume() {}
  // Called before destruction (after OnQuiesce); must stop background
  // fibers and release any auxiliary resources.
  virtual Task<> OnDestroy() { co_return; }

  // Extra bytes to ship during migration beyond the heap (e.g. a storage
  // proclet's on-disk objects).
  virtual int64_t MigrationExtraBytes() const { return 0; }
  // Reserve/release auxiliary per-machine resources (e.g. disk capacity)
  // around a relocation. TryRelocateAux must not have side effects on
  // failure.
  virtual bool TryRelocateAux(MachineId dst) { return true; }
  virtual void FinishRelocateAux(MachineId src) {}
  // Exact inverse of a successful TryRelocateAux(dst): releases the
  // destination-side reservation when a migration unwinds after reserving.
  virtual void UndoRelocateAux(MachineId dst) {}

  // Called synchronously when the hosting machine crashes, before the
  // Runtime zeroes the heap accounting. Must not suspend: wake/stop
  // background fibers so they exit on their own (the machine's cores are
  // already halted — joins would deadlock).
  virtual void OnLost() {}

  // Called by mutation methods. Accumulates incremental-checkpoint bytes
  // and, when a replication sink is attached, appends a replayable record
  // that Runtime::Invoke ships to the backup when the invocation completes.
  // Replay applies `apply` to the backup object, which re-runs the mutation
  // through the same methods — the backup has no sink, so recording there is
  // a no-op and the log does not recurse.
  void RecordMutation(std::function<Status(ProcletBase&)> apply,
                      int64_t bytes) {
    dirty_bytes_ += bytes;
    if (sink_ != nullptr) {
      pending_mutations_.push_back(MutationRecord{std::move(apply), bytes});
    }
  }

  // Dirty-bytes-only variant for checkpoint-eligible mutations that are not
  // log-shipped (e.g. storage proclets, which are checkpoint-only).
  void MarkDirty(int64_t bytes) { dirty_bytes_ += bytes; }

 private:
  friend class Runtime;

  // Invocation gate -----------------------------------------------------
  // Waits while the gate is closed; returns false if the proclet was
  // destroyed while waiting (the caller must not touch it afterwards).
  Task<bool> EnterCall();
  void ExitCall();
  // Closes the gate, releases parked calls (OnGateClose) and waits for
  // in-flight calls to finish. Pre: gate open.
  Task<> CloseGateAndDrain();
  void OpenGate();
  void MarkDestroyed();
  // Transitions to the lost state: runs OnLost, marks destroyed (waking
  // gate waiters so they observe the loss), and zeroes heap accounting
  // WITHOUT releasing it (the Runtime releases against the dead machine's
  // account wholesale). Idempotent.
  void MarkLost();

  Runtime* rt_;
  ProcletId id_;
  ProcletKind kind_;
  MachineId location_;
  int64_t heap_bytes_ = 0;
  uint64_t epoch_ = 0;
  bool gate_closed_ = false;
  bool destroyed_ = false;
  bool lost_ = false;
  bool fenced_ = false;
  int64_t active_calls_ = 0;
  int64_t invocation_count_ = 0;
  SimTime last_invocation_ = SimTime::Zero();
  int64_t dirty_bytes_ = 0;
  bool checkpoint_protected_ = false;
  ReplicationSink* sink_ = nullptr;
  std::vector<MutationRecord> pending_mutations_;
  WaitQueue gate_waiters_;
  WaitQueue drain_waiters_;
};

}  // namespace quicksand

#endif  // QUICKSAND_RUNTIME_PROCLET_H_
