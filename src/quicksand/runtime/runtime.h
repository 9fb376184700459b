// Runtime: Quicksand's distributed runtime (§3).
//
// One Runtime spans the whole cluster (as Nu's runtime does) and provides:
//
//  * proclet creation/destruction with policy-driven placement,
//  * location-transparent method invocation: local calls are direct function
//    calls; remote calls pay RPC wire costs; calls racing with migration
//    bounce off the stale location and retry (Nu-style forwarding),
//  * millisecond-scale proclet migration: gate -> drain -> copy heap over
//    the fabric -> flip directory -> reopen,
//  * maintenance sections for the split/merge machinery (§3.3),
//  * affinity tracking for locality-aware scheduling (§5).
//
// Every proclet-facing entry point takes a Ctx naming the machine the caller
// is executing on — that is what decides local vs. remote costs.

#ifndef QUICKSAND_RUNTIME_RUNTIME_H_
#define QUICKSAND_RUNTIME_RUNTIME_H_

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "quicksand/cluster/cluster.h"
#include "quicksand/common/stats.h"
#include "quicksand/common/status.h"
#include "quicksand/common/wire.h"
#include "quicksand/net/rpc.h"
#include "quicksand/overload/admission.h"
#include "quicksand/runtime/proclet.h"
#include "quicksand/sched/placement.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/trace/trace.h"

namespace quicksand {

class AdmissionController;
class FaultInjector;
class FailureDetector;
class FlightRecorder;

// Thrown when an invocation targets a proclet that has been destroyed.
// Sharded data structures catch this, refresh their index, and retry.
class ProcletGoneError : public std::runtime_error {
 public:
  explicit ProcletGoneError(ProcletId id)
      : std::runtime_error("proclet " + std::to_string(id) + " is gone"), id_(id) {}

  ProcletId id() const { return id_; }

 private:
  ProcletId id_;
};

// Thrown when an invocation targets a proclet whose hosting machine crashed:
// the proclet's state is unrecoverable. Distinct from ProcletGoneError
// (deliberate destruction) — retrying or refreshing an index cannot help;
// callers must surface data loss (Status::DataLoss) or rebuild the state.
class ProcletLostError : public std::runtime_error {
 public:
  explicit ProcletLostError(ProcletId id)
      : std::runtime_error("proclet " + std::to_string(id) +
                           " was lost to a machine failure"),
        id_(id) {}

  ProcletId id() const { return id_; }

 private:
  ProcletId id_;
};

// Thrown when an invocation could not be delivered: the request (or its
// response) kept vanishing into a partition or lossy link while the proclet
// itself is — as far as anyone can tell — still alive. Distinct from
// ProcletLostError (the state is not known to be gone) and from
// TooManyBouncesError (the proclet was reachable, just moving). Callers may
// retry with the SAME request id: the fencing layer dedups replays
// (health/fencing.h), so at-least-once resends are safe for guarded
// proclets.
class ProcletUnreachableError : public std::runtime_error {
 public:
  explicit ProcletUnreachableError(ProcletId id)
      : std::runtime_error("proclet " + std::to_string(id) +
                           " is unreachable (network partition or loss)"),
        id_(id) {}

  ProcletId id() const { return id_; }

 private:
  ProcletId id_;
};

// Thrown when an invocation was rejected at admission by the overload
// controller: the target machine has a standing queue and queuing more work
// would only grow it (Ref::TryCall returns the same refusal as a
// ResourceExhausted Result). The proclet never ran the call — retrying is
// safe but should go through a retry budget, and callers with a
// degraded-mode fallback should prefer it.
class InvocationSheddedError : public std::runtime_error {
 public:
  explicit InvocationSheddedError(ProcletId id)
      : std::runtime_error("invocation of proclet " + std::to_string(id) +
                           " shed by admission control"),
        id_(id) {}

  ProcletId id() const { return id_; }

 private:
  ProcletId id_;
};

// Thrown when an invocation reached its target after its end-to-end
// deadline had already passed: the work was refused at admission instead of
// being performed dead (maps to Status::DeadlineExceeded). The proclet
// never ran the call.
class DeadlineExpiredError : public std::runtime_error {
 public:
  explicit DeadlineExpiredError(ProcletId id)
      : std::runtime_error("invocation of proclet " + std::to_string(id) +
                           " arrived after its deadline"),
        id_(id) {}

  ProcletId id() const { return id_; }

 private:
  ProcletId id_;
};

// Thrown when the resolve/bounce retry loop exhausts
// Runtime::kMaxInvokeAttempts while the proclet still exists — a bounce
// livelock (the proclet keeps migrating out from under the caller), not
// destruction.
class TooManyBouncesError : public std::runtime_error {
 public:
  TooManyBouncesError(ProcletId id, int attempts)
      : std::runtime_error("invocation of proclet " + std::to_string(id) +
                           " bounced " + std::to_string(attempts) +
                           " times without landing"),
        id_(id) {}

  ProcletId id() const { return id_; }

 private:
  ProcletId id_;
};

// How an invocation hands an admission refusal to its caller. kThrow:
// InvocationSheddedError or DeadlineExpiredError (Ref::Call). kReturn: a
// non-OK Result, ResourceExhausted (shed) or DeadlineExceeded (Ref::TryCall).
// Invoke is the only hop that refuses work at admission.
enum class RefusalExit { kThrow, kReturn };

// Execution context: which machine the current activity runs on, and (when
// running inside a compute proclet) which proclet — used for affinity
// tracking.
struct Ctx {
  Runtime* rt = nullptr;
  MachineId machine = 0;
  ProcletId caller_proclet = kInvalidProcletId;
  // Causal stamp for tracing: work done under this context records under
  // trace.trace_id / trace.parent_span. Invalid (default) = untraced root.
  TraceContext trace{};
};

template <typename P>
class Ref;

struct RuntimeConfig {
  // Machine hosting the location directory (Nu's controller).
  MachineId controller = 0;
  // Fixed migration cost: page pinning, mapping setup, control handshakes
  // (§5 notes these kernel bottlenecks explicitly).
  Duration migration_fixed_overhead = Duration::Micros(200);
  // Metadata shipped alongside the heap during migration.
  int64_t migration_header_bytes = 4096;
  // Runtime work to set up a new proclet (heap creation, registration).
  Duration creation_overhead = Duration::Micros(10);
  // Size of control-plane messages (create/ack/redirect/directory lookups).
  int64_t control_message_bytes = 128;
  // Lazy ("post-copy"-style) migration, after §5's CXL discussion: "we can
  // speed up resource proclet migration by postponing the copying of data".
  // The proclet resumes at the destination right after the fixed overhead;
  // the heap copies in the background (memory is double-charged for the
  // duration of the copy). Proclets with auxiliary bytes (storage) still
  // migrate eagerly.
  bool lazy_migration = false;
};

struct RuntimeStats {
  int64_t local_invocations = 0;
  int64_t remote_invocations = 0;
  int64_t bounces = 0;
  int64_t directory_lookups = 0;
  int64_t migrations = 0;
  int64_t failed_migrations = 0;
  int64_t creations = 0;
  int64_t destructions = 0;
  int64_t lazy_copies_completed = 0;
  // Failure & revocation accounting.
  int64_t crashes = 0;          // machine failures observed by the runtime
  int64_t lost_proclets = 0;    // proclets whose host died under them
  int64_t zombie_applies = 0;   // applies that ran against a limbo corpse
  int64_t bounce_livelocks = 0;  // invocations that exhausted the bounce loop
  // Durability accounting.
  int64_t restored_proclets = 0;  // lost proclets brought back by recovery
  int64_t checkpoint_bytes = 0;   // incremental checkpoint bytes shipped
  // Network-failure & membership accounting.
  int64_t declared_dead = 0;      // machines fenced out while (maybe) alive
  int64_t fenced_migrations = 0;  // migrations rejected on a stale epoch
  int64_t fenced_rpcs = 0;        // stamped requests rejected by FenceGuards
  int64_t undelivered_invocations = 0;  // request legs eaten by the network
  int64_t undelivered_lookups = 0;      // directory RPCs eaten by the network
  int64_t response_retransmits = 0;     // response legs resent after a drop
  int64_t unreachable_invocations = 0;  // invocations that gave up on the net
  // Overload-control accounting.
  int64_t shed_invocations = 0;       // rejected by admission control
  int64_t deadline_rejected_invocations = 0;  // arrived after their deadline
  int64_t stale_reads = 0;            // reads served from a backup (degraded)
  // Gate-closed window per migration (what callers experience).
  LatencyHistogram migration_latency;
  // Background copy completion time for lazy migrations.
  LatencyHistogram lazy_copy_latency;
  LatencyHistogram remote_invoke_latency;
};

namespace internal {

template <typename T>
struct UnwrapTask;

template <typename T>
struct UnwrapTask<Task<T>> {
  using type = T;
};

// R of an `fn(P&) -> Task<R>` invocation, and what the invocation's Task
// yields under each RefusalExit.
template <typename Fn, typename P>
using CallResult = typename UnwrapTask<std::invoke_result_t<Fn, P&>>::type;
template <RefusalExit kExit, typename R>
using InvokeResult = std::conditional_t<kExit == RefusalExit::kReturn, Result<R>, R>;

}  // namespace internal

class Runtime {
 public:
  Runtime(Simulator& sim, Cluster& cluster, RuntimeConfig config = RuntimeConfig{});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Simulator& sim() { return sim_; }
  Cluster& cluster() { return cluster_; }
  Fabric& fabric() { return cluster_.fabric(); }
  const RuntimeConfig& config() const { return config_; }
  const RuntimeStats& stats() const { return stats_; }

  void SetPlacementPolicy(std::unique_ptr<PlacementPolicy> policy);
  PlacementPolicy& placement() { return *placement_; }

  // A Ctx for driver code running on the given machine.
  Ctx CtxOn(MachineId machine) { return Ctx{this, machine, kInvalidProcletId}; }

  // --- Lifecycle ------------------------------------------------------------

  // Creates a proclet of type P (which must declare `static constexpr
  // ProcletKind kKind` and take ProcletInit as its first constructor
  // argument). `request.heap_bytes` is the initial heap charge.
  //
  // Args are taken BY VALUE deliberately: Create is a lazy coroutine, so
  // reference parameters would dangle once the caller's temporaries die
  // (before the body ever runs). Values are copied into the frame.
  template <typename P, typename... Args>
  Task<Result<Ref<P>>> Create(Ctx ctx, PlacementRequest request, Args... args);

  // Destroys a proclet: drains in-flight calls, releases its heap, and fails
  // subsequent invocations with ProcletGoneError.
  Task<Status> Destroy(Ctx ctx, ProcletId id);

  // --- Migration ------------------------------------------------------------

  // Moves a proclet to `dst`. Blocks new invocations for the duration, which
  // is migration_fixed_overhead + heap/bandwidth (sub-millisecond for small
  // proclets — the property Fig. 1 depends on).
  //
  // `expected_epoch` is a fencing token: nonzero means "perform this move
  // only if the proclet is still at the epoch I resolved". A replayed or
  // duplicated migration command from before a rebind then fails with
  // Aborted instead of yanking the proclet out from under its new owner —
  // this is what makes directory rebind idempotent under at-least-once
  // delivery. 0 skips the check (trusted local callers: evacuator,
  // rebalancer).
  Task<Status> Migrate(ProcletId id, MachineId dst, uint64_t expected_epoch = 0);

  // --- Maintenance (split/merge support) -------------------------------------

  // Closes the invocation gate and drains active calls, giving the caller
  // exclusive access to the proclet until EndMaintenance. Fails if the
  // proclet is gone or already under maintenance/migration.
  Task<Status> BeginMaintenance(ProcletId id);
  void EndMaintenance(ProcletId id);

  // Direct pointer for gate-holding maintenance code; nullptr if gone.
  template <typename P>
  P* UnsafeGet(ProcletId id) {
    return static_cast<P*>(Find(id));
  }

  // --- Failure handling -------------------------------------------------------

  // Fail-stop crash of `machine`: every proclet hosted there is lost — its
  // directory entry and cache entries are purged, invocations (in-flight and
  // future) raise ProcletLostError, and heap/disk accounting is written off.
  // The crashed machine must not be the controller (the directory itself is
  // out of scope for this failure model). Call after Machine::Fail() and
  // Fabric::FailMachine() — FaultInjector does all three in order.
  void HandleMachineFailure(MachineId machine);

  // Registers HandleMachineFailure as a crash handler on the injector.
  void AttachFaultInjector(FaultInjector& injector);

  // Declares `machine` dead on the controller's authority WITHOUT the
  // machine having fail-stopped — the gray-failure path: a partitioned or
  // silent host is fenced out of membership, its proclets are marked fenced
  // and lost (recoverable elsewhere), and it is never readmitted even if it
  // later proves alive. Idempotent; no-op overlap with HandleMachineFailure.
  void DeclareMachineDead(MachineId machine);

  // Subscribes to a failure detector's confirmations: a confirmed machine is
  // handled as a crash if its NIC is actually dead, or declared dead (gray
  // failure) if it is merely unreachable. Register BEFORE
  // RecoveryCoordinator::ArmDetector, for the same ordering reason as
  // AttachFaultInjector.
  void AttachFailureDetector(FailureDetector& detector);

  // True once the runtime has written `machine` off — by observing a crash
  // or by declaring it dead on the detector's word.
  bool MachineConsideredDead(MachineId machine) const {
    return dead_machines_.count(machine) != 0;
  }

  // True if the proclet was lost to a machine failure (as opposed to never
  // existing or being deliberately destroyed).
  bool IsLost(ProcletId id) const { return lost_ids_.count(id) != 0; }

  // --- Fencing ---------------------------------------------------------------

  // Current fencing epoch of `id`: starts at 1, bumped on every directory
  // rebind (migration, restore). 0 when the proclet does not exist. Clients
  // stamp requests with this; FenceGuards compare stamps (health/fencing.h).
  uint64_t EpochOf(ProcletId id) const {
    auto it = epoch_of_.find(id);
    return it == epoch_of_.end() ? 0 : it->second;
  }

  // Called by proclets whose FenceGuard rejected a stale-epoch request, so
  // fencing activity aggregates in RuntimeStats for benches and metrics.
  // When a tracer is attached, the rejection also records as an `abort`
  // instant against the proclet's host — the oracle TraceQuery uses to
  // assert no fenced request ever commits.
  void NoteFencedRpc(ProcletId id = kInvalidProcletId, int64_t request_id = 0) {
    ++stats_.fenced_rpcs;
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceContext{}, TraceHomeOf(id), TraceOp::kAbort, id,
                       request_id, "fenced");
    }
  }

  // Mirror image: a stamped request passed its FenceGuard and was applied.
  //
  // Zombie applies are NOT commits: when the host fail-stopped mid-call the
  // in-flight fiber still runs to completion against the limbo corpse, but
  // Invoke discards the result (ProcletLostError) and the corpse's state
  // never rejoins the live table — the caller gets no ack and retries
  // against the replacement. Recording a commit instant for that apply
  // would make the legitimate failover re-execution look like a
  // double-apply to the exactly-once oracle.
  void NoteCommittedRpc(ProcletId id, int64_t request_id = 0) {
    if (IsLost(id)) {
      ++stats_.zombie_applies;
      return;
    }
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceContext{}, TraceHomeOf(id), TraceOp::kCommit, id,
                       request_id, "committed");
    }
  }

  // --- Overload control -------------------------------------------------------

  // Attaches an admission controller (nullptr detaches). Invoke then
  // consults it at the target machine after the request arrives and before
  // any gate wait or proclet work: a shed invocation is refused having
  // consumed only the request leg plus a header-sized rejection response.
  // Invocations whose TraceContext deadline has passed on arrival are
  // likewise refused — dead work is refused, not queued. Ref::Call throws
  // a refusal (InvocationSheddedError, DeadlineExpiredError); Ref::TryCall,
  // which the serving tier uses, returns it as a ResourceExhausted or
  // DeadlineExceeded Result instead.
  void AttachAdmission(AdmissionController* admission) { admission_ = admission; }
  AdmissionController* admission() { return admission_; }

  // Called by the degraded-read path (durability/replication) so stale
  // serves aggregate in RuntimeStats and the trace.
  void NoteStaleRead(ProcletId id, MachineId backup_machine) {
    ++stats_.stale_reads;
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceContext{}, backup_machine, TraceOp::kStaleServe,
                       id);
    }
  }

  // --- Tracing ---------------------------------------------------------------

  // Attaches a tracer (nullptr detaches). The runtime then records spawn /
  // destroy / migrate / invoke / failure events; with no tracer attached
  // every hook is a null-checked no-op and sim-time behaviour is identical.
  void AttachTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() { return tracer_; }

  // Attaches a flight recorder: HandleMachineFailure and DeclareMachineDead
  // then freeze the dying machine's event ring before purging it.
  void AttachFlightRecorder(FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  // --- Recovery (durability subsystem) ---------------------------------------

  // Installs `obj` — a restored copy of lost proclet `id`, already carrying
  // its state (RestoreState / backup promotion charged the heap at `host`) —
  // under the old id, rebinding the directory entry atomically so existing
  // DistPtrs and routing caches heal through the normal miss path. The old
  // object stays in limbo for fibers that still reference it.
  Status AdoptRestored(ProcletId id, std::unique_ptr<ProcletBase> obj,
                       MachineId host);

  // Waits (bounded, polling) for a lost proclet to be restored. Returns true
  // once the directory has a binding for `id` again; false on timeout, if
  // the proclet was deliberately destroyed, or when no recovery coordinator
  // is armed (nothing will ever restore it).
  Task<bool> AwaitRestore(ProcletId id, Duration timeout,
                          Duration poll = Duration::Micros(100));

  // Set by RecoveryCoordinator::Arm. Sharded data structures consult this to
  // decide between a bounded stall (restore is coming) and DataLoss.
  bool recovery_enabled() const { return recovery_enabled_; }
  void SetRecoveryEnabled(bool on) { recovery_enabled_ = on; }

  // Lost proclets whose last host was `machine` and which have not been
  // restored yet; sorted by id for deterministic recovery order.
  std::vector<ProcletId> LostProcletsOn(MachineId machine) const;

  // Checkpoint traffic accounting (CheckpointManager).
  void AccountCheckpoint(int64_t bytes) { stats_.checkpoint_bytes += bytes; }

  // --- Introspection ----------------------------------------------------------

  ProcletBase* Find(ProcletId id);
  // Authoritative location; kInvalidMachineId if the proclet is gone.
  MachineId LocationOf(ProcletId id) const;
  // Ids of the live proclets on `machine`, ascending.
  std::vector<ProcletId> ProcletsOn(MachineId machine) const;
  // Every live proclet, in ascending id order. A walk that suspends must not
  // hold the reference: creation, destruction, loss and restore edit it.
  const std::vector<ProcletBase*>& LiveProclets() const { return live_; }
  size_t proclet_count() const { return proclets_.size(); }

  // --- Affinity --------------------------------------------------------------

  void RecordAffinity(ProcletId a, ProcletId b, int64_t bytes);
  int64_t AffinityBytes(ProcletId a, ProcletId b) const;
  // Total remote traffic attributed to proclet `a` per peer machine.
  std::unordered_map<ProcletId, int64_t> AffinityPeers(ProcletId a) const;

  // --- Invocation -------------------------------------------------------------

  // Safety valve on the resolve/bounce retry loop and on response
  // retransmits.
  static constexpr int kMaxInvokeAttempts = 16;
  // Pause before re-resolving after an invocation leg was not delivered
  // (network fault or endpoint death not yet recorded), and before each
  // response retransmit. Each pause consumes one attempt, so undeliverable
  // calls fail in bounded time.
  static constexpr Duration kInvokeRetryBackoff = Duration::Micros(100);

  // Runs `fn(P&)` at the proclet's current machine. `fn` must return
  // Task<R>; the call returns Task<R>. `request_bytes` models the argument
  // payload; the response payload is WireSizeOf(result) automatically.
  // Throws ProcletGoneError if the proclet has been destroyed. An admission
  // refusal throws InvocationSheddedError/DeadlineExpiredError; with
  // kExit == RefusalExit::kReturn (for an R that is neither void nor Status)
  // the call returns Task<Result<R>> and completes with the refusal's
  // Status instead.
  template <typename P, RefusalExit kExit = RefusalExit::kThrow, typename Fn>
  auto Invoke(Ctx ctx, ProcletId id, Fn fn, int64_t request_bytes = 0)
      -> Task<internal::InvokeResult<kExit, internal::CallResult<Fn, P>>>;

 private:
  friend class ProcletBase;

  // Untraced body of Migrate (the public entry wraps it in a span).
  Task<Status> MigrateImpl(ProcletId id, MachineId dst, uint64_t expected_epoch);

  // Machine to attribute a proclet-scoped trace event to: its current host,
  // falling back to the controller when the proclet is gone or lost.
  MachineId TraceHomeOf(ProcletId id) const {
    const MachineId home = LocationOf(id);
    return home == kInvalidMachineId ? config_.controller : home;
  }

  // Lost-but-referenced proclet object, if any (operators that held a
  // pointer across a suspension use this to keep observing it safely).
  ProcletBase* FindEvenIfLost(ProcletId id);

  // Marks one live proclet lost: writes off its accounting, purges the
  // directory and caches, and parks the object in limbo_.
  void LoseProclet(ProcletId id);

  // Background heap copy for lazy migrations.
  Task<> LazyCopy(ProcletId id, MachineId src, MachineId dst, int64_t bytes,
                  SimTime started);

  // Resolves via the caller's cache, falling back to a directory RPC.
  // Throws ProcletGoneError if the directory has no entry. Returns
  // kInvalidMachineId when the directory RPC itself was eaten by the network
  // (the caller backs off and retries — an attempt, not an answer).
  Task<MachineId> ResolveLocation(MachineId from, ProcletId id);
  void InvalidateCache(MachineId machine, ProcletId id);
  // Pays the cost of a bounced call's redirect response.
  Task<> PayBounce(MachineId stale_target, MachineId caller);
  // Ships an invocation response, retransmitting through drops; false when
  // the network ate every attempt (the invocation is then unreachable).
  Task<bool> DeliverResponse(MachineId from, MachineId to, int64_t bytes);
  // Shared tail of HandleMachineFailure and DeclareMachineDead: purges the
  // machine's cache and loses every proclet it hosts, optionally fencing
  // the corpses (gray failure: the host may still be running them).
  void PurgeMachine(MachineId machine, bool fence);
  // Drops a destroyed or lost proclet from live_.
  void Unlist(ProcletId id);

  ProcletId next_id_ = 1;
  Simulator& sim_;
  Cluster& cluster_;
  RuntimeConfig config_;
  RuntimeStats stats_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::unordered_map<ProcletId, std::unique_ptr<ProcletBase>> proclets_;
  // The same proclets in ascending id order. Ids only grow, so a creation
  // appends; a restore (AdoptRestored) inserts in the middle.
  std::vector<ProcletBase*> live_;
  // Proclets lost to machine failures. The objects linger here until the
  // Runtime is torn down: in-flight calls, gate waiters, and operators that
  // captured a ProcletBase* across a suspension observe `lost()` instead of
  // a dangling pointer. Their heap accounting is already zeroed, so the
  // cost is a few hundred bytes per lost proclet per run.
  std::unordered_map<ProcletId, std::unique_ptr<ProcletBase>> limbo_;
  // Older corpses for ids lost more than once (a restored proclet can be
  // lost again; limbo_ keeps the newest corpse, this keeps the rest alive
  // for any fibers still holding pointers).
  std::vector<std::unique_ptr<ProcletBase>> graveyard_;
  std::unordered_set<ProcletId> lost_ids_;
  // Machines written off (crashed or declared dead); guards against the
  // oracle and detector paths both purging the same machine.
  std::unordered_set<MachineId> dead_machines_;
  bool recovery_enabled_ = false;
  // Authoritative directory (hosted on config_.controller).
  std::unordered_map<ProcletId, MachineId> directory_;
  // Fencing epochs, bumped on every directory rebind (see EpochOf).
  std::unordered_map<ProcletId, uint64_t> epoch_of_;
  // Per-machine location caches (lazily invalidated; stale entries bounce).
  std::vector<std::unordered_map<ProcletId, MachineId>> location_cache_;
  // Pairwise communication volume (symmetric).
  std::unordered_map<ProcletId, std::unordered_map<ProcletId, int64_t>> affinity_by_;
  // Optional observability hooks (not owned; null = disabled).
  Tracer* tracer_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
  // Optional overload control (not owned; null = admit everything).
  AdmissionController* admission_ = nullptr;
};

// Typed handle to a proclet. Cheap to copy and to send over the wire.
template <typename P>
class Ref {
 public:
  Ref() = default;
  Ref(Runtime* rt, ProcletId id) : rt_(rt), id_(id) {}

  ProcletId id() const { return id_; }
  Runtime* runtime() const { return rt_; }
  explicit operator bool() const { return rt_ != nullptr && id_ != kInvalidProcletId; }

  bool operator==(const Ref& other) const { return id_ == other.id_; }

  // Current (authoritative) location — for scheduling/diagnostics only;
  // invocation resolves through the caching path.
  MachineId Location() const { return rt_->LocationOf(id_); }

  // co_await ref.Call(ctx, [](P& p) -> Task<R> {...}) yields R; an
  // admission refusal throws InvocationSheddedError/DeadlineExpiredError.
  template <typename Fn>
  auto Call(Ctx ctx, Fn fn, int64_t request_bytes = 0) const {
    return rt_->Invoke<P>(ctx, id_, std::move(fn), request_bytes);
  }

  // The same hop, but co_await yields Result<R>: an admission refusal
  // comes back as ResourceExhausted (shed) or DeadlineExceeded and nothing
  // is thrown. For callers to which refusals are routine traffic (the
  // serving tier under overload). Every other failure (ProcletGone/Lost/
  // Unreachable, TooManyBounces) still throws, as from Call.
  template <typename Fn>
  auto TryCall(Ctx ctx, Fn fn, int64_t request_bytes = 0) const {
    using R = internal::CallResult<Fn, P>;
    static_assert(!std::is_void_v<R> && !std::is_same_v<R, Status>,
                  "TryCall needs a call whose result a Result<R> can hold");
    return rt_->Invoke<P, RefusalExit::kReturn>(ctx, id_, std::move(fn),
                                                request_bytes);
  }

 private:
  Runtime* rt_ = nullptr;
  ProcletId id_ = kInvalidProcletId;
};

// --- Template implementations -------------------------------------------------

template <typename P, typename... Args>
Task<Result<Ref<P>>> Runtime::Create(Ctx ctx, PlacementRequest request, Args... args) {
  static_assert(std::is_base_of_v<ProcletBase, P>, "P must derive from ProcletBase");
  request.kind = P::kKind;
  Result<MachineId> placed = placement_->Place(request, cluster_);
  if (!placed.ok()) {
    co_return placed.status();
  }
  const MachineId host = *placed;
  // Pinned placements bypass the feasibility check, so re-check liveness.
  if (cluster_.machine(host).failed()) {
    co_return Status::Unavailable("host machine has failed");
  }
  if (!cluster_.machine(host).memory().TryCharge(request.heap_bytes)) {
    co_return Status::ResourceExhausted("host machine out of memory");
  }
  // Control handshake with the host, then runtime-side setup work.
  const Delivery handshake = co_await fabric().TransferDetailed(
      ctx.machine, host, config_.control_message_bytes);
  if (handshake != Delivery::kDelivered && !cluster_.machine(ctx.machine).failed()) {
    cluster_.machine(host).memory().Release(request.heap_bytes);
    co_return Status::Unavailable("creation handshake lost in the network");
  }
  co_await sim_.Sleep(config_.creation_overhead);
  if (cluster_.machine(host).failed()) {
    cluster_.machine(host).memory().Release(request.heap_bytes);
    co_return Status::Unavailable("host machine failed during creation");
  }

  const ProcletId id = next_id_++;
  ProcletInit init{this, &sim_, id, P::kKind, host};
  auto proclet = std::make_unique<P>(init, std::move(args)...);
  proclet->heap_bytes_ = request.heap_bytes;
  proclet->epoch_ = 1;
  epoch_of_[id] = 1;
  if (P::kKind == ProcletKind::kCompute) {
    cluster_.machine(host).AdjustHostedCompute(1);
  }
  directory_[id] = host;
  location_cache_[ctx.machine][id] = host;
  live_.push_back(proclet.get());
  proclets_.emplace(id, std::move(proclet));
  ++stats_.creations;
  if (tracer_ != nullptr) {
    tracer_->Instant(ctx.trace, host, TraceOp::kSpawn, id, request.heap_bytes,
                     ProcletKindName(P::kKind));
  }

  co_await fabric().Transfer(host, ctx.machine, config_.control_message_bytes);
  co_return Ref<P>(this, id);
}

template <typename P, RefusalExit kExit, typename Fn>
auto Runtime::Invoke(Ctx ctx, ProcletId id, Fn fn, int64_t request_bytes)
    -> Task<internal::InvokeResult<kExit, internal::CallResult<Fn, P>>> {
  using R = internal::CallResult<Fn, P>;

  // The whole resolve/bounce/execute envelope is one `invoke` span; the
  // guard lives in this coroutine frame, so every throw path below — and a
  // returned refusal — records the span ending in "abort" as the frame's
  // locals are destroyed.
  SpanGuard invoke_span;
  TraceContext tctx = ctx.trace;
  if (tracer_ != nullptr) {
    tctx = tracer_->BeginSpan(ctx.trace, ctx.machine, TraceOp::kInvoke, id,
                              request_bytes);
    invoke_span = SpanGuard(tracer_, tctx, ctx.machine);
  }

  bool last_undelivered = false;
  for (int attempt = 0; attempt < kMaxInvokeAttempts; ++attempt) {
    last_undelivered = false;
    const MachineId target = co_await ResolveLocation(ctx.machine, id);
    if (target == kInvalidMachineId) {
      // The directory RPC itself vanished (the caller's side of a
      // partition). Back off and spend another attempt.
      last_undelivered = true;
      if (tracer_ != nullptr) {
        tracer_->Instant(tctx, ctx.machine, TraceOp::kRpcRetry, id, attempt,
                         "lookup_undelivered");
      }
      co_await sim_.Sleep(kInvokeRetryBackoff);
      continue;
    }
    const bool remote = target != ctx.machine;
    const SimTime started = sim_.Now();
    if (remote) {
      if (tracer_ != nullptr) {
        tracer_->Instant(tctx, ctx.machine, TraceOp::kRpcSend, id,
                         request_bytes + Rpc::kHeaderBytes);
      }
      const Delivery request = co_await fabric().TransferDetailed(
          ctx.machine, target, request_bytes + Rpc::kHeaderBytes);
      if (request != Delivery::kDelivered &&
          !cluster_.machine(ctx.machine).failed()) {
        // The request never arrived — the target's NIC died, or a
        // partition/drop ate it — and we, the live sender, hear only
        // silence. Re-resolve after a short backoff; once the loss (or the
        // machine's death) is recorded, the checks below surface it.
        ++stats_.undelivered_invocations;
        if (tracer_ != nullptr) {
          tracer_->Instant(tctx, ctx.machine, TraceOp::kRpcDrop, id, attempt,
                           "request");
        }
        InvalidateCache(ctx.machine, id);
        if (IsLost(id)) {
          throw ProcletLostError(id);
        }
        if (Find(id) == nullptr) {
          throw ProcletGoneError(id);
        }
        last_undelivered = true;
        co_await sim_.Sleep(kInvokeRetryBackoff);
        continue;
      }
      if (tracer_ != nullptr && request == Delivery::kDelivered) {
        tracer_->Instant(tctx, target, TraceOp::kRpcRecv, id,
                         request_bytes + Rpc::kHeaderBytes);
      }
    }
    ProcletBase* base = Find(id);
    if (base == nullptr) {
      if (remote) {
        co_await PayBounce(target, ctx.machine);
      }
      InvalidateCache(ctx.machine, id);
      if (IsLost(id)) {
        throw ProcletLostError(id);
      }
      throw ProcletGoneError(id);
    }
    if (base->location() != target) {
      ++stats_.bounces;
      if (tracer_ != nullptr) {
        tracer_->Instant(tctx, target, TraceOp::kBounce, id, attempt);
      }
      if (remote) {
        co_await PayBounce(target, ctx.machine);
      }
      InvalidateCache(ctx.machine, id);
      continue;
    }
    // Overload admission at the target, before the gate: work that is dead
    // on arrival (deadline already passed) or headed into a standing queue
    // (admission controller shedding) is rejected having consumed only the
    // request leg plus a header-sized rejection response. Local calls are
    // subject too — the queue being protected is the machine's, not the
    // wire's.
    std::optional<StatusCode> refusal;
    if (tctx.ExpiredAt(sim_.Now())) {
      ++stats_.deadline_rejected_invocations;
      if (tracer_ != nullptr) {
        tracer_->Instant(tctx, target, TraceOp::kDeadlineExpired, id,
                         tctx.deadline.nanos());
      }
      refusal = StatusCode::kDeadlineExceeded;
    } else if (admission_ != nullptr && !admission_->Admit(target, sim_.Now())) {
      ++stats_.shed_invocations;
      if (tracer_ != nullptr) {
        tracer_->Instant(tctx, target, TraceOp::kRpcShed, id, attempt);
      }
      refusal = StatusCode::kResourceExhausted;
    }
    if (refusal.has_value()) {
      if (remote) {
        (void)co_await DeliverResponse(target, ctx.machine, Rpc::kHeaderBytes);
      }
      if constexpr (kExit == RefusalExit::kReturn) {
        co_return Status(*refusal, "");
      } else if (*refusal == StatusCode::kResourceExhausted) {
        throw InvocationSheddedError(id);
      } else {
        throw DeadlineExpiredError(id);
      }
    }
    const bool entered = co_await base->EnterCall();
    if (!entered) {
      // Destroyed (or lost to a crash) while we waited at the gate.
      InvalidateCache(ctx.machine, id);
      if (base->lost()) {
        throw ProcletLostError(id);
      }
      if (remote) {
        co_await PayBounce(target, ctx.machine);
      }
      throw ProcletGoneError(id);
    }
    if (base->location() != target) {
      // Migrated while we waited at the gate: bounce to the new home.
      base->ExitCall();
      ++stats_.bounces;
      if (tracer_ != nullptr) {
        tracer_->Instant(tctx, target, TraceOp::kBounce, id, attempt, "gated");
      }
      if (remote) {
        co_await PayBounce(target, ctx.machine);
      }
      InvalidateCache(ctx.machine, id);
      continue;
    }

    if (remote) {
      ++stats_.remote_invocations;
      if (ctx.caller_proclet != kInvalidProcletId) {
        RecordAffinity(ctx.caller_proclet, id, request_bytes + Rpc::kHeaderBytes);
      }
    } else {
      ++stats_.local_invocations;
    }

    P& proclet = static_cast<P&>(*base);
    // One tail for both call shapes: a void call's result slot is a
    // monostate it never fills, and its response is a bare header.
    std::optional<std::conditional_t<std::is_void_v<R>, std::monostate, R>> result;
    int64_t response_bytes = Rpc::kHeaderBytes;
    try {
      if constexpr (std::is_void_v<R>) {
        co_await fn(proclet);
      } else {
        result.emplace(co_await fn(proclet));
        response_bytes += WireSizeOf(*result);
      }
    } catch (...) {
      base->ExitCall();
      throw;
    }
    base->ExitCall();
    if (base->lost()) {
      // The host crashed mid-call: the call's effects and result died with it.
      throw ProcletLostError(id);
    }
    if (base->replicated() && base->has_pending_mutations()) {
      // Ship this call's mutation log to the backup before releasing the
      // response; durable-ack mode suspends here until acknowledged.
      co_await base->replication_sink()->Flush(*base);
      if (base->lost()) {
        // Crashed while shipping the log: no ack, so durability of this
        // call's mutations is unknown — surface as loss like any
        // mid-call crash.
        throw ProcletLostError(id);
      }
    }
    if (remote) {
      if (!co_await DeliverResponse(target, ctx.machine, response_bytes)) {
        // The call ran; only the caller never learned. At-least-once:
        // resend with the same request id and a FenceGuard dedups it.
        ++stats_.unreachable_invocations;
        throw ProcletUnreachableError(id);
      }
      stats_.remote_invoke_latency.Add(sim_.Now() - started);
    }
    invoke_span.End("ok");
    if constexpr (std::is_void_v<R>) {
      co_return;
    } else {
      co_return std::move(*result);
    }
  }
  if (last_undelivered) {
    // Every remaining attempt died in the network, not in a migration race.
    ++stats_.unreachable_invocations;
    throw ProcletUnreachableError(id);
  }
  // The proclet exists but kept migrating out from under us — a livelock,
  // not destruction (that case throws inside the loop).
  ++stats_.bounce_livelocks;
  throw TooManyBouncesError(id, kMaxInvokeAttempts);
}

}  // namespace quicksand

#endif  // QUICKSAND_RUNTIME_RUNTIME_H_
