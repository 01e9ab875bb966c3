#ifndef MVROB_MVCC_CONCURRENT_ENGINE_H_
#define MVROB_MVCC_CONCURRENT_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "mvcc/engine.h"
#include "mvcc/ssi_tracker.h"

namespace mvrob {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class Watchdog;

/// Tuning knobs for the many-core engine.
struct ConcurrentEngineOptions {
  /// Key-space partitions. Each shard owns object ids congruent to its
  /// index and has one latch guarding its version chains and row locks.
  /// 0 picks a default (4x the worker count, at least 16).
  size_t num_shards = 0;
  /// Writer commits per garbage-collection epoch. When a worker's commit
  /// crosses an epoch boundary it reclaims every version no published
  /// snapshot can observe (the concurrent replacement for the driver's
  /// periodic Vacuum). 0 disables epoch GC.
  uint64_t commits_per_epoch = 4096;
  /// Optional observability sink. Attaches the per-op mvcc.* counters
  /// (an EngineCounters observer) and exports the mvcc.version_chain_len
  /// histogram, per-shard telemetry (mvcc.shard.versions{shard=K},
  /// mvcc.shard.lock_wait_us{shard=K}) and the epoch-GC series
  /// (mvcc.gc.reclaimed, mvcc.gc.epochs, mvcc.gc.horizon). Null disables
  /// all instrumentation.
  MetricsRegistry* metrics = nullptr;
  /// Observers of the engine event stream (mvcc/observer.h), called on the
  /// worker threads and so required to be thread-safe. Begin events are
  /// delivered in session-id order; a recording round-trips through
  /// `mvrob validate` exactly like a single-threaded one. Empty (the
  /// default) costs one untaken branch per step.
  std::vector<EngineObserver*> observers{};
  /// Optional stall watchdog: epoch GC sweeps run under a monitored scope
  /// so a sweep wedged on a shard latch produces a symbolized stall dump.
  /// Null disables (the usual zero-cost-when-detached contract).
  Watchdog* watchdog = nullptr;
};

/// The many-core MVCC engine: the same Postgres-modeled semantics as
/// `Engine` (buffered writes installed at commit, row locks against dirty
/// writes, first-updater-wins for SI/SSI, exact Definition 2.4 SSI
/// checks), executed by `num_workers` threads in parallel.
///
/// Concurrency design:
///
///  - the version store is key-space partitioned: shard latches guard the
///    version chains and row locks, so reads and writes of disjoint
///    shards never contend;
///  - commits that install versions serialize on one commit mutex: the
///    commit timestamp is allocated, versions installed, and only then
///    the global clock published, so an RC read at clock c never observes
///    half of a commit. Read-only RC/SI commits skip the mutex entirely;
///  - writers follow a no-wait policy: a write that hits a foreign row
///    lock returns kBlocked immediately and the driver aborts + retries,
///    so no cross-thread deadlock detection is needed;
///  - every operation gets a 64-bit step key `(clock << 32) | seq` from
///    the clock value it observed and a global tie-break counter; commits
///    installing at timestamp ts take key `ts << 32`. Because a commit's
///    key is derived from the timestamp it publishes, sorting any run by
///    step key yields a legal sequential interleaving: a version is
///    visible to an operation iff its commit key precedes the operation's
///    key. This is the commit-ordering layer that lets concurrent runs
///    round-trip through the formal checker unchanged;
///  - SI/SSI snapshots anchor at the session's *first operation* (the
///    formal model's first(T)), not at Begin: the first read/write
///    samples the clock under its shard latch and that sample is both the
///    snapshot and the key's clock component;
///  - version reclamation is epoch-based: workers publish their session's
///    snapshot in a per-worker slot, and every `commits_per_epoch`
///    commits one worker sweeps all shards at the minimum published
///    horizon, logging a structured mvcc.gc line per reclamation.
///
/// Sessions live in a deque (stable addresses); committed SSI records are
/// published into a registry under the commit mutex and are immutable
/// afterwards, which keeps the exact SSI check race-free.
///
/// Each worker index executes at most one session at a time (Begin
/// retires the worker's previous session handle). Total operations per
/// engine instance must stay below 2^32 so step keys cannot collide; the
/// drivers' max_steps budgets are far below that.
class ConcurrentEngine {
 public:
  ConcurrentEngine(size_t num_objects, size_t num_workers,
                   ConcurrentEngineOptions options = {});
  ~ConcurrentEngine();

  ConcurrentEngine(const ConcurrentEngine&) = delete;
  ConcurrentEngine& operator=(const ConcurrentEngine&) = delete;

  /// Starts a session at `level` on behalf of `worker`. SI/SSI snapshots
  /// are taken lazily at the session's first operation.
  SessionId Begin(size_t worker, IsolationLevel level);

  /// Reads `object` in the worker's active session. Never blocks beyond
  /// the shard latch.
  ReadResult Read(size_t worker, ObjectId object);

  /// Writes `object` (buffered until commit). Returns kBlocked without
  /// waiting when another active session holds the row lock (no-wait);
  /// the caller aborts and retries.
  WriteResult Write(size_t worker, ObjectId object, Value value);

  /// Commits the worker's active session, installing its writes under the
  /// global commit order.
  CommitResult Commit(size_t worker);

  /// Aborts the worker's active session on the caller's behalf; `cause`
  /// as for Engine::Abort (kNoWaitLockConflict after a kBlocked write).
  void Abort(size_t worker, TraceAbortCause cause = TraceAbortCause::kUser);

  /// Sweeps all shards, reclaiming versions below the minimum published
  /// snapshot horizon. Runs automatically every commits_per_epoch writer
  /// commits; callable directly for tests. Returns versions reclaimed
  /// (0 when another worker's sweep is already in flight).
  size_t RunEpochGc();

  size_t num_objects() const;
  size_t num_workers() const { return num_workers_; }
  size_t num_shards() const { return num_shards_; }
  /// Published global clock (the newest commit timestamp).
  Timestamp clock() const { return clock_.load(std::memory_order_acquire); }
  uint64_t gc_epochs() const { return gc_epochs_.load(); }
  uint64_t gc_reclaimed() const { return gc_reclaimed_.load(); }

  // ---- Quiescent accessors: callers must ensure no worker is inside an
  // engine call (the drivers join their threads first). ----

  /// Copies all session records (ids are positions), in the shape
  /// ExportCommittedSessions expects.
  std::vector<SessionRecord> SessionSnapshot() const;
  /// Aggregated per-worker counters.
  EngineStats stats() const;
  /// Stored versions across all shards (initial versions included).
  size_t TotalVersions() const;
  size_t num_sessions() const;

 private:
  struct Shard;
  struct WorkerSlot;

  uint64_t NextKey(Timestamp clock_value) {
    return (clock_value << 32) |
           ((seq_.fetch_add(1, std::memory_order_relaxed) + 1) & 0xffffffffull);
  }
  /// A non-advancing key for informational events (begin/blocked/abort).
  uint64_t CurrentKey() const {
    return (clock_.load(std::memory_order_relaxed) << 32) |
           (seq_.load(std::memory_order_relaxed) & 0xffffffffull);
  }
  Shard& ShardOf(ObjectId object);
  void LockShard(Shard& shard);
  void AbortInternal(WorkerSlot& slot, AbortReason reason,
                     const ConflictAttribution& why);
  void ReleaseRowLocks(const SessionRecord& record, SessionId id);
  void Emit(const EngineEvent& event);
  /// Drops committed-SSI registry entries that can no longer join a
  /// dangerous structure with any active or future session. Caller holds
  /// commit_mu_.
  void PruneSsiRegistryLocked();

  ConcurrentEngineOptions options_;
  size_t num_workers_;
  size_t num_shards_;
  VersionStore store_;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<WorkerSlot[]> workers_;

  /// Session table: the deque gives stable addresses under push_back, so
  /// registry pointers and worker handles survive concurrent Begins.
  mutable std::mutex session_mu_;
  std::deque<SessionRecord> sessions_;

  std::atomic<Timestamp> clock_{0};
  std::atomic<uint64_t> seq_{0};

  /// Serializes version-installing commits (and all SSI commits).
  std::mutex commit_mu_;
  /// Committed SSI sessions still relevant for dangerous structures;
  /// guarded by commit_mu_.
  std::vector<SsiMember> ssi_committed_;

  std::atomic<uint64_t> writer_commits_{0};
  std::atomic<bool> gc_running_{false};
  std::atomic<uint64_t> gc_epochs_{0};
  std::atomic<uint64_t> gc_reclaimed_{0};

  std::unique_ptr<EngineCounters> counters_;
  /// options_.observers plus counters_; empty when nothing watches.
  std::vector<EngineObserver*> observers_;

  // Non-event metric handles (null when options_.metrics is null).
  Histogram* m_version_chain_len_ = nullptr;
  Counter* m_gc_reclaimed_ = nullptr;
  Counter* m_gc_epochs_ = nullptr;
  Gauge* m_gc_horizon_ = nullptr;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_CONCURRENT_ENGINE_H_
