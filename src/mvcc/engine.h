#ifndef MVROB_MVCC_ENGINE_H_
#define MVROB_MVCC_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "iso/isolation_level.h"
#include "mvcc/ssi_tracker.h"
#include "mvcc/version_store.h"

namespace mvrob {

class EngineCounters;
class EngineObserver;
class Histogram;
class MetricsRegistry;
struct ConflictAttribution;
struct EngineEvent;

/// Lifecycle of an engine session.
enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// Outcome of a single engine step.
enum class StepStatus : uint8_t {
  kOk,
  /// The step must wait (another active session holds the row lock). The
  /// session is unchanged; retry after the blocker finishes.
  kBlocked,
  /// The session was aborted by the engine (first-updater-wins or SSI
  /// dangerous structure). All its effects are discarded.
  kAborted,
};

/// Why the engine aborted a session.
enum class AbortReason : uint8_t {
  kNone,
  /// SI/SSI write to an object with a version committed after the
  /// session's snapshot (first-updater-wins).
  kWriteConflict,
  /// Committing would complete a dangerous structure among SSI sessions
  /// (Definition 2.4 / Cahill et al.).
  kSsiDangerousStructure,
  /// Aborted by the caller (e.g. deadlock victim).
  kUser,
};

/// Why a session aborted, in mechanism terms — finer than AbortReason:
/// caller-initiated kUser aborts split into deadlock victims, no-wait lock
/// conflicts and plain caller aborts. Carried by every abort event of the
/// engine event stream (mvcc/observer.h).
enum class TraceAbortCause : uint8_t {
  kFirstUpdaterWins,
  kSsiDangerousStructure,
  kDeadlockVictim,
  kNoWaitLockConflict,
  /// A caller abort with no conflict behind it.
  kUser,
};

inline constexpr size_t kNumAbortCauses =
    static_cast<size_t>(TraceAbortCause::kUser) + 1;

struct ReadResult {
  StepStatus status = StepStatus::kOk;
  Value value = 0;
  /// Who wrote the observed version: a session id, kInvalidSessionId for
  /// the initial version, or the reader itself for own-buffer reads.
  SessionId version_writer = kInvalidSessionId;
  /// True if the value came from the session's own uncommitted buffer.
  bool own_write = false;
};

struct WriteResult {
  StepStatus status = StepStatus::kOk;
  /// When blocked: the active session holding the row lock (for deadlock
  /// detection by the driver).
  SessionId blocker = kInvalidSessionId;
  AbortReason abort_reason = AbortReason::kNone;
};

struct CommitResult {
  StepStatus status = StepStatus::kOk;
  AbortReason abort_reason = AbortReason::kNone;
  Timestamp commit_ts = 0;
};

/// Aggregate counters exposed to the benchmarks.
struct EngineStats {
  uint64_t begins = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t commits = 0;
  uint64_t aborts_write_conflict = 0;
  uint64_t aborts_ssi = 0;
  uint64_t aborts_user = 0;
  uint64_t blocked_steps = 0;
};

/// Read/write record kept per session for SSI tracking and trace export.
struct SessionReadRecord {
  ObjectId object;
  Timestamp version_ts;     // Commit timestamp of the observed version.
  SessionId version_writer; // kInvalidSessionId for the initial version.
  uint64_t step;            // Global step at which the read happened.
};
struct SessionWriteRecord {
  ObjectId object;
  uint64_t step;
};

/// Everything the engine knows about one session; exposed (const) to the
/// SSI tracker and the trace exporter.
struct SessionRecord {
  IsolationLevel level = IsolationLevel::kRC;
  TxnState state = TxnState::kActive;
  AbortReason abort_reason = AbortReason::kNone;
  Timestamp snapshot_ts = 0;  // Snapshot for SI/SSI reads and FUW checks.
  Timestamp commit_ts = 0;
  uint64_t first_step = 0;    // Step of the first read/write; 0 if none.
  uint64_t commit_step = 0;
  std::map<ObjectId, Value> write_buffer;
  std::vector<SessionReadRecord> reads;
  std::vector<SessionWriteRecord> writes;
};

struct EngineOptions {
  /// Optional observability sink (common/metrics.h). Null disables all
  /// instrumentation. When set, the engine attaches an EngineCounters
  /// observer (the per-op mvcc.* counters) and records the
  /// mvcc.version_chain_len histogram.
  MetricsRegistry* metrics = nullptr;
  /// Observers of the engine event stream (mvcc/observer.h): the schedule
  /// recorder, the transaction tracer, live telemetry. Each receives one
  /// event per begin/read/write/blocked write/commit/abort, in execution
  /// order. Empty (the default) costs one untaken branch per step.
  std::vector<EngineObserver*> observers{};
};

/// An in-memory multiversion engine executing transactions under
/// per-session isolation levels {RC, SI, SSI} — the executable form of the
/// paper's Definitions 2.3/2.4, modeled on Postgres:
///
///  - writes are buffered and installed at commit in commit order
///    (writes respect the commit order);
///  - RC reads observe the newest committed version at the *read*;
///    SI/SSI reads observe the newest version committed before the
///    session's snapshot (read-last-committed relative to first(T));
///  - row locks serialize concurrent writers (no dirty writes): a write to
///    a row locked by another active session blocks;
///  - SI/SSI writers abort when a version was committed after their
///    snapshot (first-updater-wins: no concurrent writes);
///  - SSI sessions are monitored for dangerous structures (exactly the
///    condition of Definition 2.4, including the commit-order
///    optimization); a commit that would complete one aborts instead.
///
/// Single-threaded by design: callers (the Driver) interleave sessions
/// step by step, which makes anomalies reproducible and lets tests replay
/// the exact counterexample schedules produced by the robustness checker.
class Engine {
 public:
  explicit Engine(size_t num_objects, EngineOptions options = {});
  ~Engine();

  /// Starts a session at `level`. The snapshot is taken at Begin.
  SessionId Begin(IsolationLevel level);

  /// Reads `object`. Never blocks (MVCC readers don't block).
  ReadResult Read(SessionId session, ObjectId object);

  /// Writes `object` (buffered until commit).
  WriteResult Write(SessionId session, ObjectId object, Value value);

  /// Commits the session, installing its writes.
  CommitResult Commit(SessionId session);

  /// Aborts the session on the caller's behalf. `cause` is kUser for a
  /// plain abort, or kDeadlockVictim / kNoWaitLockConflict when the
  /// session's latest blocked write is why; the abort event then names the
  /// lock holder and the object.
  void Abort(SessionId session, TraceAbortCause cause = TraceAbortCause::kUser);

  /// Garbage-collects versions unreachable by every active snapshot
  /// (VACUUM). Safe to call at any time; returns versions dropped.
  size_t Vacuum();

  const SessionRecord& session(SessionId id) const { return sessions_[id]; }
  size_t num_sessions() const { return sessions_.size(); }
  const VersionStore& store() const { return store_; }
  const EngineStats& stats() const { return stats_; }
  /// Global step counter (each read/write/commit is one step).
  uint64_t current_step() const { return step_; }

 private:
  void AbortInternal(SessionId session, AbortReason reason,
                     const ConflictAttribution& why);
  /// Removes a session that committed or aborted from active_.
  void Retire(SessionId session);
  /// The SsiTracker::Prune bound: no active or future SSI session has a
  /// first step below it.
  uint64_t SsiHorizon() const;
  void Emit(const EngineEvent& event);

  EngineOptions options_;
  // Non-event instrument, resolved once at construction; null when
  // options_.metrics is null.
  Histogram* m_version_chain_len_ = nullptr;
  std::unique_ptr<EngineCounters> counters_;
  /// options_.observers plus counters_; empty when nothing watches.
  std::vector<EngineObserver*> observers_;
  VersionStore store_;
  /// Indexed by session id; the deque keeps records at stable addresses
  /// for ssi_.
  std::deque<SessionRecord> sessions_;
  /// Ids of the active sessions, unordered.
  std::vector<SessionId> active_;
  /// Committed SSI sessions and the commit test.
  SsiTracker ssi_;
  /// Per session id, the row lock its latest blocked write hit (object,
  /// holder): the peer named when the caller aborts it as a deadlock
  /// victim or lock conflict. Grown on the first block past its end.
  std::vector<std::pair<ObjectId, SessionId>> blocked_on_;
  /// Row locks: object -> active writing session.
  std::map<ObjectId, SessionId> row_locks_;
  Timestamp clock_ = 0;
  uint64_t step_ = 0;
  EngineStats stats_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_ENGINE_H_
