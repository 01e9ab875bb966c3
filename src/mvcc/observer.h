#ifndef MVROB_MVCC_OBSERVER_H_
#define MVROB_MVCC_OBSERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "mvcc/engine.h"

namespace mvrob {

class Counter;
class MetricsRegistry;
class WindowedCounter;
class WindowedHistogram;

/// The engine event stream: what one engine step looks like from the
/// outside. Both engines emit exactly one event per begin, read, write,
/// blocked write, commit and abort to every attached EngineObserver; the
/// schedule recorder, the transaction tracer, the live per-level series
/// and the mvcc.* counters are all observers of this one stream.
enum class EngineEventKind : uint8_t {
  kBegin,    // Session started (level, snapshot timestamp).
  kRead,     // Read with the observed version's writer + commit timestamp.
  kWrite,    // Buffered write (value recorded for replay).
  kBlocked,  // Write blocked on a row lock (blocker in version_writer).
  kCommit,   // Commit with its commit timestamp.
  kAbort,    // Abort with its reason and causal attribution.
};

const char* EngineEventKindToString(EngineEventKind kind);
const char* AbortReasonToString(AbortReason reason);

/// Conflict-edge type of an attributed abort, matching the formal edge
/// vocabulary of the checker (ww/wr/rw of core/conflict.h). A FUW abort is
/// a ww conflict (two concurrent writers of one object); an SSI abort is
/// attributed along an rw-antidependency of the dangerous structure.
enum class ConflictType : uint8_t { kWW, kWR, kRW };

const char* ConflictTypeToString(ConflictType type);

const char* TraceAbortCauseToString(TraceAbortCause cause);

/// The label of the abort series a cause is counted on
/// (mvcc.aborts.<label>, mvcc.live.aborts{reason=<label>}): write_conflict,
/// ssi, deadlock, lock_conflict or user.
const char* AbortSeriesLabel(TraceAbortCause cause);

/// Causal attribution of one abort: which concurrent session the victim
/// conflicted with, on which object/version, and how. The engines fill
/// session-level facts; the tracer resolves the conflicting session to its
/// program name and level, so attributions stay meaningful after the
/// session retires.
struct ConflictAttribution {
  SessionId conflicting_session = kInvalidSessionId;
  ObjectId object = kInvalidObjectId;
  /// Commit timestamp of the conflicting version (FUW) — 0 when the
  /// conflict is not version-mediated (lock conflicts, SSI edges on
  /// uncommitted writes).
  Timestamp version_ts = 0;
  ConflictType type = ConflictType::kWW;
  TraceAbortCause cause = TraceAbortCause::kFirstUpdaterWins;

  friend bool operator==(const ConflictAttribution&,
                         const ConflictAttribution&) = default;
};

/// One engine event. Fields are kind-dependent; unused fields keep their
/// zero values so events compare bitwise for the round-trip tests.
struct EngineEvent {
  EngineEventKind kind = EngineEventKind::kBegin;
  SessionId session = kInvalidSessionId;
  /// The engine's step (deterministic engine: global step counter;
  /// concurrent engine: the operation's step key). Begin, blocked and
  /// abort events do not advance it; they carry the current value.
  uint64_t step = 0;
  IsolationLevel level = IsolationLevel::kRC;  // kBegin.
  ObjectId object = kInvalidObjectId;  // kRead / kWrite / kBlocked.
  Value value = 0;                     // kRead / kWrite.
  /// kRead: session that wrote the observed version (kInvalidSessionId =
  /// initial version). kBlocked: the lock-holding session.
  SessionId version_writer = kInvalidSessionId;
  /// kRead: commit timestamp of the observed version. kBegin: the
  /// session's snapshot timestamp.
  Timestamp version_ts = 0;
  bool own_write = false;                    // kRead from the own buffer.
  AbortReason reason = AbortReason::kNone;   // kAbort.
  Timestamp commit_ts = 0;                   // kCommit.
  /// kAbort: the cause and, for conflict aborts, the peer session, object
  /// and version.
  ConflictAttribution attribution{};

  friend bool operator==(const EngineEvent&, const EngineEvent&) = default;
};

/// A sink for the engine event stream, attached through
/// EngineOptions::observers / ConcurrentEngineOptions::observers.
///
/// Contract:
///  - observers only watch: attaching one never changes a run;
///  - zero cost when detached: with no observer (and no metrics registry)
///    every emit site is one untaken branch;
///  - ordering: begin events arrive in session-id order, and each
///    session's events arrive in its program order;
///  - threading: OnEvent runs on the thread executing the engine call — a
///    worker thread of the concurrent engine — so observers attached to a
///    ConcurrentEngine must be thread-safe. Begin events are delivered
///    under the engine's session-table lock; observers must not call back
///    into the engine.
class EngineObserver {
 public:
  EngineObserver() = default;
  EngineObserver(const EngineObserver&) = delete;
  EngineObserver& operator=(const EngineObserver&) = delete;
  virtual ~EngineObserver() = default;
  virtual void OnEvent(const EngineEvent& event) = 0;
};

/// The per-operation mvcc.* counters — mvcc.begins, mvcc.reads,
/// mvcc.writes, mvcc.blocked_steps, mvcc.commits and
/// mvcc.aborts.<AbortSeriesLabel> — as an observer. Engines attach one
/// themselves when given a metrics registry. Thread-safe (relaxed atomic
/// counters).
class EngineCounters final : public EngineObserver {
 public:
  explicit EngineCounters(MetricsRegistry& metrics);
  void OnEvent(const EngineEvent& event) override;

 private:
  /// Indexed by EngineEventKind; the kAbort slot is unused.
  Counter* by_kind_[static_cast<size_t>(EngineEventKind::kAbort) + 1] = {};
  /// Indexed by TraceAbortCause.
  Counter* aborts_[kNumAbortCauses] = {};
};

/// Sliding-window per-isolation-level series, the live throughput /
/// abort-rate / latency view behind `mvrob serve` and its adaptive
/// controller: mvcc.live.commits{level=L},
/// mvcc.live.aborts{level=L,reason=<AbortSeriesLabel>} and
/// mvcc.live.commit_latency_us{level=L} (wall time from Begin to a
/// successful Commit). Attach it to the engine's observers; one instance
/// may watch a sequence of engines (session ids restart per engine — a
/// begin simply replaces any stale entry). Thread-safe.
class LiveTelemetry final : public EngineObserver {
 public:
  struct PerLevel {
    WindowedCounter* commits = nullptr;
    /// Indexed by TraceAbortCause.
    WindowedCounter* aborts[kNumAbortCauses] = {};
    WindowedHistogram* commit_latency_us = nullptr;
  };

  explicit LiveTelemetry(MetricsRegistry& registry,
                         uint32_t window_seconds = 60);
  void OnEvent(const EngineEvent& event) override;

  /// The instruments, indexed by static_cast<size_t>(IsolationLevel).
  PerLevel per_level[kAllIsolationLevels.size()];

 private:
  struct OpenSession {
    IsolationLevel level = IsolationLevel::kRC;
    std::chrono::steady_clock::time_point begin;
  };
  std::mutex mu_;
  std::unordered_map<SessionId, OpenSession> open_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_OBSERVER_H_
