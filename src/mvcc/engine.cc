#include "mvcc/engine.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "mvcc/observer.h"

namespace mvrob {

Engine::Engine(size_t num_objects, EngineOptions options)
    : options_(std::move(options)), store_(num_objects) {
  observers_ = options_.observers;
  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    m_version_chain_len_ = &metrics->histogram("mvcc.version_chain_len");
    counters_ = std::make_unique<EngineCounters>(*metrics);
    observers_.push_back(counters_.get());
  }
}

Engine::~Engine() = default;

void Engine::Emit(const EngineEvent& event) {
  for (EngineObserver* observer : observers_) observer->OnEvent(event);
}

SessionId Engine::Begin(IsolationLevel level) {
  SessionRecord record;
  record.level = level;
  record.state = TxnState::kActive;
  // The snapshot is taken at Begin; RC ignores it and re-reads the clock at
  // every read.
  record.snapshot_ts = clock_;
  sessions_.push_back(std::move(record));
  ++stats_.begins;
  SessionId id = static_cast<SessionId>(sessions_.size() - 1);
  active_.push_back(id);
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kBegin,
          .session = id,
          .step = step_,
          .level = level,
          .version_ts = sessions_[id].snapshot_ts});
  }
  return id;
}

ReadResult Engine::Read(SessionId session, ObjectId object) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  ++step_;
  ++stats_.reads;
  if (record.first_step == 0) record.first_step = step_;

  ReadResult result;
  // Read-your-own-writes: the buffered value wins.
  auto own = record.write_buffer.find(object);
  if (own != record.write_buffer.end()) {
    result.value = own->second;
    result.version_writer = session;
    result.own_write = true;
    record.reads.push_back(SessionReadRecord{object, /*version_ts=*/0,
                                             session, step_});
  } else {
    Timestamp read_ts =
        record.level == IsolationLevel::kRC ? clock_ : record.snapshot_ts;
    const StoredVersion& version = store_.SnapshotRead(object, read_ts);
    result.value = version.value;
    result.version_writer = version.writer;
    record.reads.push_back(
        SessionReadRecord{object, version.commit_ts, version.writer, step_});
  }
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kRead,
          .session = session,
          .step = step_,
          .object = object,
          .value = result.value,
          .version_writer = result.version_writer,
          .version_ts = record.reads.back().version_ts,
          .own_write = result.own_write});
  }
  return result;
}

WriteResult Engine::Write(SessionId session, ObjectId object, Value value) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  WriteResult result;

  // Row lock: concurrent active writers block (prevents dirty writes).
  auto lock = row_locks_.find(object);
  if (lock != row_locks_.end() && lock->second != session) {
    ++stats_.blocked_steps;
    if (blocked_on_.size() <= session) {
      blocked_on_.resize(sessions_.size(),
                         {kInvalidObjectId, kInvalidSessionId});
    }
    blocked_on_[session] = {object, lock->second};
    result.status = StepStatus::kBlocked;
    result.blocker = lock->second;
    if (!observers_.empty()) {
      Emit({.kind = EngineEventKind::kBlocked,
            .session = session,
            .step = step_,
            .object = object,
            .version_writer = lock->second});
    }
    return result;
  }
  // First-updater-wins for snapshot levels: a version committed after the
  // snapshot means a concurrent write — forbidden under SI/SSI
  // (Definition 2.3).
  if (record.level != IsolationLevel::kRC &&
      store_.HasVersionAfter(object, record.snapshot_ts)) {
    // The conflicting version is the newest one: HasVersionAfter tests
    // exactly its commit timestamp against the snapshot.
    const StoredVersion& conflicting = store_.Latest(object);
    AbortInternal(session, AbortReason::kWriteConflict,
                  {.conflicting_session = conflicting.writer,
                   .object = object,
                   .version_ts = conflicting.commit_ts,
                   .type = ConflictType::kWW,
                   .cause = TraceAbortCause::kFirstUpdaterWins});
    result.status = StepStatus::kAborted;
    result.abort_reason = AbortReason::kWriteConflict;
    return result;
  }
  ++step_;
  ++stats_.writes;
  if (record.first_step == 0) record.first_step = step_;
  row_locks_[object] = session;
  record.write_buffer[object] = value;
  record.writes.push_back(SessionWriteRecord{object, step_});
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kWrite,
          .session = session,
          .step = step_,
          .object = object,
          .value = value});
  }
  return result;
}

CommitResult Engine::Commit(SessionId session) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  CommitResult result;

  if (record.level == IsolationLevel::kSSI) {
    const SsiConflictDetail detail =
        ssi_.TryCommit({session, &record, clock_ + 1, step_ + 1});
    if (detail.found) {
      AbortInternal(session, AbortReason::kSsiDangerousStructure,
                    {.conflicting_session = detail.peer,
                     .object = detail.object,
                     .version_ts = detail.version_ts,
                     .type = ConflictType::kRW,
                     .cause = TraceAbortCause::kSsiDangerousStructure});
      result.status = StepStatus::kAborted;
      result.abort_reason = AbortReason::kSsiDangerousStructure;
      return result;
    }
  }

  ++step_;
  Timestamp commit_ts = ++clock_;
  record.commit_ts = commit_ts;
  record.commit_step = step_;
  record.state = TxnState::kCommitted;
  for (const auto& [object, value] : record.write_buffer) {
    store_.Install(object, StoredVersion{value, session, commit_ts});
    row_locks_.erase(object);
    if (m_version_chain_len_ != nullptr) {
      m_version_chain_len_->Observe(store_.ChainOf(object).size());
    }
  }
  ++stats_.commits;
  Retire(session);
  if (record.level == IsolationLevel::kSSI &&
      ssi_.size() >= SsiTracker::kPruneThreshold) {
    ssi_.Prune(SsiHorizon());
  }
  result.commit_ts = commit_ts;
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kCommit,
          .session = session,
          .step = step_,
          .commit_ts = commit_ts});
  }
  return result;
}

void Engine::Abort(SessionId session, TraceAbortCause cause) {
  assert(cause == TraceAbortCause::kUser ||
         cause == TraceAbortCause::kDeadlockVictim ||
         cause == TraceAbortCause::kNoWaitLockConflict);
  ConflictAttribution why{.cause = cause};
  if (cause != TraceAbortCause::kUser && session < blocked_on_.size()) {
    why.object = blocked_on_[session].first;
    why.conflicting_session = blocked_on_[session].second;
  }
  AbortInternal(session, AbortReason::kUser, why);
}

size_t Engine::Vacuum() {
  // RC sessions always read the newest committed version, so only snapshot
  // sessions pin history.
  Timestamp horizon = clock_;
  for (SessionId id : active_) {
    const SessionRecord& record = sessions_[id];
    if (record.level != IsolationLevel::kRC) {
      horizon = std::min(horizon, record.snapshot_ts);
    }
  }
  return store_.Vacuum(horizon);
}

uint64_t Engine::SsiHorizon() const {
  // A session's first step is the step of its first read or write, so a
  // session that has none yet gets one above the current step.
  uint64_t m = step_ + 1;
  for (SessionId id : active_) {
    const SessionRecord& record = sessions_[id];
    if (record.level == IsolationLevel::kSSI && record.first_step != 0) {
      m = std::min(m, record.first_step);
    }
  }
  return m;
}

void Engine::Retire(SessionId session) {
  active_.erase(std::find(active_.begin(), active_.end(), session));
}

void Engine::AbortInternal(SessionId session, AbortReason reason,
                           const ConflictAttribution& why) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  record.state = TxnState::kAborted;
  record.abort_reason = reason;
  Retire(session);
  for (const auto& [object, value] : record.write_buffer) {
    (void)value;
    auto lock = row_locks_.find(object);
    if (lock != row_locks_.end() && lock->second == session) {
      row_locks_.erase(lock);
    }
  }
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kAbort,
          .session = session,
          .step = step_,
          .reason = reason,
          .attribution = why});
  }
  switch (reason) {
    case AbortReason::kWriteConflict:
      ++stats_.aborts_write_conflict;
      break;
    case AbortReason::kSsiDangerousStructure:
      ++stats_.aborts_ssi;
      break;
    default:
      ++stats_.aborts_user;
      break;
  }
}

}  // namespace mvrob
