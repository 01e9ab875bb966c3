#include "mvcc/concurrent_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/watchdog.h"
#include "mvcc/observer.h"
#include "mvcc/ssi_tracker.h"

namespace mvrob {
namespace {

/// Published-snapshot slot value while a worker has no snapshot pinned.
constexpr Timestamp kNoSnapshot = ~Timestamp{0};
/// Prune the committed-SSI registry whenever it grows past this.
constexpr size_t kSsiPruneThreshold = 128;

}  // namespace

struct alignas(64) ConcurrentEngine::WorkerSlot {
  SessionRecord* record = nullptr;
  SessionId id = kInvalidSessionId;
  /// The row lock the active session's latest blocked write hit (object,
  /// holder): the peer named by a lock-conflict abort.
  ObjectId blocked_object = kInvalidObjectId;
  SessionId blocked_by = kInvalidSessionId;
  /// Snapshot pinned by the worker's active session, read by the epoch
  /// GC to compute the reclamation horizon. Publish-before-sample: the
  /// worker stores a clock value *before* sampling its snapshot, so a GC
  /// pass that misses the store computed its horizon from a clock the
  /// snapshot is guaranteed to be at or above.
  std::atomic<Timestamp> snapshot{kNoSnapshot};
  EngineStats stats;
};

struct ConcurrentEngine::Shard {
  std::mutex mu;
  /// Row locks for objects this shard owns: object -> active writer.
  std::map<ObjectId, SessionId> row_locks;
  /// Stored versions across the shard's chains (guarded by mu).
  size_t versions = 0;
  Gauge* m_versions = nullptr;
  Counter* m_lock_wait_us = nullptr;
};

ConcurrentEngine::ConcurrentEngine(size_t num_objects, size_t num_workers,
                                   ConcurrentEngineOptions options)
    : options_(std::move(options)),
      num_workers_(std::max<size_t>(1, num_workers)),
      num_shards_(options_.num_shards != 0
                      ? options_.num_shards
                      : std::max<size_t>(16, 4 * std::max<size_t>(1, num_workers))),
      store_(num_objects),
      shards_(new Shard[num_shards_]),
      workers_(new WorkerSlot[num_workers_]) {
  for (size_t s = 0; s < num_shards_; ++s) {
    // Initial versions (timestamp 0) owned by this shard.
    shards_[s].versions =
        num_objects / num_shards_ + (s < num_objects % num_shards_ ? 1 : 0);
  }
  observers_ = options_.observers;
  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    counters_ = std::make_unique<EngineCounters>(*metrics);
    observers_.push_back(counters_.get());
    m_version_chain_len_ = &metrics->histogram("mvcc.version_chain_len");
    m_gc_reclaimed_ = &metrics->counter("mvcc.gc.reclaimed");
    m_gc_epochs_ = &metrics->counter("mvcc.gc.epochs");
    m_gc_horizon_ = &metrics->gauge("mvcc.gc.horizon");
    for (size_t s = 0; s < num_shards_; ++s) {
      shards_[s].m_versions =
          &metrics->gauge(StrCat("mvcc.shard.versions{shard=", s, "}"));
      shards_[s].m_versions->Set(static_cast<int64_t>(shards_[s].versions));
      shards_[s].m_lock_wait_us =
          &metrics->counter(StrCat("mvcc.shard.lock_wait_us{shard=", s, "}"));
    }
  }
}

ConcurrentEngine::~ConcurrentEngine() = default;

size_t ConcurrentEngine::num_objects() const { return store_.num_objects(); }

ConcurrentEngine::Shard& ConcurrentEngine::ShardOf(ObjectId object) {
  return shards_[object % num_shards_];
}

void ConcurrentEngine::LockShard(Shard& shard) {
  if (shard.m_lock_wait_us == nullptr) {
    shard.mu.lock();
    return;
  }
  if (shard.mu.try_lock()) return;
  auto start = std::chrono::steady_clock::now();
  shard.mu.lock();
  auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  shard.m_lock_wait_us->Add(static_cast<uint64_t>(waited.count()));
}

void ConcurrentEngine::Emit(const EngineEvent& event) {
  for (EngineObserver* observer : observers_) observer->OnEvent(event);
}

SessionId ConcurrentEngine::Begin(size_t worker, IsolationLevel level) {
  WorkerSlot& slot = workers_[worker];
  assert(slot.record == nullptr || slot.record->state != TxnState::kActive);
  SessionRecord record;
  record.level = level;
  record.state = TxnState::kActive;
  // SI/SSI snapshots are taken at the session's first operation; until
  // then the session pins nothing.
  SessionId id;
  {
    // Allocation and the begin event form one critical section, so
    // observers see begins in id order (BuildRunFromRecording requires it).
    std::lock_guard<std::mutex> lock(session_mu_);
    sessions_.push_back(std::move(record));
    id = static_cast<SessionId>(sessions_.size() - 1);
    slot.record = &sessions_.back();
    if (!observers_.empty()) {
      Emit({.kind = EngineEventKind::kBegin,
            .session = id,
            .step = CurrentKey(),
            .level = level,
            .version_ts = clock_.load(std::memory_order_relaxed)});
    }
  }
  slot.id = id;
  slot.blocked_object = kInvalidObjectId;
  slot.blocked_by = kInvalidSessionId;
  ++slot.stats.begins;
  return id;
}

ReadResult ConcurrentEngine::Read(size_t worker, ObjectId object) {
  WorkerSlot& slot = workers_[worker];
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  ++slot.stats.reads;

  ReadResult result;
  // Read-your-own-writes: the buffered value wins; no shard state is
  // touched (an own write implies the session already has a first step
  // and, for SI/SSI, a snapshot).
  auto own = record.write_buffer.find(object);
  if (own != record.write_buffer.end()) {
    uint64_t key = NextKey(clock_.load(std::memory_order_seq_cst));
    result.value = own->second;
    result.version_writer = slot.id;
    result.own_write = true;
    record.reads.push_back(
        SessionReadRecord{object, /*version_ts=*/0, slot.id, key});
    if (!observers_.empty()) {
      Emit({.kind = EngineEventKind::kRead,
            .session = slot.id,
            .step = key,
            .object = object,
            .value = result.value,
            .version_writer = slot.id,
            .own_write = true});
    }
    return result;
  }

  Shard& shard = ShardOf(object);
  LockShard(shard);
  Timestamp c;
  if (record.level == IsolationLevel::kRC) {
    c = clock_.load(std::memory_order_seq_cst);
  } else if (record.first_step == 0) {
    // Lazy snapshot at first(T): publish a conservative bound for the
    // epoch GC *before* sampling, then sample. The sample is both the
    // snapshot and the clock component of this operation's step key, so
    // the exported position of first(T) matches its visibility.
    slot.snapshot.store(clock_.load(std::memory_order_seq_cst),
                        std::memory_order_seq_cst);
    c = clock_.load(std::memory_order_seq_cst);
    record.snapshot_ts = c;
    slot.snapshot.store(c, std::memory_order_seq_cst);
  } else {
    c = clock_.load(std::memory_order_seq_cst);
  }
  Timestamp read_ts =
      record.level == IsolationLevel::kRC ? c : record.snapshot_ts;
  const StoredVersion version = store_.SnapshotRead(object, read_ts);
  shard.mu.unlock();

  uint64_t key = NextKey(c);
  if (record.first_step == 0) record.first_step = key;
  result.value = version.value;
  result.version_writer = version.writer;
  record.reads.push_back(
      SessionReadRecord{object, version.commit_ts, version.writer, key});
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kRead,
          .session = slot.id,
          .step = key,
          .object = object,
          .value = result.value,
          .version_writer = version.writer,
          .version_ts = version.commit_ts});
  }
  return result;
}

WriteResult ConcurrentEngine::Write(size_t worker, ObjectId object,
                                    Value value) {
  WorkerSlot& slot = workers_[worker];
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  WriteResult result;

  Shard& shard = ShardOf(object);
  LockShard(shard);
  // No-wait row locking: a foreign lock means kBlocked immediately; the
  // driver aborts and retries instead of waiting, so no cross-thread
  // deadlock detection is needed. The entry may linger briefly after the
  // holder commits (locks are released after the clock is published),
  // which only costs a spurious retry.
  auto lock_it = shard.row_locks.find(object);
  if (lock_it != shard.row_locks.end() && lock_it->second != slot.id) {
    SessionId blocker = lock_it->second;
    shard.mu.unlock();
    ++slot.stats.blocked_steps;
    slot.blocked_object = object;
    slot.blocked_by = blocker;
    result.status = StepStatus::kBlocked;
    result.blocker = blocker;
    if (!observers_.empty()) {
      Emit({.kind = EngineEventKind::kBlocked,
            .session = slot.id,
            .step = CurrentKey(),
            .object = object,
            .version_writer = blocker});
    }
    return result;
  }

  Timestamp c;
  if (record.level != IsolationLevel::kRC && record.first_step == 0) {
    // Lazy snapshot at first(T); see Read.
    slot.snapshot.store(clock_.load(std::memory_order_seq_cst),
                        std::memory_order_seq_cst);
    c = clock_.load(std::memory_order_seq_cst);
    record.snapshot_ts = c;
    slot.snapshot.store(c, std::memory_order_seq_cst);
  } else {
    c = clock_.load(std::memory_order_seq_cst);
  }
  // First-updater-wins for snapshot levels (Definition 2.3). The chain
  // can contain a version whose commit is not yet clock-published; such a
  // version is certain to commit (it is being installed under the commit
  // mutex), so aborting on it is still a true conflict.
  if (record.level != IsolationLevel::kRC &&
      store_.HasVersionAfter(object, record.snapshot_ts)) {
    // Capture the conflicting version (the newest one) while the shard
    // latch still pins the chain.
    const StoredVersion conflicting = store_.Latest(object);
    shard.mu.unlock();
    AbortInternal(slot, AbortReason::kWriteConflict,
                  {.conflicting_session = conflicting.writer,
                   .object = object,
                   .version_ts = conflicting.commit_ts,
                   .type = ConflictType::kWW,
                   .cause = TraceAbortCause::kFirstUpdaterWins});
    result.status = StepStatus::kAborted;
    result.abort_reason = AbortReason::kWriteConflict;
    return result;
  }
  uint64_t key = NextKey(c);
  if (record.first_step == 0) record.first_step = key;
  shard.row_locks[object] = slot.id;
  shard.mu.unlock();

  record.write_buffer[object] = value;
  record.writes.push_back(SessionWriteRecord{object, key});
  ++slot.stats.writes;
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kWrite,
          .session = slot.id,
          .step = key,
          .object = object,
          .value = value});
  }
  return result;
}

CommitResult ConcurrentEngine::Commit(size_t worker) {
  WorkerSlot& slot = workers_[worker];
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  CommitResult result;
  const bool has_writes = !record.write_buffer.empty();

  if (record.level == IsolationLevel::kSSI || has_writes) {
    // Version-installing commits (and every SSI commit, so SSI commit
    // timestamps stay unique) serialize on the commit mutex.
    std::unique_lock<std::mutex> commit_lock(commit_mu_);
    Timestamp ts = clock_.load(std::memory_order_relaxed) + 1;
    uint64_t commit_step = ts << 32;
    SsiConflictDetail detail;
    if (record.level == IsolationLevel::kSSI) {
      // The candidate joins the registry for the test and stays there if
      // it commits; the registry only changes under the commit mutex.
      ssi_committed_.push_back(SsiMember{slot.id, &record, ts, commit_step});
      detail = SsiTracker::FindDangerousStructure(ssi_committed_, slot.id);
    }
    if (detail.found) {
      ssi_committed_.pop_back();
      const ConflictAttribution why{
          .conflicting_session = detail.peer,
          .object = detail.object,
          .version_ts = detail.version_ts,
          .type = ConflictType::kRW,
          .cause = TraceAbortCause::kSsiDangerousStructure};
      commit_lock.unlock();
      AbortInternal(slot, AbortReason::kSsiDangerousStructure, why);
      result.status = StepStatus::kAborted;
      result.abort_reason = AbortReason::kSsiDangerousStructure;
      return result;
    }
    record.commit_ts = ts;
    record.commit_step = commit_step;
    record.state = TxnState::kCommitted;
    for (const auto& [object, value] : record.write_buffer) {
      Shard& shard = ShardOf(object);
      LockShard(shard);
      store_.Install(object, StoredVersion{value, slot.id, ts});
      ++shard.versions;
      if (shard.m_versions != nullptr) {
        shard.m_versions->Set(static_cast<int64_t>(shard.versions));
      }
      if (m_version_chain_len_ != nullptr) {
        m_version_chain_len_->Observe(store_.ChainOf(object).size());
      }
      shard.mu.unlock();
    }
    // Publish only after every version is installed: a reader that
    // samples clock >= ts is guaranteed to see all of this commit's
    // versions in the chains.
    clock_.store(ts, std::memory_order_seq_cst);
    if (record.level == IsolationLevel::kSSI &&
        ssi_committed_.size() >= kSsiPruneThreshold) {
      PruneSsiRegistryLocked();
    }
    commit_lock.unlock();
    // Release row locks only after the clock publish: a writer that finds
    // the lock gone then samples a clock >= ts, so its step key follows
    // this commit's key (no formal dirty write).
    ReleaseRowLocks(record, slot.id);
    result.commit_ts = ts;
  } else {
    // Read-only RC/SI fast path: nothing to install, no clock bump, no
    // commit mutex. The commit key carries the current clock plus a fresh
    // tie-break, placing it after every operation of the session.
    Timestamp c = clock_.load(std::memory_order_seq_cst);
    record.commit_ts = c;
    record.commit_step = NextKey(c);
    record.state = TxnState::kCommitted;
    result.commit_ts = c;
  }

  slot.snapshot.store(kNoSnapshot, std::memory_order_seq_cst);
  ++slot.stats.commits;
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kCommit,
          .session = slot.id,
          .step = record.commit_step,
          .commit_ts = record.commit_ts});
  }
  if (has_writes && options_.commits_per_epoch != 0) {
    uint64_t n = writer_commits_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.commits_per_epoch == 0) RunEpochGc();
  }
  return result;
}

void ConcurrentEngine::Abort(size_t worker, TraceAbortCause cause) {
  assert(cause == TraceAbortCause::kUser ||
         cause == TraceAbortCause::kDeadlockVictim ||
         cause == TraceAbortCause::kNoWaitLockConflict);
  WorkerSlot& slot = workers_[worker];
  ConflictAttribution why{.cause = cause};
  if (cause != TraceAbortCause::kUser) {
    why.conflicting_session = slot.blocked_by;
    why.object = slot.blocked_object;
  }
  AbortInternal(slot, AbortReason::kUser, why);
}

void ConcurrentEngine::AbortInternal(WorkerSlot& slot, AbortReason reason,
                                     const ConflictAttribution& why) {
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  record.state = TxnState::kAborted;
  record.abort_reason = reason;
  ReleaseRowLocks(record, slot.id);
  slot.snapshot.store(kNoSnapshot, std::memory_order_seq_cst);
  if (!observers_.empty()) {
    Emit({.kind = EngineEventKind::kAbort,
          .session = slot.id,
          .step = CurrentKey(),
          .reason = reason,
          .attribution = why});
  }
  switch (reason) {
    case AbortReason::kWriteConflict:
      ++slot.stats.aborts_write_conflict;
      break;
    case AbortReason::kSsiDangerousStructure:
      ++slot.stats.aborts_ssi;
      break;
    default:
      ++slot.stats.aborts_user;
      break;
  }
}

void ConcurrentEngine::ReleaseRowLocks(const SessionRecord& record,
                                       SessionId id) {
  for (const auto& [object, value] : record.write_buffer) {
    (void)value;
    Shard& shard = ShardOf(object);
    LockShard(shard);
    auto it = shard.row_locks.find(object);
    if (it != shard.row_locks.end() && it->second == id) {
      shard.row_locks.erase(it);
    }
    shard.mu.unlock();
  }
}

size_t ConcurrentEngine::RunEpochGc() {
  // Single sweeper at a time; a colliding trigger simply skips (the next
  // epoch boundary retries).
  bool expected = false;
  if (!gc_running_.compare_exchange_strong(expected, true)) return 0;

  // Per-shard heartbeats: a sweep wedged on one shard latch stalls out.
  WatchdogScope watch(options_.watchdog, "mvcc.gc", std::chrono::seconds(10));

  // Horizon: the clock first, then the published slots. A worker whose
  // snapshot publish we miss here sampled its snapshot after our clock
  // read, so its snapshot is >= this horizon and stays readable.
  Timestamp horizon = clock_.load(std::memory_order_seq_cst);
  for (size_t w = 0; w < num_workers_; ++w) {
    horizon =
        std::min(horizon, workers_[w].snapshot.load(std::memory_order_seq_cst));
  }

  size_t reclaimed = 0;
  const size_t objects = store_.num_objects();
  for (size_t s = 0; s < num_shards_; ++s) {
    watch.Heartbeat();
    Shard& shard = shards_[s];
    size_t shard_reclaimed = 0;
    LockShard(shard);
    for (size_t object = s; object < objects; object += num_shards_) {
      shard_reclaimed +=
          store_.VacuumObject(static_cast<ObjectId>(object), horizon);
    }
    shard.versions -= shard_reclaimed;
    if (shard.m_versions != nullptr) {
      shard.m_versions->Set(static_cast<int64_t>(shard.versions));
    }
    shard.mu.unlock();
    reclaimed += shard_reclaimed;
  }

  uint64_t epoch = gc_epochs_.fetch_add(1, std::memory_order_relaxed) + 1;
  gc_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  if (m_gc_epochs_ != nullptr) m_gc_epochs_->Increment();
  if (m_gc_reclaimed_ != nullptr) m_gc_reclaimed_->Add(reclaimed);
  if (m_gc_horizon_ != nullptr) {
    m_gc_horizon_->Set(static_cast<int64_t>(horizon));
  }
  Logger& logger = GlobalLogger();
  if (logger.enabled(LogLevel::kInfo)) {
    logger.Log(LogLevel::kInfo, "mvcc.gc", "epoch reclamation",
               {{"epoch", epoch},
                {"horizon", horizon},
                {"reclaimed", static_cast<uint64_t>(reclaimed)}});
  }
  gc_running_.store(false, std::memory_order_seq_cst);
  return reclaimed;
}

void ConcurrentEngine::PruneSsiRegistryLocked() {
  // An entry can still join a dangerous structure only through a chain of
  // Concurrent() links reaching a session whose first step is >= m — the
  // lower bound on every active and future first step. Concurrent() is
  // interval overlap of [first_step, commit_step), so merge entries into
  // overlap components and drop every component that ends at or below m.
  Timestamp min_ts = clock_.load(std::memory_order_seq_cst);
  for (size_t w = 0; w < num_workers_; ++w) {
    min_ts =
        std::min(min_ts, workers_[w].snapshot.load(std::memory_order_seq_cst));
  }
  uint64_t m = min_ts << 32;

  std::vector<SsiMember> kept;
  kept.reserve(ssi_committed_.size());
  std::sort(ssi_committed_.begin(), ssi_committed_.end(),
            [](const SsiMember& a, const SsiMember& b) {
              return a.record->first_step < b.record->first_step;
            });
  size_t component_begin = 0;
  uint64_t component_end = 0;
  auto flush = [&](size_t component_limit) {
    if (component_end > m) {
      for (size_t i = component_begin; i < component_limit; ++i) {
        kept.push_back(ssi_committed_[i]);
      }
    }
  };
  for (size_t i = 0; i < ssi_committed_.size(); ++i) {
    const SessionRecord* record = ssi_committed_[i].record;
    // first_step == 0 (a committed SSI session with no operations) is
    // never concurrent with anything; drop it outright.
    if (record->first_step == 0) {
      if (component_begin == i) ++component_begin;
      continue;
    }
    if (i > component_begin && record->first_step >= component_end) {
      flush(i);
      component_begin = i;
      component_end = 0;
    }
    component_end = std::max(component_end, record->commit_step);
  }
  flush(ssi_committed_.size());
  ssi_committed_ = std::move(kept);
}

std::vector<SessionRecord> ConcurrentEngine::SessionSnapshot() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return std::vector<SessionRecord>(sessions_.begin(), sessions_.end());
}

EngineStats ConcurrentEngine::stats() const {
  EngineStats total;
  for (size_t w = 0; w < num_workers_; ++w) {
    const EngineStats& s = workers_[w].stats;
    total.begins += s.begins;
    total.reads += s.reads;
    total.writes += s.writes;
    total.commits += s.commits;
    total.aborts_write_conflict += s.aborts_write_conflict;
    total.aborts_ssi += s.aborts_ssi;
    total.aborts_user += s.aborts_user;
    total.blocked_steps += s.blocked_steps;
  }
  return total;
}

size_t ConcurrentEngine::TotalVersions() const {
  return store_.TotalVersions();
}

size_t ConcurrentEngine::num_sessions() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return sessions_.size();
}

}  // namespace mvrob
