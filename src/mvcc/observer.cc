#include "mvcc/observer.h"

#include "common/metrics.h"
#include "common/string_util.h"

namespace mvrob {

const char* EngineEventKindToString(EngineEventKind kind) {
  switch (kind) {
    case EngineEventKind::kBegin:
      return "begin";
    case EngineEventKind::kRead:
      return "read";
    case EngineEventKind::kWrite:
      return "write";
    case EngineEventKind::kBlocked:
      return "blocked";
    case EngineEventKind::kCommit:
      return "commit";
    case EngineEventKind::kAbort:
      return "abort";
  }
  return "unknown";
}

const char* AbortReasonToString(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kWriteConflict:
      return "write_conflict";
    case AbortReason::kSsiDangerousStructure:
      return "ssi_dangerous_structure";
    case AbortReason::kUser:
      return "user";
  }
  return "unknown";
}

const char* ConflictTypeToString(ConflictType type) {
  switch (type) {
    case ConflictType::kWW:
      return "ww";
    case ConflictType::kWR:
      return "wr";
    case ConflictType::kRW:
      return "rw";
  }
  return "?";
}

const char* TraceAbortCauseToString(TraceAbortCause cause) {
  switch (cause) {
    case TraceAbortCause::kFirstUpdaterWins:
      return "first_updater_wins";
    case TraceAbortCause::kSsiDangerousStructure:
      return "ssi_dangerous_structure";
    case TraceAbortCause::kDeadlockVictim:
      return "deadlock_victim";
    case TraceAbortCause::kNoWaitLockConflict:
      return "no_wait_lock_conflict";
    case TraceAbortCause::kUser:
      return "user";
  }
  return "?";
}

const char* AbortSeriesLabel(TraceAbortCause cause) {
  switch (cause) {
    case TraceAbortCause::kFirstUpdaterWins:
      return "write_conflict";
    case TraceAbortCause::kSsiDangerousStructure:
      return "ssi";
    case TraceAbortCause::kDeadlockVictim:
      return "deadlock";
    case TraceAbortCause::kNoWaitLockConflict:
      return "lock_conflict";
    case TraceAbortCause::kUser:
      return "user";
  }
  return "?";
}

EngineCounters::EngineCounters(MetricsRegistry& metrics) {
  auto slot = [&](EngineEventKind kind) -> Counter*& {
    return by_kind_[static_cast<size_t>(kind)];
  };
  slot(EngineEventKind::kBegin) = &metrics.counter("mvcc.begins");
  slot(EngineEventKind::kRead) = &metrics.counter("mvcc.reads");
  slot(EngineEventKind::kWrite) = &metrics.counter("mvcc.writes");
  slot(EngineEventKind::kBlocked) = &metrics.counter("mvcc.blocked_steps");
  slot(EngineEventKind::kCommit) = &metrics.counter("mvcc.commits");
  for (size_t c = 0; c < kNumAbortCauses; ++c) {
    aborts_[c] = &metrics.counter(StrCat(
        "mvcc.aborts.", AbortSeriesLabel(static_cast<TraceAbortCause>(c))));
  }
}

void EngineCounters::OnEvent(const EngineEvent& event) {
  if (event.kind == EngineEventKind::kAbort) {
    aborts_[static_cast<size_t>(event.attribution.cause)]->Increment();
  } else {
    by_kind_[static_cast<size_t>(event.kind)]->Increment();
  }
}

LiveTelemetry::LiveTelemetry(MetricsRegistry& registry,
                             uint32_t window_seconds) {
  for (IsolationLevel level : kAllIsolationLevels) {
    const char* name = IsolationLevelToString(level);
    PerLevel& slot = per_level[static_cast<size_t>(level)];
    slot.commits = &registry.windowed_counter(
        StrCat("mvcc.live.commits{level=", name, "}"), window_seconds);
    for (size_t c = 0; c < kNumAbortCauses; ++c) {
      slot.aborts[c] = &registry.windowed_counter(
          StrCat("mvcc.live.aborts{level=", name, ",reason=",
                 AbortSeriesLabel(static_cast<TraceAbortCause>(c)), "}"),
          window_seconds);
    }
    slot.commit_latency_us = &registry.windowed_histogram(
        StrCat("mvcc.live.commit_latency_us{level=", name, "}"),
        window_seconds);
  }
}

void LiveTelemetry::OnEvent(const EngineEvent& event) {
  if (event.kind != EngineEventKind::kBegin &&
      event.kind != EngineEventKind::kCommit &&
      event.kind != EngineEventKind::kAbort) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  OpenSession session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (event.kind == EngineEventKind::kBegin) {
      open_[event.session] = OpenSession{event.level, now};
      return;
    }
    auto it = open_.find(event.session);
    if (it == open_.end()) return;
    session = it->second;
    open_.erase(it);
  }
  PerLevel& slot = per_level[static_cast<size_t>(session.level)];
  if (event.kind == EngineEventKind::kAbort) {
    slot.aborts[static_cast<size_t>(event.attribution.cause)]->Add(1, now);
    return;
  }
  slot.commits->Add(1, now);
  slot.commit_latency_us->Observe(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - session.begin)
              .count()),
      now);
}

}  // namespace mvrob
