#ifndef MVROB_MVCC_RECORDER_H_
#define MVROB_MVCC_RECORDER_H_

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mvcc/engine.h"
#include "mvcc/observer.h"
#include "mvcc/trace.h"

namespace mvrob {

/// A ring-buffered log of the engine event stream: attach it to an
/// engine's observers and it keeps every begin/read/write/commit/abort
/// (and blocked write) as it executes, in the fields of the recorded
/// schedule v1 format (abort attributions are not part of it and are
/// dropped). The buffer keeps the most recent `capacity` events; older
/// events are dropped and counted, so recording long runs is safe at fixed
/// memory. Thread-safe: appends from concurrent-engine workers serialize
/// on one internal mutex.
///
/// Exports:
///  - ToText(): a replayable schedule file (see docs/formats.md) that
///    ParseRecordedSchedule() reads back verbatim — the round-trip the
///    validator relies on;
///  - ToChromeTrace(): a trace_event timeline (chrome://tracing,
///    Perfetto) with one track per session, steps as timestamps.
class ScheduleRecorder final : public EngineObserver {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  explicit ScheduleRecorder(size_t capacity = kDefaultCapacity);

  void OnEvent(const EngineEvent& event) override;

  /// Events in recording order (oldest surviving first).
  std::vector<EngineEvent> Events() const;

  uint64_t total_recorded() const;
  /// Events lost to the ring bound. A faithful replay requires 0.
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// The replayable schedule file: header, one line per event, and
  /// trailing version-order comments. `object_names` supplies display
  /// names (ids must match the engine's).
  std::string ToText(const TransactionSet& object_names) const;

  /// Chrome trace_event JSON: per-session lifetime spans plus one slice
  /// per operation, with the engine step counter as the timebase.
  std::string ToChromeTrace(const TransactionSet& object_names) const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<EngineEvent> buffer_;  // Ring; start_ is the oldest index.
  size_t start_ = 0;
  uint64_t total_ = 0;
};

/// Parses a recorded schedule file back into events. Object names resolve
/// against `object_names` (unknown objects are an error); comment lines
/// (`#`) and the version-order trailer are skipped. Round-trip contract:
/// ParseRecordedSchedule(recorder.ToText(t), t) == recorder.Events()
/// whenever nothing was dropped.
StatusOr<std::vector<EngineEvent>> ParseRecordedSchedule(
    std::string_view text, const TransactionSet& object_names);

/// Rebuilds the formal image of the committed sessions from a recorded
/// event log alone — no engine needed. This is the recorded-schedule half
/// of the round-trip validator: engine log -> text -> events -> formal
/// schedule -> checker. Fails when the log is incomplete (a session
/// commits without a begin, a read observes a version from a session that
/// never committed in the log, ...).
StatusOr<ExportedRun> BuildRunFromRecording(
    const std::vector<EngineEvent>& events,
    const TransactionSet& object_names);

}  // namespace mvrob

#endif  // MVROB_MVCC_RECORDER_H_
