// Schedule recorder tests: event capture, text round-trip, replay
// equality, Chrome trace shape, and the theory/execution property test —
// 200+ recorded randomized engine runs fed back through the formal
// checker with zero disagreements (mvcc/roundtrip.h).
#include "mvcc/recorder.h"

#include <gtest/gtest.h>

#include <cassert>

#include "mvcc/concurrent_driver.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/driver.h"
#include "mvcc/roundtrip.h"
#include "mvcc/trace.h"
#include "txn/parser.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

constexpr const char* kWriteSkew = "T1: R[x] W[y]\nT2: R[y] W[x]";

TransactionSet WriteSkewTxns() {
  StatusOr<TransactionSet> txns = ParseTransactionSet(kWriteSkew);
  assert(txns.ok());
  return std::move(txns).value();
}

TEST(RecorderTest, CapturesEngineLifecycle) {
  TransactionSet txns = WriteSkewTxns();
  ScheduleRecorder recorder;
  EngineOptions options;
  options.observers = {&recorder};
  Engine engine(txns.num_objects(), options);

  ObjectId x = txns.FindObject("x");
  ObjectId y = txns.FindObject("y");
  SessionId s1 = engine.Begin(IsolationLevel::kSI);
  SessionId s2 = engine.Begin(IsolationLevel::kSI);
  engine.Read(s1, x);
  engine.Read(s2, y);
  engine.Write(s1, y, 7);
  engine.Write(s2, x, 9);
  engine.Commit(s1);
  engine.Commit(s2);

  std::vector<EngineEvent> events = recorder.Events();
  // 2 begins + 2 reads + 2 writes + 2 commits.
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events[0].kind, EngineEventKind::kBegin);
  EXPECT_EQ(events[0].session, s1);
  EXPECT_EQ(events[0].level, IsolationLevel::kSI);
  EXPECT_EQ(events[2].kind, EngineEventKind::kRead);
  EXPECT_EQ(events[2].object, x);
  EXPECT_EQ(events[2].version_writer, kInvalidSessionId);  // Initial version.
  EXPECT_EQ(events[4].kind, EngineEventKind::kWrite);
  EXPECT_EQ(events[4].value, 7);
  EXPECT_EQ(events[6].kind, EngineEventKind::kCommit);
  EXPECT_EQ(events[6].commit_ts, engine.session(s1).commit_ts);
  EXPECT_EQ(recorder.total_recorded(), 8u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(RecorderTest, RecordsBlockedWritesAndAborts) {
  TransactionSet txns = WriteSkewTxns();
  ScheduleRecorder recorder;
  EngineOptions options;
  options.observers = {&recorder};
  Engine engine(txns.num_objects(), options);

  ObjectId x = txns.FindObject("x");
  SessionId s1 = engine.Begin(IsolationLevel::kSI);
  SessionId s2 = engine.Begin(IsolationLevel::kSI);
  ASSERT_EQ(engine.Write(s1, x, 1).status, StepStatus::kOk);
  WriteResult blocked = engine.Write(s2, x, 2);
  ASSERT_EQ(blocked.status, StepStatus::kBlocked);
  engine.Commit(s1);
  // s2's snapshot predates s1's commit: first-updater-wins abort.
  WriteResult conflicted = engine.Write(s2, x, 2);
  ASSERT_EQ(conflicted.status, StepStatus::kAborted);

  std::vector<EngineEvent> events = recorder.Events();
  bool saw_blocked = false;
  bool saw_abort = false;
  for (const EngineEvent& event : events) {
    if (event.kind == EngineEventKind::kBlocked) {
      saw_blocked = true;
      EXPECT_EQ(event.session, s2);
      EXPECT_EQ(event.version_writer, s1);
    }
    if (event.kind == EngineEventKind::kAbort) {
      saw_abort = true;
      EXPECT_EQ(event.session, s2);
      EXPECT_EQ(event.reason, AbortReason::kWriteConflict);
    }
  }
  EXPECT_TRUE(saw_blocked);
  EXPECT_TRUE(saw_abort);
}

TEST(RecorderTest, RingBufferKeepsNewestEvents) {
  TransactionSet txns = WriteSkewTxns();
  ScheduleRecorder recorder(/*capacity=*/4);
  EngineOptions options;
  options.observers = {&recorder};
  Engine engine(txns.num_objects(), options);

  ObjectId x = txns.FindObject("x");
  SessionId s1 = engine.Begin(IsolationLevel::kRC);
  for (int i = 0; i < 6; ++i) engine.Read(s1, x);
  // 1 begin + 6 reads recorded, capacity 4: the 3 oldest dropped.
  EXPECT_EQ(recorder.total_recorded(), 7u);
  EXPECT_EQ(recorder.dropped(), 3u);
  std::vector<EngineEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  for (const EngineEvent& event : events) {
    EXPECT_EQ(event.kind, EngineEventKind::kRead);
  }
  // Oldest surviving first: steps are consecutive and increasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].step, events[i - 1].step + 1);
  }
}

TEST(RecorderTest, TextRoundTripIsExact) {
  TransactionSet txns = WriteSkewTxns();
  ScheduleRecorder recorder;
  EngineOptions engine_options;
  engine_options.observers = {&recorder};
  Engine engine(txns.num_objects(), engine_options);
  RandomRunOptions run_options;
  run_options.seed = 7;
  RunRandom(engine, txns, Allocation::AllSI(txns.size()), run_options);
  ASSERT_EQ(recorder.dropped(), 0u);

  std::string text = recorder.ToText(txns);
  EXPECT_NE(text.find("# mvrob recorded schedule v1"), std::string::npos);
  EXPECT_NE(text.find("objects x y"), std::string::npos);
  StatusOr<std::vector<EngineEvent>> parsed =
      ParseRecordedSchedule(text, txns);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, recorder.Events());
}

TEST(RecorderTest, ParserRejectsMalformedInput) {
  TransactionSet txns = WriteSkewTxns();
  EXPECT_FALSE(ParseRecordedSchedule("begin S1 SI snapshot=0 step=0", txns)
                   .ok());  // Missing objects header.
  EXPECT_FALSE(
      ParseRecordedSchedule("objects x y\nbegin S1 WAT snapshot=0 step=0",
                            txns)
          .ok());  // Bad level.
  EXPECT_FALSE(
      ParseRecordedSchedule("objects x y\nread S1 z value=0 src=init ts=0 "
                            "step=1",
                            txns)
          .ok());  // Unknown object.
  EXPECT_FALSE(
      ParseRecordedSchedule("objects x y\nfrob S1 step=1", txns).ok());
  EXPECT_FALSE(ParseRecordedSchedule("objects x\n", txns).ok());  // Universe.
  // Comments and blank lines are fine.
  StatusOr<std::vector<EngineEvent>> empty =
      ParseRecordedSchedule("# header\n\nobjects x y\n# trailer\n", txns);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(RecorderTest, ReplayMatchesEngineExport) {
  TransactionSet txns = WriteSkewTxns();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    ScheduleRecorder recorder;
    EngineOptions engine_options;
    engine_options.observers = {&recorder};
    Engine engine(txns.num_objects(), engine_options);
    RandomRunOptions run_options;
    run_options.seed = seed;
    RunRandom(engine, txns, Allocation::AllSI(txns.size()), run_options);

    StatusOr<ExportedRun> from_log =
        BuildRunFromRecording(recorder.Events(), txns);
    StatusOr<ExportedRun> from_engine = ExportCommittedRun(engine, txns);
    ASSERT_EQ(from_log.ok(), from_engine.ok());
    if (!from_engine.ok()) continue;
    StatusOr<Schedule> replayed = from_log->BuildSchedule();
    StatusOr<Schedule> exported = from_engine->BuildSchedule();
    ASSERT_TRUE(replayed.ok());
    ASSERT_TRUE(exported.ok());
    EXPECT_EQ(replayed->ToString(/*with_versions=*/true),
              exported->ToString(/*with_versions=*/true));
    EXPECT_EQ(from_log->allocation, from_engine->allocation);
  }
}

TEST(RecorderTest, ChromeTraceHasSessionTracks) {
  TransactionSet txns = WriteSkewTxns();
  ScheduleRecorder recorder;
  EngineOptions engine_options;
  engine_options.observers = {&recorder};
  Engine engine(txns.num_objects(), engine_options);
  SessionId s1 = engine.Begin(IsolationLevel::kSI);
  engine.Read(s1, txns.FindObject("x"));
  engine.Write(s1, txns.FindObject("y"), 3);
  engine.Commit(s1);

  std::string trace = recorder.ToChromeTrace(txns);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(trace.find("S1 (SI)"), std::string::npos);
  EXPECT_NE(trace.find("R[x]=0@init"), std::string::npos);
  EXPECT_NE(trace.find("W[y]=3"), std::string::npos);
  EXPECT_NE(trace.find("C ts=1"), std::string::npos);
}

// The acceptance property: 200+ recorded engine schedules certified with
// zero theory/execution disagreements, across robust and non-robust
// allocations and several workloads.
TEST(RoundTripPropertyTest, RecordedRunsAgreeWithTheory) {
  struct Case {
    const char* name;
    TransactionSet txns;
    Allocation alloc;
    int runs;
    bool expect_robust;
  };
  std::vector<Case> cases;
  {
    TransactionSet txns = WriteSkewTxns();
    Allocation si = Allocation::AllSI(txns.size());
    cases.push_back({"write-skew A_SI", std::move(txns), si, 80, false});
  }
  {
    TransactionSet txns = WriteSkewTxns();
    Allocation ssi = Allocation::AllSSI(txns.size());
    cases.push_back(
        {"write-skew A_SSI", std::move(txns), ssi, 60, true});
  }
  {
    StatusOr<Workload> workload =
        MakeNamedWorkload("synthetic:n=5,o=4,w=40,h=30,seed=3");
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    Allocation rc = Allocation::AllRC(workload->txns.size());
    cases.push_back(
        {"synthetic A_RC", std::move(workload->txns), rc, 60, false});
  }
  {
    StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=2");
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    Allocation ssi = Allocation::AllSSI(workload->txns.size());
    cases.push_back(
        {"smallbank A_SSI", std::move(workload->txns), ssi, 40, true});
  }

  uint64_t total_runs = 0;
  uint64_t total_certified = 0;
  for (const Case& test_case : cases) {
    RoundTripOptions options;
    options.runs = test_case.runs;
    options.seed = 42;
    StatusOr<RoundTripReport> report =
        ValidateEngineRuns(test_case.txns, test_case.alloc, options);
    ASSERT_TRUE(report.ok())
        << test_case.name << ": " << report.status().ToString();
    EXPECT_EQ(report->disagreements, 0u)
        << test_case.name << ":\n" << report->ToString();
    EXPECT_EQ(report->allocation_robust, test_case.expect_robust)
        << test_case.name;
    if (test_case.expect_robust) {
      // Robustness is subset-closed: a robust verdict forbids anomalies in
      // every committed run.
      EXPECT_EQ(report->anomalous_runs, 0u)
          << test_case.name << ":\n" << report->ToString();
    }
    EXPECT_EQ(report->runs, static_cast<uint64_t>(test_case.runs));
    total_runs += report->runs;
    total_certified += report->certified;
  }
  // The acceptance bar: at least 200 recorded schedules certified.
  EXPECT_GE(total_runs, 200u);
  EXPECT_EQ(total_certified, total_runs);
}

// The non-robust write-skew workload actually produces anomalous runs that
// the validator certifies as non-serializable (rather than never seeing
// one and passing vacuously).
TEST(RoundTripPropertyTest, AnomaliesAreObservedAndCertified) {
  TransactionSet txns = WriteSkewTxns();
  RoundTripOptions options;
  options.runs = 60;
  options.seed = 1;
  StatusOr<RoundTripReport> report =
      ValidateEngineRuns(txns, Allocation::AllSI(txns.size()), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->disagreements, 0u) << report->ToString();
  EXPECT_FALSE(report->allocation_robust);
  EXPECT_GT(report->anomalous_runs, 0u)
      << "write skew under A_SI never produced an anomaly in 60 runs: "
      << report->ToString();
}

// The recorder observes the many-core engine on its worker threads: the
// log must still parse back verbatim and rebuild the same committed
// schedule the engine exports (begins in id order, each session's events
// in program order).
TEST(ConcurrentRecordingTest, WorkerEventsRoundTripThroughTheText) {
  StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=4");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const TransactionSet& txns = workload->txns;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    ScheduleRecorder recorder;
    ConcurrentEngineOptions engine_options;
    engine_options.observers = {&recorder};
    ConcurrentEngine engine(txns.num_objects(), /*num_workers=*/4,
                            engine_options);
    RandomRunOptions run_options;
    run_options.seed = seed;
    RunConcurrent(engine, txns, Allocation::AllSI(txns.size()), run_options);
    ASSERT_EQ(recorder.dropped(), 0u);

    StatusOr<std::vector<EngineEvent>> parsed =
        ParseRecordedSchedule(recorder.ToText(txns), txns);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, recorder.Events());

    StatusOr<ExportedRun> from_log =
        BuildRunFromRecording(recorder.Events(), txns);
    StatusOr<ExportedRun> from_engine =
        ExportCommittedSessions(engine.SessionSnapshot(), txns);
    ASSERT_EQ(from_log.ok(), from_engine.ok()) << seed;
    if (!from_engine.ok()) continue;
    StatusOr<Schedule> replayed = from_log->BuildSchedule();
    StatusOr<Schedule> exported = from_engine->BuildSchedule();
    ASSERT_EQ(replayed.ok(), exported.ok()) << seed;
    if (!exported.ok()) continue;
    EXPECT_EQ(replayed->ToString(/*with_versions=*/true),
              exported->ToString(/*with_versions=*/true));
  }
}

}  // namespace
}  // namespace mvrob
