// Tests for the sampled transaction tracer (mvcc/txn_trace.h): direct
// engine-level attribution of first-updater-wins and SSI aborts, sampler
// determinism on the deterministic driver, ring bounds, the aggregated
// conflict table, the /trace JSON payload (golden, schema v1) and the
// Chrome flow events linking retries.
//
// Regenerate the golden with MVROB_UPDATE_GOLDEN=1 ./txn_trace_test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "mvcc/concurrent_driver.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/driver.h"
#include "mvcc/engine.h"
#include "mvcc/txn_trace.h"
#include "txn/parser.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

// Deterministic span clock: timestamps advance by a fixed step per call,
// so golden exports are stable across machines and runs.
uint64_t g_fake_now = 0;
uint64_t FakeClock() { return g_fake_now += 7; }

TxnTracerOptions FakeClockOptions(uint64_t sample_every_n = 1) {
  TxnTracerOptions options;
  options.sample_every_n = sample_every_n;
  options.clock_us = &FakeClock;
  return options;
}

// ---------------------------------------------------------------------------
// Engine-level attribution (direct sessions, no driver).

TEST(TxnTraceTest, FirstUpdaterWinsAbortNamesTheWinningWriter) {
  TransactionSet txns = Parse("T1: W[x]\nT2: W[x]");
  TxnTracer tracer(FakeClockOptions());
  tracer.BeginRun(txns);

  EngineOptions options;
  options.observers = {&tracer};
  Engine engine(txns.num_objects(), options);

  const uint64_t flow1 = tracer.StartFlow(0, IsolationLevel::kRC);
  SessionId winner = engine.Begin(IsolationLevel::kRC);
  tracer.BeginAttempt(flow1, winner, 0, IsolationLevel::kRC);
  const uint64_t flow2 = tracer.StartFlow(1, IsolationLevel::kSI);
  SessionId victim = engine.Begin(IsolationLevel::kSI);
  tracer.BeginAttempt(flow2, victim, 1, IsolationLevel::kSI);

  (void)engine.Read(victim, 0);  // Snapshot before the winner commits.
  ASSERT_EQ(engine.Write(winner, 0, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(winner).status, StepStatus::kOk);
  tracer.EndFlow(flow1, true);

  WriteResult result = engine.Write(victim, 0, 2);
  ASSERT_EQ(result.status, StepStatus::kAborted);
  ASSERT_EQ(result.abort_reason, AbortReason::kWriteConflict);
  tracer.EndFlow(flow2, false);

  EXPECT_EQ(tracer.aborts_attributed(), 1u);
  std::vector<TraceConflictRow> rows = tracer.TopConflicts(4);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].victim, "T2");
  EXPECT_EQ(rows[0].victim_level, IsolationLevel::kSI);
  EXPECT_EQ(rows[0].conflicting, "T1");
  EXPECT_EQ(rows[0].conflicting_level, IsolationLevel::kRC);
  EXPECT_EQ(rows[0].type, ConflictType::kWW);
  EXPECT_EQ(rows[0].cause, TraceAbortCause::kFirstUpdaterWins);
  EXPECT_EQ(rows[0].count, 1u);

  // The victim's attempt span carries the full attribution, including the
  // commit timestamp of the version that beat it.
  std::vector<TxnTrace> traces = tracer.CompletedTraces();
  ASSERT_EQ(traces.size(), 2u);
  const TxnTrace& lost = traces[1];
  ASSERT_EQ(lost.attempts.size(), 1u);
  ASSERT_TRUE(lost.attempts[0].attributed);
  EXPECT_EQ(lost.attempts[0].conflicting_txn, "T1");
  EXPECT_EQ(lost.attempts[0].attribution.conflicting_session, winner);
  EXPECT_EQ(lost.attempts[0].attribution.object, 0u);
  EXPECT_GT(lost.attempts[0].attribution.version_ts, 0u);
  EXPECT_EQ(lost.attempts[0].attribution.type, ConflictType::kWW);
}

TEST(TxnTraceTest, SsiAbortIsAttributedAlongTheRwEdge) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  TxnTracer tracer(FakeClockOptions());
  tracer.BeginRun(txns);

  EngineOptions options;
  options.observers = {&tracer};
  Engine engine(txns.num_objects(), options);

  const uint64_t flow1 = tracer.StartFlow(0, IsolationLevel::kSSI);
  SessionId t1 = engine.Begin(IsolationLevel::kSSI);
  tracer.BeginAttempt(flow1, t1, 0, IsolationLevel::kSSI);
  const uint64_t flow2 = tracer.StartFlow(1, IsolationLevel::kSSI);
  SessionId t2 = engine.Begin(IsolationLevel::kSSI);
  tracer.BeginAttempt(flow2, t2, 1, IsolationLevel::kSSI);

  (void)engine.Read(t1, 0);
  (void)engine.Read(t2, 1);
  ASSERT_EQ(engine.Write(t1, 1, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(t2, 0, 2).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(t1).status, StepStatus::kOk);
  tracer.EndFlow(flow1, true);

  CommitResult second = engine.Commit(t2);
  ASSERT_EQ(second.status, StepStatus::kAborted);
  ASSERT_EQ(second.abort_reason, AbortReason::kSsiDangerousStructure);
  tracer.EndFlow(flow2, false);

  EXPECT_EQ(tracer.aborts_attributed(), 1u);
  std::vector<TraceConflictRow> rows = tracer.TopConflicts(4);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].victim, "T2");
  EXPECT_EQ(rows[0].conflicting, "T1");
  EXPECT_EQ(rows[0].type, ConflictType::kRW);
  EXPECT_EQ(rows[0].cause, TraceAbortCause::kSsiDangerousStructure);
}

// ---------------------------------------------------------------------------
// Sampling.

TEST(TxnTraceTest, HeadBasedSamplingIsOneInN) {
  TxnTracer tracer(FakeClockOptions(/*sample_every_n=*/4));
  TransactionSet txns = Parse("T1: R[x]");
  tracer.BeginRun(txns);
  int sampled = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t flow = tracer.StartFlow(0, IsolationLevel::kRC);
    // Instances 0, 4, 8 are sampled: head-based, starting at the head.
    EXPECT_EQ(flow != 0, i % 4 == 0) << i;
    if (flow != 0) ++sampled;
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(tracer.flows_started(), 10u);
  EXPECT_EQ(tracer.flows_sampled(), 3u);
}

TEST(TxnTraceTest, UnsampledAbortsStillFeedTheConflictTable) {
  // Sampling gates the span ring, not attribution: with 1-in-1000000
  // sampling every abort still lands in the aggregated table.
  TransactionSet txns = Parse("T1: W[x]\nT2: W[x]");
  TxnTracer tracer(FakeClockOptions(/*sample_every_n=*/1'000'000));
  tracer.BeginRun(txns);

  EngineOptions options;
  options.observers = {&tracer};
  Engine engine(txns.num_objects(), options);

  (void)tracer.StartFlow(0, IsolationLevel::kSI);  // Instance 0: sampled.
  uint64_t unsampled = tracer.StartFlow(1, IsolationLevel::kSI);
  EXPECT_EQ(unsampled, 0u);

  SessionId winner = engine.Begin(IsolationLevel::kSI);
  tracer.BeginAttempt(0, winner, 0, IsolationLevel::kSI);
  SessionId victim = engine.Begin(IsolationLevel::kSI);
  tracer.BeginAttempt(unsampled, victim, 1, IsolationLevel::kSI);
  (void)engine.Read(victim, 0);
  ASSERT_EQ(engine.Write(winner, 0, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(winner).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(victim, 0, 2).status, StepStatus::kAborted);

  EXPECT_EQ(tracer.aborts_attributed(), 1u);
  std::vector<TraceConflictRow> rows = tracer.TopConflicts(1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].victim, "T2");
  EXPECT_EQ(rows[0].conflicting, "T1");
  // But no span was recorded for the unsampled victim.
  EXPECT_TRUE(tracer.CompletedTraces().empty());
}

// A high-contention workload for driver-level tests: every transaction
// writes the single hot object, so retries and attributed aborts are
// plentiful at any seed.
constexpr const char* kHotSpot =
    "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[x] W[x]\nT4: W[x] W[y]";

std::string TracedRunStatus(uint64_t seed, uint64_t sample_every_n) {
  TransactionSet txns = Parse(kHotSpot);
  g_fake_now = 0;
  TxnTracer tracer(FakeClockOptions(sample_every_n));

  EngineOptions engine_options;
  engine_options.observers = {&tracer};
  Engine engine(txns.num_objects(), engine_options);

  RandomRunOptions options;
  options.concurrency = 4;
  options.seed = seed;
  options.tracer = &tracer;
  RunRandom(engine, txns, Allocation::AllSI(txns.size()), options);
  return tracer.StatusJson();
}

TEST(TxnTraceTest, SamplerAndSpansAreDeterministicOnTheDriver) {
  // Same seed, fresh engine + tracer: byte-identical /trace payloads,
  // timestamps included (fake clock) — the reproducibility the head-based
  // sampler promises on the deterministic driver.
  const std::string first = TracedRunStatus(/*seed=*/3, /*sample_every_n=*/2);
  const std::string second = TracedRunStatus(/*seed=*/3, /*sample_every_n=*/2);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"attribution\""), std::string::npos)
      << "hot-spot run produced no attributed abort span: " << first;

  // A different seed interleaves differently.
  const std::string other = TracedRunStatus(/*seed=*/4, /*sample_every_n=*/2);
  EXPECT_NE(first, other);
}

TEST(TxnTraceTest, TracingDoesNotChangeTheRun) {
  // The cost contract: attaching a tracer never changes scheduling or
  // outcomes. Same seed with and without a tracer, identical reports.
  TransactionSet txns = Parse(kHotSpot);
  DriverReport plain;
  DriverReport traced;
  {
    Engine engine(txns.num_objects());
    RandomRunOptions options;
    options.seed = 11;
    plain = RunRandom(engine, txns, Allocation::AllSI(txns.size()), options);
  }
  {
    TxnTracer tracer(FakeClockOptions());
    EngineOptions engine_options;
    engine_options.observers = {&tracer};
    Engine engine(txns.num_objects(), engine_options);
    RandomRunOptions options;
    options.seed = 11;
    options.tracer = &tracer;
    traced = RunRandom(engine, txns, Allocation::AllSI(txns.size()), options);
  }
  EXPECT_EQ(plain.committed, traced.committed);
  EXPECT_EQ(plain.attempts, traced.attempts);
  EXPECT_EQ(plain.blocked_steps, traced.blocked_steps);
  EXPECT_EQ(plain.deadlock_victims, traced.deadlock_victims);
  EXPECT_EQ(plain.lock_conflicts, traced.lock_conflicts);
}

// ---------------------------------------------------------------------------
// Bounds.

TEST(TxnTraceTest, CompletedRingIsBoundedAndCountsDrops) {
  TransactionSet txns = Parse("T1: R[x]");
  TxnTracerOptions options = FakeClockOptions();
  options.ring_capacity = 2;
  TxnTracer tracer(options);
  tracer.BeginRun(txns);
  for (int i = 0; i < 5; ++i) {
    uint64_t flow = tracer.StartFlow(0, IsolationLevel::kRC);
    ASSERT_NE(flow, 0u);
    tracer.BeginAttempt(flow, static_cast<SessionId>(i), 0,
                        IsolationLevel::kRC);
    tracer.OnEvent({.kind = EngineEventKind::kCommit,
                    .session = static_cast<SessionId>(i)});
    tracer.EndFlow(flow, true);
  }
  std::vector<TxnTrace> traces = tracer.CompletedTraces();
  ASSERT_EQ(traces.size(), 2u);
  // Oldest dropped: the ring keeps the most recent flows.
  EXPECT_EQ(traces[0].flow_id, 4u);
  EXPECT_EQ(traces[1].flow_id, 5u);
  EXPECT_NE(tracer.StatusJson().find("\"completed_dropped\":3"),
            std::string::npos);
}

TEST(TxnTraceTest, PerAttemptOpsAreBounded) {
  TransactionSet txns = Parse("T1: R[x]");
  TxnTracerOptions options = FakeClockOptions();
  options.max_ops_per_attempt = 3;
  TxnTracer tracer(options);
  tracer.BeginRun(txns);
  uint64_t flow = tracer.StartFlow(0, IsolationLevel::kRC);
  tracer.BeginAttempt(flow, 0, 0, IsolationLevel::kRC);
  for (int i = 0; i < 10; ++i) {
    tracer.OnEvent({.kind = EngineEventKind::kRead, .session = 0, .object = 0});
  }
  tracer.OnEvent({.kind = EngineEventKind::kCommit, .session = 0});
  tracer.EndFlow(flow, true);
  std::vector<TxnTrace> traces = tracer.CompletedTraces();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].attempts.size(), 1u);
  EXPECT_EQ(traces[0].attempts[0].ops.size(), 3u);
  EXPECT_EQ(traces[0].attempts[0].ops_dropped, 7u);
}

TEST(TxnTraceTest, TopConflictsSortsByCountWithDeterministicTies) {
  TransactionSet txns = Parse("T1: W[x]\nT2: W[x]\nT3: W[x]");
  TxnTracer tracer(FakeClockOptions());
  tracer.BeginRun(txns);
  // Register sessions 0..2 as T1..T3 (unsampled flows are fine).
  for (SessionId s = 0; s < 3; ++s) {
    tracer.BeginAttempt(0, s, static_cast<TxnId>(s), IsolationLevel::kSI);
  }
  ConflictAttribution a;
  a.object = 0;
  a.type = ConflictType::kWW;
  a.cause = TraceAbortCause::kFirstUpdaterWins;
  a.conflicting_session = 1;
  auto abort = [&](SessionId victim) {
    tracer.OnEvent({.kind = EngineEventKind::kAbort,
                    .session = victim,
                    .reason = AbortReason::kWriteConflict,
                    .attribution = a});
  };
  abort(0);  // T1 <- T2, twice.
  abort(0);
  a.conflicting_session = 0;
  abort(2);  // T3 <- T1, once.

  std::vector<TraceConflictRow> rows = tracer.TopConflicts(8);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].victim, "T1");
  EXPECT_EQ(rows[0].conflicting, "T2");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[1].victim, "T3");
  EXPECT_EQ(rows[1].count, 1u);
  // k truncates.
  EXPECT_EQ(tracer.TopConflicts(1).size(), 1u);
}

// ---------------------------------------------------------------------------
// Exports.

std::string GoldenPath(const std::string& name) {
  return std::string(MVROB_GOLDEN_DIR) + "/" + name;
}

void CompareGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("MVROB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    return;
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good())
      << "missing golden file " << path
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 ./txn_trace_test";
  std::ostringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "golden mismatch for " << name
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 ./txn_trace_test if the "
         "change is intended";
}

TEST(TxnTraceGoldenTest, StatusJsonSchemaV1) {
  // One deterministic hot-spot run pins the full /trace payload: schema
  // keys, conflict-table rows, attempt spans with attribution, ops.
  // The fake clock makes timestamps reproducible.
  CompareGolden("hotspot.trace.json",
                TracedRunStatus(/*seed=*/3, /*sample_every_n=*/1));
}

TEST(TxnTraceTest, ChromeFlowEventsLinkRetries) {
  // Attempt spans go out as "X" events; a flow with >= 2 attempts gets
  // an s/t/f flow-event chain under its flow id, so Perfetto renders the
  // retries of one logical transaction as connected arrows.
  TransactionSet txns = Parse(kHotSpot);
  g_fake_now = 0;
  TxnTracer tracer(FakeClockOptions());
  EngineOptions engine_options;
  engine_options.observers = {&tracer};
  Engine engine(txns.num_objects(), engine_options);
  RandomRunOptions options;
  options.concurrency = 4;
  options.seed = 3;
  options.tracer = &tracer;
  RunRandom(engine, txns, Allocation::AllSI(txns.size()), options);

  uint64_t retried_flow = 0;
  for (const TxnTrace& trace : tracer.CompletedTraces()) {
    if (trace.attempts.size() >= 2) retried_flow = trace.flow_id;
  }
  ASSERT_NE(retried_flow, 0u) << "hot-spot run produced no retries";

  JsonWriter json;
  json.BeginArray();
  tracer.WriteChromeEvents(json);
  json.EndArray();
  const std::string events = json.str();
  const std::string id = "\"id\":" + std::to_string(retried_flow);
  EXPECT_NE(events.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(events.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(events.find(id), std::string::npos);
  EXPECT_NE(events.find("\"cat\":\"txn\""), std::string::npos);
  EXPECT_NE(events.find("\"conflict_cause\":\"first_updater_wins\""),
            std::string::npos);
}

TEST(TxnTraceTest, MetricsCountersTrackTheTracer) {
  MetricsRegistry registry;
  TxnTracerOptions options = FakeClockOptions(/*sample_every_n=*/2);
  options.metrics = &registry;
  TxnTracer tracer(options);
  TransactionSet txns = Parse("T1: W[x]\nT2: W[x]");
  tracer.BeginRun(txns);
  EngineOptions engine_options;
  engine_options.observers = {&tracer};
  Engine engine(txns.num_objects(), engine_options);

  uint64_t flow = tracer.StartFlow(0, IsolationLevel::kSI);  // Sampled.
  SessionId victim = engine.Begin(IsolationLevel::kSI);
  tracer.BeginAttempt(flow, victim, 0, IsolationLevel::kSI);
  (void)tracer.StartFlow(1, IsolationLevel::kSI);  // Unsampled.
  SessionId winner = engine.Begin(IsolationLevel::kSI);
  tracer.BeginAttempt(0, winner, 1, IsolationLevel::kSI);
  (void)engine.Read(victim, 0);
  ASSERT_EQ(engine.Write(winner, 0, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(winner).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(victim, 0, 2).status, StepStatus::kAborted);
  tracer.EndFlow(flow, false);

  const std::string snapshot = registry.SnapshotJson();
  EXPECT_NE(snapshot.find("\"trace.flows_started\":2"), std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find("\"trace.flows_sampled\":1"), std::string::npos);
  EXPECT_NE(snapshot.find("\"trace.attempts_sampled\":1"), std::string::npos);
  EXPECT_NE(snapshot.find("\"trace.aborts_attributed{type=ww}\":1"),
            std::string::npos);
}

// The tracer reads attempts from the many-core engine's event stream on
// the worker threads: every sampled attempt is closed by its commit or
// abort event, and a no-wait kill is attributed to the lock holder on the
// object of the attempt's last (blocked) op.
TEST(ConcurrentTracingTest, LockConflictSpansCloseOnWorkerThreads) {
  StatusOr<Workload> workload =
      MakeNamedWorkload("ycsb:a,n=16,k=4,theta=0.99");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const TransactionSet& txns = workload->txns;
  TxnTracerOptions tracer_options;
  tracer_options.ring_capacity = 4096;
  TxnTracer tracer(tracer_options);

  bool saw_lock_conflict = false;
  for (int round = 0; round < 50 && !saw_lock_conflict; ++round) {
    ConcurrentEngineOptions engine_options;
    engine_options.observers = {&tracer};
    ConcurrentEngine engine(txns.num_objects(), /*num_workers=*/4,
                            engine_options);
    RandomRunOptions run_options;
    run_options.seed = 5 + static_cast<uint64_t>(round);
    run_options.continuous = true;
    run_options.max_steps = 20'000;
    run_options.tracer = &tracer;
    RunConcurrent(engine, txns, Allocation::AllRC(txns.size()), run_options);

    for (const TxnTrace& trace : tracer.CompletedTraces()) {
      if (trace.attempts.empty()) continue;  // Stopped before its Begin.
      for (const TxnAttempt& attempt : trace.attempts) {
        EXPECT_GE(attempt.end_us, attempt.begin_us);
        EXPECT_TRUE(attempt.committed ||
                    attempt.abort_reason != AbortReason::kNone);
        if (!attempt.attributed ||
            attempt.attribution.cause != TraceAbortCause::kNoWaitLockConflict) {
          continue;
        }
        saw_lock_conflict = true;
        ASSERT_FALSE(attempt.ops.empty());
        const TraceOp& last = attempt.ops.back();
        EXPECT_EQ(last.kind, TraceOpKind::kBlocked);
        EXPECT_EQ(last.object, attempt.attribution.object);
        EXPECT_EQ(last.blocker, attempt.attribution.conflicting_session);
      }
      // Past max_attempts_per_flow the committing attempt is not stored.
      if (trace.attempts_dropped == 0) {
        EXPECT_EQ(trace.committed, trace.attempts.back().committed);
      }
    }
  }
  EXPECT_TRUE(saw_lock_conflict);
}

}  // namespace
}  // namespace mvrob
