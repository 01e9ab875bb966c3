#include "mvcc/driver.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/watchdog.h"
#include "mvcc/txn_trace.h"

namespace mvrob {

StatusOr<DriverReport> RunExactInterleaving(Engine& engine,
                                            const TransactionSet& programs,
                                            const Allocation& alloc,
                                            const std::vector<OpRef>& order) {
  DriverReport report;
  report.session_of_program.assign(programs.size(), kInvalidSessionId);

  Value next_value = 1;
  for (const OpRef& ref : order) {
    if (ref.IsOp0() || !programs.IsValidRef(ref)) {
      return Status::InvalidArgument("invalid operation reference in order");
    }
    SessionId& session = report.session_of_program[ref.txn];
    if (session == kInvalidSessionId) {
      session = engine.Begin(alloc.level(ref.txn));
      ++report.attempts;
    }
    const Operation& op = programs.op(ref);
    if (op.IsRead()) {
      ReadResult result = engine.Read(session, op.object);
      if (result.status != StepStatus::kOk) {
        return Status::FailedPrecondition(
            StrCat("read of ", programs.FormatOp(ref), " did not succeed"));
      }
    } else if (op.IsWrite()) {
      WriteResult result = engine.Write(session, op.object, next_value++);
      if (result.status == StepStatus::kBlocked) {
        return Status::FailedPrecondition(
            StrCat(programs.FormatOp(ref), " blocked on session ",
                   result.blocker));
      }
      if (result.status == StepStatus::kAborted) {
        return Status::FailedPrecondition(
            StrCat(programs.FormatOp(ref), " aborted"));
      }
    } else {
      CommitResult result = engine.Commit(session);
      if (result.status != StepStatus::kOk) {
        return Status::FailedPrecondition(
            StrCat("commit of ", programs.txn(ref.txn).name(), " aborted"));
      }
      ++report.committed;
    }
  }
  return report;
}

namespace {

// Execution state of one program transaction in the random driver.
struct ProgramState {
  SessionId session = kInvalidSessionId;
  int next_op = 0;
  int retries_left = 0;
  SessionId waiting_on = kInvalidSessionId;
  bool done = false;
  bool gave_up = false;
  // Tracing flow of the current logical execution (0 = unsampled);
  // flow_started survives retries so StartFlow runs once per execution.
  uint64_t flow = 0;
  bool flow_started = false;
};

}  // namespace

DriverReport RunRandom(Engine& engine, const TransactionSet& programs,
                       const Allocation& alloc,
                       const RandomRunOptions& options) {
  PhaseTimer timer(options.metrics, "driver.run_random");
  DriverReport report;
  Rng rng(options.seed);
  Value next_value = 1;

  TxnTracer* tracer = options.tracer;
  if (tracer != nullptr) tracer->BeginRun(programs);

  std::vector<ProgramState> states(programs.size());
  for (ProgramState& state : states) {
    state.retries_left = options.max_retries;
  }
  // Programs not yet admitted to the concurrent window, in random order.
  std::vector<TxnId> pending(programs.size());
  for (TxnId t = 0; t < programs.size(); ++t) pending[t] = t;
  std::shuffle(pending.begin(), pending.end(), rng.engine());
  std::deque<TxnId> queue(pending.begin(), pending.end());

  std::vector<TxnId> window;
  uint64_t steps = 0;
  uint64_t commits_at_last_gc = 0;
  uint64_t gc_epoch = 0;

  auto admit = [&]() {
    while (window.size() < static_cast<size_t>(options.concurrency) &&
           !queue.empty()) {
      window.push_back(queue.front());
      queue.pop_front();
    }
  };
  // Removes a finished program from the window; in continuous mode it is
  // reset and re-enqueued so the workload runs forever.
  auto retire = [&](TxnId t) {
    window.erase(std::find(window.begin(), window.end(), t));
    if (options.continuous) {
      states[t] = ProgramState{};
      states[t].retries_left = options.max_retries;
      queue.push_back(t);
    }
  };
  auto is_runnable = [&](TxnId t) {
    ProgramState& state = states[t];
    if (state.done || state.gave_up) return false;
    if (state.waiting_on == kInvalidSessionId) return true;
    // Re-runnable once the blocker finished.
    if (engine.session(state.waiting_on).state != TxnState::kActive) {
      state.waiting_on = kInvalidSessionId;
      return true;
    }
    return false;
  };
  auto handle_abort = [&](TxnId t) {
    ProgramState& state = states[t];
    state.session = kInvalidSessionId;
    state.next_op = 0;
    state.waiting_on = kInvalidSessionId;
    if (state.retries_left-- <= 0) {
      state.gave_up = true;
      ++report.aborted_programs;
      if (tracer != nullptr) tracer->EndFlow(state.flow, false);
      retire(t);
    }
  };

  auto stop_requested = [&]() {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };

  // Stall monitoring: one scope for the whole run, re-armed every few
  // hundred retired steps. A healthy driver beats many times per second;
  // a wedged engine call leaves the deadline to expire.
  WatchdogScope watch(options.watchdog, "driver.run_random",
                      std::chrono::seconds(10));

  admit();
  while (!window.empty() && steps < options.max_steps && !stop_requested()) {
    if ((steps & 0xFF) == 0) watch.Heartbeat();
    // Pick a runnable program uniformly at random.
    std::vector<TxnId> runnable;
    for (TxnId t : window) {
      if (is_runnable(t)) runnable.push_back(t);
    }
    if (runnable.empty()) {
      // Every in-flight program waits on an active session: deadlock (or a
      // wait chain). Abort the youngest session as victim.
      TxnId victim = window.front();
      uint64_t youngest = 0;
      for (TxnId t : window) {
        const ProgramState& state = states[t];
        if (state.session == kInvalidSessionId) continue;
        uint64_t first = engine.session(state.session).first_step;
        if (first >= youngest) {
          youngest = first;
          victim = t;
        }
      }
      engine.Abort(states[victim].session, TraceAbortCause::kDeadlockVictim);
      ++report.deadlock_victims;
      handle_abort(victim);
      admit();
      continue;
    }
    TxnId t = runnable[rng.Index(runnable.size())];
    ProgramState& state = states[t];
    if (state.session == kInvalidSessionId) {
      if (tracer != nullptr && !state.flow_started) {
        state.flow = tracer->StartFlow(t, alloc.level(t));
        state.flow_started = true;
      }
      state.session = engine.Begin(alloc.level(t));
      ++report.attempts;
      if (tracer != nullptr) {
        tracer->BeginAttempt(state.flow, state.session, t, alloc.level(t));
      }
    }
    const Transaction& program = programs.txn(t);
    const Operation& op = program.op(state.next_op);
    ++steps;
    if (op.IsRead()) {
      engine.Read(state.session, op.object);
      ++state.next_op;
    } else if (op.IsWrite()) {
      WriteResult result = engine.Write(state.session, op.object,
                                        next_value++);
      if (result.status == StepStatus::kOk) {
        ++state.next_op;
      } else if (result.status == StepStatus::kBlocked) {
        ++report.blocked_steps;
        state.waiting_on = result.blocker;
      } else {
        handle_abort(t);
      }
    } else {
      CommitResult result = engine.Commit(state.session);
      if (result.status == StepStatus::kOk) {
        state.done = true;
        ++report.committed;
        if (tracer != nullptr) tracer->EndFlow(state.flow, true);
        retire(t);
        admit();
      } else {
        handle_abort(t);
        admit();
      }
    }
    // Epoch-driven version reclamation in continuous mode: one sweep per
    // commits_per_epoch commits (not per elapsed steps, so an idle or
    // conflict-heavy serve does not churn the store), with a structured
    // log line per reclamation.
    if (options.continuous && options.commits_per_epoch != 0 &&
        report.committed - commits_at_last_gc >= options.commits_per_epoch) {
      commits_at_last_gc = report.committed;
      size_t reclaimed;
      {
        WatchdogScope gc_watch(options.watchdog, "mvcc.gc",
                               std::chrono::seconds(10));
        reclaimed = engine.Vacuum();
      }
      ++gc_epoch;
      if (MetricsRegistry* metrics = options.metrics; metrics != nullptr) {
        metrics->counter("mvcc.gc.epochs").Increment();
        metrics->counter("mvcc.gc.reclaimed").Add(reclaimed);
      }
      Logger& logger = GlobalLogger();
      if (logger.enabled(LogLevel::kInfo)) {
        logger.Log(LogLevel::kInfo, "mvcc.gc", "epoch reclamation",
                   {{"epoch", gc_epoch},
                    {"commits", report.committed},
                    {"reclaimed", static_cast<uint64_t>(reclaimed)}});
      }
    }
  }
  if (MetricsRegistry* metrics = options.metrics; metrics != nullptr) {
    metrics->counter("driver.runs").Increment();
    metrics->counter("driver.committed").Add(report.committed);
    metrics->counter("driver.attempts").Add(report.attempts);
    metrics->counter("driver.aborted_programs").Add(report.aborted_programs);
    metrics->counter("driver.deadlock_victims").Add(report.deadlock_victims);
    metrics->counter("driver.blocked_steps").Add(report.blocked_steps);
  }
  return report;
}

}  // namespace mvrob
