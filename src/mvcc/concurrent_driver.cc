#include "mvcc/concurrent_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/watchdog.h"
#include "mvcc/txn_trace.h"

namespace mvrob {
namespace {

/// Workers settle their local step count against the shared budget in
/// batches, so the hot loop does not contend on one atomic per operation.
constexpr uint64_t kStepBatch = 256;

/// Decorrelates per-worker rng streams derived from one seed
/// (splitmix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t worker) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (worker + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

DriverReport RunConcurrent(ConcurrentEngine& engine,
                           const TransactionSet& programs,
                           const Allocation& alloc,
                           const RandomRunOptions& options) {
  PhaseTimer timer(options.metrics, "driver.run_concurrent");
  const size_t workers = engine.num_workers();
  TxnTracer* tracer = options.tracer;
  if (tracer != nullptr) tracer->BeginRun(programs);

  std::atomic<uint64_t> shared_steps{0};
  std::atomic<bool> out_of_budget{false};
  auto stop_requested = [&]() {
    return out_of_budget.load(std::memory_order_relaxed) ||
           (options.stop != nullptr &&
            options.stop->load(std::memory_order_relaxed));
  };

  std::mutex report_mu;
  DriverReport report;

  auto worker_fn = [&](size_t w) {
    // Visible to the sampling profiler / stack dumps under a stable role,
    // and stall-monitored: the scope is re-armed every settled step batch,
    // so a worker wedged inside the engine (latch cycle, stuck commit)
    // trips the watchdog with this thread's stack.
    ProfiledThreadScope profile_scope(StrCat("engine.worker.", w));
    WatchdogScope watch(options.watchdog, "engine.worker",
                        std::chrono::seconds(10));
    Rng rng(MixSeed(options.seed, w));
    std::vector<TxnId> mine;
    for (TxnId t = static_cast<TxnId>(w); t < programs.size();
         t += static_cast<TxnId>(workers)) {
      mine.push_back(t);
    }
    std::shuffle(mine.begin(), mine.end(), rng.engine());

    DriverReport local;
    uint64_t local_steps = 0;
    // Disjoint per-worker value streams keep written values unique
    // process-wide without sharing a counter.
    Value next_value = (static_cast<Value>(w) << 40) + 1;

    auto count_step = [&]() {
      if (++local_steps < kStepBatch) return;
      uint64_t total =
          shared_steps.fetch_add(local_steps, std::memory_order_relaxed) +
          local_steps;
      local_steps = 0;
      watch.Heartbeat();
      if (total >= options.max_steps) {
        out_of_budget.store(true, std::memory_order_relaxed);
      }
    };
    // Runs one program to commit (or until it gives up / the run stops).
    auto run_program = [&](TxnId t) {
      const Transaction& program = programs.txn(t);
      int retries_left = options.max_retries;
      uint64_t flow = 0;
      if (tracer != nullptr) flow = tracer->StartFlow(t, alloc.level(t));
      while (!stop_requested()) {
        SessionId session = engine.Begin(w, alloc.level(t));
        ++local.attempts;
        if (tracer != nullptr) {
          tracer->BeginAttempt(flow, session, t, alloc.level(t));
        }
        bool aborted = false;
        bool lock_conflict = false;
        bool committed = false;
        for (int i = 0; !aborted && !committed; ++i) {
          const Operation& op = program.op(i);
          count_step();
          if (op.IsRead()) {
            engine.Read(w, op.object);
          } else if (op.IsWrite()) {
            WriteResult result = engine.Write(w, op.object, next_value++);
            if (result.status == StepStatus::kBlocked) {
              // No-wait: abort this attempt and retry after a yield. Does
              // not consume the retry budget (the deterministic driver
              // would have waited here, not aborted).
              ++local.blocked_steps;
              engine.Abort(w, TraceAbortCause::kNoWaitLockConflict);
              aborted = true;
              lock_conflict = true;
            } else if (result.status == StepStatus::kAborted) {
              aborted = true;
            }
          } else {
            committed = engine.Commit(w).status == StepStatus::kOk;
            aborted = !committed;
          }
        }
        if (committed) {
          if (tracer != nullptr) tracer->EndFlow(flow, true);
          ++local.committed;
          return;
        }
        if (lock_conflict) {
          ++local.lock_conflicts;
          std::this_thread::yield();
          continue;
        }
        if (retries_left-- <= 0) {
          ++local.aborted_programs;
          if (tracer != nullptr) tracer->EndFlow(flow, false);
          return;
        }
      }
      // Stopped mid-flight (or gave up above): close the flow if still
      // open — EndFlow is idempotent.
      if (tracer != nullptr) tracer->EndFlow(flow, false);
    };

    do {
      for (TxnId t : mine) {
        if (stop_requested()) break;
        run_program(t);
      }
    } while (options.continuous && !stop_requested() && !mine.empty());

    // Flush the step remainder and merge the worker's tallies.
    shared_steps.fetch_add(local_steps, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(report_mu);
    report.committed += local.committed;
    report.aborted_programs += local.aborted_programs;
    report.attempts += local.attempts;
    report.blocked_steps += local.blocked_steps;
    report.lock_conflicts += local.lock_conflicts;
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back(worker_fn, w);
  }
  for (std::thread& thread : threads) thread.join();

  if (MetricsRegistry* metrics = options.metrics; metrics != nullptr) {
    metrics->counter("driver.runs").Increment();
    metrics->counter("driver.committed").Add(report.committed);
    metrics->counter("driver.attempts").Add(report.attempts);
    metrics->counter("driver.aborted_programs").Add(report.aborted_programs);
    metrics->counter("driver.lock_conflicts").Add(report.lock_conflicts);
    metrics->counter("driver.blocked_steps").Add(report.blocked_steps);
  }
  return report;
}

}  // namespace mvrob
