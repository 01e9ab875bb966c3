#ifndef MVROB_MVCC_DRIVER_H_
#define MVROB_MVCC_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "iso/allocation.h"
#include "mvcc/engine.h"
#include "txn/transaction_set.h"

namespace mvrob {

class TxnTracer;
class Watchdog;

/// Summary of a driver run.
struct DriverReport {
  uint64_t committed = 0;
  uint64_t aborted_programs = 0;  // Programs that exhausted their retries.
  uint64_t attempts = 0;          // Sessions started (retries included).
  uint64_t blocked_steps = 0;
  /// Wait-cycle victims of the deterministic driver.
  uint64_t deadlock_victims = 0;
  /// No-wait lock-conflict kills of the concurrent driver.
  uint64_t lock_conflicts = 0;
  /// For exact runs: the session executing each program transaction.
  std::vector<SessionId> session_of_program;
};

/// Replays an exact operation interleaving (an order over `programs` as
/// accepted by Schedule::Create) against the engine, one engine call per
/// operation. Each program transaction starts its session at its first
/// operation, so SI/SSI snapshots anchor at first(T) exactly as in the
/// formal model.
///
/// Fails with FailedPrecondition if any step blocks or aborts — callers
/// replay schedules (e.g. Algorithm 1 counterexamples) that are expected to
/// run clean, and a refusal is itself meaningful signal.
StatusOr<DriverReport> RunExactInterleaving(Engine& engine,
                                            const TransactionSet& programs,
                                            const Allocation& alloc,
                                            const std::vector<OpRef>& order);

/// Options for randomized concurrent execution.
struct RandomRunOptions {
  /// Programs concurrently in flight.
  int concurrency = 4;
  /// Retries per program after engine-initiated aborts.
  int max_retries = 5;
  uint64_t seed = 0;
  /// Hard stop (steps across all sessions) against livelock.
  uint64_t max_steps = 10'000'000;
  /// Optional observability sink for driver-level counters (driver.runs,
  /// driver.committed, ...) and the driver.run_random phase span. Null
  /// disables; does not affect the run.
  MetricsRegistry* metrics = nullptr;
  /// Cooperative cancellation: when non-null, checked between steps, and
  /// the run returns as soon as it is set. Required for serve mode, where
  /// the loop otherwise never ends.
  const std::atomic<bool>* stop = nullptr;
  /// Continuous (serve) mode: a program that commits or exhausts its
  /// retries is reset and re-enqueued, so the run ends only via `stop` or
  /// `max_steps`. Version GC is epoch-driven (see commits_per_epoch) to
  /// keep the version store bounded. Scheduling stays deterministic for a
  /// fixed seed and step budget.
  bool continuous = false;
  /// Engine worker threads. 1 selects the deterministic single-threaded
  /// driver (RunRandom); > 1 selects the many-core engine path
  /// (RunConcurrent in mvcc/concurrent_driver.h), which executes programs
  /// on engine_threads OS threads. Ignored by RunRandom itself.
  int engine_threads = 1;
  // Note: key-space sharding is an engine-construction knob, not a run
  // knob — set ConcurrentEngineOptions::num_shards (CLI --engine-shards)
  // when building the ConcurrentEngine.
  /// Continuous mode: commits per version-reclamation epoch. Every
  /// commits_per_epoch commits the driver (or the concurrent engine)
  /// reclaims versions below the oldest live snapshot and logs one
  /// structured "mvcc.gc" line with the reclaimed count. 0 disables GC.
  uint64_t commits_per_epoch = 4096;
  /// Optional transaction tracer (mvcc/txn_trace.h). The driver reports
  /// only the flow lifecycle — one flow per logical program execution, one
  /// attempt per engine session; attach the same tracer to the engine's
  /// observers for the attempts' ops, ends and abort attributions. Null
  /// disables tracing; attaching a tracer never changes scheduling — runs
  /// stay bit-identical.
  TxnTracer* tracer = nullptr;
  /// Optional stall watchdog (common/watchdog.h). The drivers register a
  /// heartbeat-carrying scope per driving thread and beat it as steps
  /// retire, so a wedged engine phase (latch cycle, runaway GC sweep)
  /// surfaces as a symbolized stall dump instead of silent hang. Null
  /// (the default) disables monitoring; like tracer/metrics, attaching it
  /// never changes the run.
  Watchdog* watchdog = nullptr;
};

/// Executes every program of `programs` once (plus retries) under the
/// allocation, interleaving up to `concurrency` sessions uniformly at
/// random. Blocked sessions wait for their blocker; deadlocks are broken by
/// aborting the youngest session (Engine::Abort with kDeadlockVictim),
/// which then retries. The throughput
/// benchmarks measure commits against engine steps and wall time.
DriverReport RunRandom(Engine& engine, const TransactionSet& programs,
                       const Allocation& alloc,
                       const RandomRunOptions& options);

}  // namespace mvrob

#endif  // MVROB_MVCC_DRIVER_H_
