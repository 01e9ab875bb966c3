#ifndef MVROB_MVCC_CONCURRENT_DRIVER_H_
#define MVROB_MVCC_CONCURRENT_DRIVER_H_

#include "iso/allocation.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/driver.h"
#include "txn/transaction_set.h"

namespace mvrob {

/// The many-core counterpart of RunRandom: executes `programs` under
/// `alloc` on engine.num_workers() OS threads, each worker driving its own
/// round-robin share of the programs through the sharded engine.
///
/// Differences from the deterministic driver:
///
///  - scheduling is the OS scheduler, not a seeded shuffle, so runs are
///    NOT reproducible step for step (the seed still fixes each worker's
///    program order and value stream). Correctness is checked after the
///    fact: the recorded run must round-trip through the validator and be
///    equivalent to a deterministic interleaving (mvcc/roundtrip.h);
///  - no-wait locking: a write that hits a foreign row lock aborts the
///    attempt and retries after a yield instead of waiting, so there are
///    no cross-thread wait cycles to detect. The abort carries cause
///    kNoWaitLockConflict (the lock_conflict abort series); it is counted
///    in DriverReport::lock_conflicts and does not consume the program's
///    retry budget — only engine-initiated aborts (first-updater-wins,
///    SSI) do.
///
/// Honors options.max_retries, max_steps (approximately: the budget is
/// checked in small batches per worker), seed, stop, continuous, metrics,
/// tracer and watchdog. options.concurrency is ignored — the effective
/// concurrency is the engine's worker count. session_of_program is left
/// empty.
DriverReport RunConcurrent(ConcurrentEngine& engine,
                           const TransactionSet& programs,
                           const Allocation& alloc,
                           const RandomRunOptions& options);

}  // namespace mvrob

#endif  // MVROB_MVCC_CONCURRENT_DRIVER_H_
