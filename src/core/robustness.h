#ifndef MVROB_CORE_ROBUSTNESS_H_
#define MVROB_CORE_ROBUSTNESS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/mixed_iso_graph.h"
#include "iso/allocation.h"

namespace mvrob {

class MetricsRegistry;
class Watchdog;

/// The witness extracted by Algorithm 1 when a set of transactions is not
/// robust against an allocation: the skeleton of a multiversion split
/// schedule (Definition 3.1) based on the sequence of conflicting quadruples
///
///   (T1, b1, a2, T2), (T2, ., ., T3), ..., (T_{m-1}, ., ., Tm),
///   (Tm, bm, a1, T1)
///
/// with inner transactions T3..T_{m-1} (possibly none; t2 == tm is the
/// two-quadruple case). BuildSplitSchedule turns a chain into a concrete
/// counterexample schedule.
struct CounterexampleChain {
  TxnId t1 = kInvalidTxnId;
  TxnId t2 = kInvalidTxnId;
  TxnId tm = kInvalidTxnId;
  OpRef b1;  // Read in T1, rw-conflicting with a2; T1 is split after b1.
  OpRef a1;  // Operation of T1 that bm conflicts with.
  OpRef a2;  // Write in T2.
  OpRef bm;  // Operation of Tm conflicting with a1.
  std::vector<TxnId> inner;  // T3 ... T_{m-1}, in chain order.

  /// All transactions of the chain in split-schedule order:
  /// t1, t2, inner..., tm (tm omitted when equal to t2).
  std::vector<TxnId> ChainTxns() const;

  std::string ToString(const TransactionSet& txns) const;
};

/// Outcome of the robustness decision (Theorem 3.3).
struct RobustnessResult {
  bool robust = true;
  /// Present iff !robust.
  std::optional<CounterexampleChain> counterexample;
  /// Number of (T1, T2, Tm) triples examined — exposed for the complexity
  /// benchmarks. This is an *audited* counter with a fixed contract: it
  /// equals the number of triples (t2 != t1, tm != t1) that the canonical
  /// sequential scan order (t1 outer, t2 middle, tm inner, each ascending)
  /// visits up to and including the winning triple — or all n(n-1)^2 of
  /// them when robust. Every full checker (reference, bitset analyzer)
  /// reports the identical value for the identical verdict; see
  /// internal::TriplesWhenRobust / internal::TriplesUpToWitness.
  uint64_t triples_examined = 0;
  /// True when CheckOptions::cancel was raised before the scan completed.
  /// A cancelled result carries no verdict: robust stays true,
  /// counterexample is empty, and triples_examined is 0 — callers must
  /// discard it.
  bool cancelled = false;
};

/// Tuning knobs threaded from the CLI/tools down to the checkers.
struct CheckOptions {
  /// Optional observability sink (common/metrics.h): phase timers and
  /// work counters are recorded here. Null (the default) disables all
  /// instrumentation; collection never changes results — asserted by the
  /// analyzer differential tests.
  MetricsRegistry* metrics = nullptr;
  /// Optional cooperative cancellation flag, polled inside the triple
  /// scan. When it becomes true mid-check, CheckRobustness(txns, alloc,
  /// options) / RobustnessAnalyzer::Check return promptly with
  /// RobustnessResult::cancelled set (and no verdict). Lets a long-running
  /// caller — e.g. `mvrob serve`'s periodic witness check — shut down
  /// without waiting for a full scan. Null (the default) disables polling.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional stall watchdog (common/watchdog.h): the triple scan runs
  /// under a monitored "analyzer.triple_scan" scope, heartbeating once per
  /// completed row, so a wedged check surfaces with a symbolized stack.
  /// Null (the default) disables monitoring; never changes results.
  Watchdog* watchdog = nullptr;
};

/// Algorithm 1: decides whether `txns` is robust against `alloc`, i.e.
/// whether every schedule over `txns` allowed under `alloc` is conflict
/// serializable (Definition 2.7). Runs in time polynomial in |T| per
/// Theorem 3.3. `alloc` must have one level per transaction.
///
/// This is the *reference* implementation: it re-derives operation-level
/// facts per triple and is deliberately close to the paper's pseudocode.
/// Production callers that check repeatedly should use RobustnessAnalyzer
/// (or the CheckOptions overload below, which builds one internally).
RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc);

/// Production entry point: identical verdict, counterexample, and
/// triples_examined as the reference above, computed on the bitset
/// analyzer.
RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc,
                                 const CheckOptions& options);

/// Enumerates counterexample chains — one per triple (T1, T2, Tm) that
/// witnesses non-robustness — up to `limit`, in ascending (t1, t2, tm)
/// order. Empty iff robust. Useful for diagnostics: a workload usually
/// breaks in several places at once, and fixing only the first reported
/// chain rarely suffices.
std::vector<CounterexampleChain> FindAllCounterexamples(
    const TransactionSet& txns, const Allocation& alloc, size_t limit = 32);

namespace internal {

/// Searches operations (b1, a1, a2, bm) satisfying the inner conditions of
/// Algorithm 1 for the fixed triple (t1, t2, tm); fills all fields of
/// `chain` except the inner path. Shared between the reference checker and
/// RobustnessAnalyzer's witness recovery.
bool FindChainOperations(const TransactionSet& txns, const Allocation& alloc,
                         TxnId t1, TxnId t2, TxnId tm,
                         CounterexampleChain* chain);

/// The audited triples_examined contract, in closed form (so the
/// reference and the bitset-masked scans report the same number without
/// per-iteration bookkeeping):
///  - robust run: every triple with t2 != t1, tm != t1 → n(n-1)^2;
///  - witness at (t1, t2, tm): triples visited by the canonical ascending
///    scan up to and including the witness.
uint64_t TriplesWhenRobust(size_t n);
uint64_t TriplesUpToWitness(size_t n, TxnId t1, TxnId t2, TxnId tm);

}  // namespace internal

/// Convenience wrappers for the homogeneous allocations A_RC, A_SI, A_SSI.
inline RobustnessResult CheckRobustnessRC(const TransactionSet& txns) {
  return CheckRobustness(txns, Allocation::AllRC(txns.size()));
}
inline RobustnessResult CheckRobustnessSI(const TransactionSet& txns) {
  return CheckRobustness(txns, Allocation::AllSI(txns.size()));
}
inline RobustnessResult CheckRobustnessSSI(const TransactionSet& txns) {
  return CheckRobustness(txns, Allocation::AllSSI(txns.size()));
}

}  // namespace mvrob

#endif  // MVROB_CORE_ROBUSTNESS_H_
