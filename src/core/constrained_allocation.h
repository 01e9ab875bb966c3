#ifndef MVROB_CORE_CONSTRAINED_ALLOCATION_H_
#define MVROB_CORE_CONSTRAINED_ALLOCATION_H_

#include <optional>

#include "core/robustness.h"

namespace mvrob {

/// Per-transaction level bounds for the constrained allocation problem:
/// min <= A(T) <= max. Practical sources of constraints:
///  - legacy code paths that cannot tolerate serialization failures pin
///    max = RC or SI (no retry loops for aborts);
///  - compliance-critical transactions pin min = SSI;
///  - a DBMS without SSI (Oracle) pins max = SI globally (Section 5 is the
///    special case min = RC, max = SI).
struct AllocationBounds {
  std::vector<IsolationLevel> min_level;
  std::vector<IsolationLevel> max_level;

  /// Unconstrained bounds for n transactions.
  static AllocationBounds Free(size_t n) {
    return AllocationBounds{
        std::vector<IsolationLevel>(n, IsolationLevel::kRC),
        std::vector<IsolationLevel>(n, IsolationLevel::kSSI)};
  }
  /// Pins one transaction to exactly `level`.
  AllocationBounds& Pin(TxnId txn, IsolationLevel level) {
    min_level[txn] = level;
    max_level[txn] = level;
    return *this;
  }
  AllocationBounds& AtMost(TxnId txn, IsolationLevel level) {
    max_level[txn] = level;
    return *this;
  }
  AllocationBounds& AtLeast(TxnId txn, IsolationLevel level) {
    min_level[txn] = level;
    return *this;
  }
};

struct ConstrainedAllocationResult {
  /// Whether any robust allocation within the bounds exists. By upward
  /// monotonicity (Proposition 4.1(1)) this holds iff the all-max
  /// allocation is robust.
  bool feasible = false;
  /// The unique optimal robust allocation within the bounds, when
  /// feasible. Uniqueness follows from the exchange argument of
  /// Proposition 4.1(2) restricted to the box.
  std::optional<Allocation> allocation;
  /// When infeasible: the counterexample against the all-max allocation.
  std::optional<CounterexampleChain> counterexample;
  uint64_t robustness_checks = 0;
};

/// Computes the optimal robust allocation subject to the bounds
/// (Algorithm 2 over the box): start from max levels, lower each
/// transaction towards its min. Fails with InvalidArgument when bounds are
/// malformed (size mismatch or min > max somewhere). `options` is forwarded
/// to every robustness check.
StatusOr<ConstrainedAllocationResult> ComputeConstrainedAllocation(
    const TransactionSet& txns, const AllocationBounds& bounds,
    const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_CORE_CONSTRAINED_ALLOCATION_H_
