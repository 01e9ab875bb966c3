#ifndef MVROB_CORE_EXPLAIN_H_
#define MVROB_CORE_EXPLAIN_H_

#include <optional>
#include <string>
#include <vector>

#include "core/robustness.h"

namespace mvrob {

/// Why one transaction of an allocation cannot be lowered: for each level
/// below the assigned one, the counterexample chain that would become
/// possible.
struct AllocationObstacle {
  TxnId txn = kInvalidTxnId;
  IsolationLevel assigned = IsolationLevel::kRC;
  /// One entry per level strictly below `assigned`, lowest first.
  struct Obstacle {
    IsolationLevel attempted = IsolationLevel::kRC;
    CounterexampleChain chain;
  };
  std::vector<Obstacle> obstacles;
};

/// Full explanation of an allocation: per transaction, the witnesses
/// blocking every cheaper level. For an *optimal* allocation every
/// transaction above RC has at least one obstacle per lower level
/// (Algorithm 2 guarantees it); for non-optimal allocations transactions
/// may have none.
struct AllocationExplanation {
  Allocation allocation;
  std::vector<AllocationObstacle> per_txn;

  /// Human-readable multi-line report.
  std::string ToString(const TransactionSet& txns) const;
};

/// Explains `allocation` for `txns`: for every transaction and every level
/// below its assigned one, records Algorithm 1's counterexample against
/// the lowered allocation (if any). The allocation must be robust.
/// `options` reaches every check (a cancelled check fails the call).
StatusOr<AllocationExplanation> ExplainAllocation(
    const TransactionSet& txns, const Allocation& allocation,
    const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_CORE_EXPLAIN_H_
