#ifndef MVROB_CORE_OPTIMAL_ALLOCATION_H_
#define MVROB_CORE_OPTIMAL_ALLOCATION_H_

#include <cstdint>
#include <vector>

#include "core/robustness.h"

namespace mvrob {

/// Result of the allocation computation (Algorithm 2).
struct OptimalAllocationResult {
  Allocation allocation;
  /// Number of invocations of the robustness checker — exposed for the
  /// complexity benchmarks.
  uint64_t robustness_checks = 0;
};

/// Algorithm 2: computes the *unique* optimal robust allocation over
/// {RC, SI, SSI} for `txns` (Theorem 4.3, Proposition 4.2): no transaction
/// can be moved to a lower level without breaking robustness.
///
/// Starts from A_SSI (always robust, since SSI guarantees serializability)
/// and, for each transaction in turn, assigns the lowest level that keeps
/// the allocation robust (LowerAllocation). Correctness follows from
/// Proposition 4.1(2): the outcome does not depend on the iteration order.
///
/// `options` reaches every robustness check: its metrics, cancel flag and
/// watchdog.
OptimalAllocationResult ComputeOptimalAllocation(const TransactionSet& txns,
                                                 const CheckOptions& options = {});

class RobustnessAnalyzer;

/// Algorithm 2 over a caller-provided analyzer, so callers that already
/// hold one — the template layer runs Algorithm 2 once per function world
/// over conflict-pruned analyzers — reuse its matrices and pivot caches
/// instead of rebuilding them.
OptimalAllocationResult ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const CheckOptions& options = {});

/// Outcome of LowerAllocation.
struct LoweringResult {
  Allocation allocation;
  /// Robustness checks run (one per level tried).
  uint64_t robustness_checks = 0;
  /// Levels not tried because they lie below the transaction's lower bound.
  uint64_t levels_skipped = 0;
};

/// Algorithm 2's lowering loop, shared by every allocator: for each
/// transaction in turn, tries the levels from RC upwards that are at least
/// lower_bounds[t] and below its current level, and keeps the first one
/// that stays robust. `start` must be robust (the caller certifies it, or
/// it is A_SSI); every accepted step keeps it robust, so each step is one
/// RobustnessAnalyzer::CheckChange instead of a full check. With
/// options.cancel raised the loop stops at the cancelled check and returns
/// the (still robust) allocation reached so far.
LoweringResult LowerAllocation(const RobustnessAnalyzer& analyzer,
                               Allocation start,
                               const std::vector<IsolationLevel>& lower_bounds,
                               const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_CORE_OPTIMAL_ALLOCATION_H_
