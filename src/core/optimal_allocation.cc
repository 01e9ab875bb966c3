#include "core/optimal_allocation.h"

#include "common/metrics.h"
#include "core/analyzer.h"

namespace mvrob {

OptimalAllocationResult ComputeOptimalAllocation(const TransactionSet& txns,
                                                 const CheckOptions& options) {
  // All 2|T| robustness checks run over the same transaction set, so the
  // analyzer's conflict matrices and pivot components amortize fully.
  RobustnessAnalyzer analyzer(txns, options.metrics);
  return ComputeOptimalAllocation(analyzer, options);
}

OptimalAllocationResult ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const CheckOptions& options) {
  PhaseTimer timer(options.metrics, "allocation.algorithm2");
  const size_t n = analyzer.txns().size();
  LoweringResult lowered =
      LowerAllocation(analyzer, Allocation::AllSSI(n),
                      std::vector<IsolationLevel>(n, IsolationLevel::kRC),
                      options);
  OptimalAllocationResult result;
  result.allocation = std::move(lowered.allocation);
  result.robustness_checks = lowered.robustness_checks;
  if (options.metrics != nullptr) {
    options.metrics->counter("allocation.runs").Increment();
    options.metrics->counter("allocation.robustness_checks")
        .Add(result.robustness_checks);
    options.metrics->counter("allocation.lattice_levels_tried")
        .Add(result.robustness_checks);
  }
  return result;
}

LoweringResult LowerAllocation(const RobustnessAnalyzer& analyzer,
                               Allocation start,
                               const std::vector<IsolationLevel>& lower_bounds,
                               const CheckOptions& options) {
  LoweringResult result;
  result.allocation = std::move(start);
  for (TxnId t = 0; t < result.allocation.size(); ++t) {
    for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
      if (level < lower_bounds[t]) {
        ++result.levels_skipped;
        continue;
      }
      if (!(level < result.allocation.level(t))) break;  // At/below already.
      ++result.robustness_checks;
      RobustnessResult check =
          analyzer.CheckChange(result.allocation, t, level, options);
      if (check.cancelled) return result;
      if (check.robust) {
        result.allocation.set_level(t, level);
        break;
      }
    }
  }
  return result;
}

}  // namespace mvrob
