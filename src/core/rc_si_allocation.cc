#include "core/rc_si_allocation.h"

#include "core/analyzer.h"
#include "core/optimal_allocation.h"

namespace mvrob {

RcSiAllocationResult ComputeOptimalRcSiAllocation(
    const TransactionSet& txns, const CheckOptions& options) {
  RcSiAllocationResult result;
  RobustnessAnalyzer analyzer(txns, options.metrics);
  const Allocation all_si = Allocation::AllSI(txns.size());
  RobustnessResult against_si = analyzer.Check(all_si, options);
  ++result.robustness_checks;
  if (!against_si.robust) {
    result.allocatable = false;
    result.counterexample = std::move(against_si.counterexample);
    return result;
  }
  result.allocatable = true;
  // From the certified A_SI the only level to try is RC.
  LoweringResult lowered = LowerAllocation(
      analyzer, all_si,
      std::vector<IsolationLevel>(txns.size(), IsolationLevel::kRC), options);
  result.robustness_checks += lowered.robustness_checks;
  result.allocation = std::move(lowered.allocation);
  return result;
}

}  // namespace mvrob
