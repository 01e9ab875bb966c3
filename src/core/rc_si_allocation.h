#ifndef MVROB_CORE_RC_SI_ALLOCATION_H_
#define MVROB_CORE_RC_SI_ALLOCATION_H_

#include <optional>

#include "core/robustness.h"

namespace mvrob {

/// Result of the {RC, SI} allocation problem (Section 5), the setting of
/// systems such as Oracle where no serializable level is available.
struct RcSiAllocationResult {
  /// Whether a robust {RC, SI}-allocation exists at all. By Proposition
  /// 5.4, this holds iff the set is robust against A_SI.
  bool allocatable = false;
  /// The unique optimal robust {RC, SI}-allocation, when allocatable.
  std::optional<Allocation> allocation;
  /// When not allocatable: Algorithm 1's counterexample against A_SI.
  std::optional<CounterexampleChain> counterexample;
  uint64_t robustness_checks = 0;
};

/// Theorem 5.5: decides in PTIME whether `txns` is robustly allocatable
/// against {RC, SI} and, if so, computes the unique optimal allocation by
/// running Algorithm 2 from A_SI downwards. `options` is forwarded to every
/// robustness check.
RcSiAllocationResult ComputeOptimalRcSiAllocation(
    const TransactionSet& txns, const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_CORE_RC_SI_ALLOCATION_H_
