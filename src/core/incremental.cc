#include "core/incremental.h"

#include "common/metrics.h"
#include "core/optimal_allocation.h"

namespace mvrob {

StatusOr<TxnId> IncrementalAllocator::AddTransaction(
    std::string name, std::vector<Operation> rw_ops) {
  StatusOr<TxnId> id = txns_.AddTransaction(std::move(name),
                                            std::move(rw_ops));
  if (!id.ok()) return id;

  // Previous levels are valid lower bounds (adding a transaction never
  // lowers anyone's optimal level); the newcomer starts unconstrained.
  std::vector<IsolationLevel> lower_bounds = allocation_.levels();
  lower_bounds.push_back(IsolationLevel::kRC);
  Reoptimize(lower_bounds);
  return id;
}

Status IncrementalAllocator::RemoveTransaction(TxnId txn) {
  if (txn >= txns_.size()) {
    return Status::NotFound("no such transaction");
  }
  TransactionSet rebuilt;
  for (size_t o = 0; o < txns_.num_objects(); ++o) {
    rebuilt.InternObject(txns_.ObjectName(static_cast<ObjectId>(o)));
  }
  for (TxnId t = 0; t < txns_.size(); ++t) {
    if (t == txn) continue;
    const Transaction& old = txns_.txn(t);
    std::vector<Operation> ops(old.ops().begin(),
                               old.ops().end() - 1);  // Drop the commit.
    StatusOr<TxnId> id = rebuilt.AddTransaction(old.name(), std::move(ops));
    if (!id.ok()) return id.status();
  }
  txns_ = std::move(rebuilt);
  // Removal can lower anyone: recompute without bounds.
  Reoptimize(std::vector<IsolationLevel>(txns_.size(), IsolationLevel::kRC));
  return Status::Ok();
}

void IncrementalAllocator::Reoptimize(
    const std::vector<IsolationLevel>& lower_bounds) {
  PhaseTimer timer(options_.metrics, "incremental.reoptimize");
  RobustnessAnalyzer analyzer(txns_, options_.metrics);
  // Algorithm 2 from A_SSI with the warm-start levels as lower bounds.
  LoweringResult lowered = LowerAllocation(
      analyzer, Allocation::AllSSI(txns_.size()), lower_bounds, options_);
  checks_performed_ += lowered.robustness_checks;
  allocation_ = std::move(lowered.allocation);
  if (options_.metrics != nullptr) {
    options_.metrics->counter("incremental.reoptimize_calls").Increment();
    options_.metrics->counter("incremental.checks_performed")
        .Add(lowered.robustness_checks);
    options_.metrics->counter("incremental.warm_start_skips")
        .Add(lowered.levels_skipped);
  }
}

}  // namespace mvrob
