#ifndef MVROB_CORE_MIXED_ISO_GRAPH_H_
#define MVROB_CORE_MIXED_ISO_GRAPH_H_

#include <optional>
#include <vector>

#include "core/conflict.h"

namespace mvrob {

/// The auxiliary graph of Section 3: mixed-iso-graph(T1, T') contains as
/// nodes the transactions of T' that have *no* operation conflicting with an
/// operation of T1, with an (undirected, since conflict existence is
/// symmetric) edge between any two conflicting transactions.
///
/// Algorithm 1 uses reachability in this graph, with T' = T \ {T1, T2, Tm},
/// to witness a sequence of conflicting quadruples T2 -> T3 -> ... -> Tm
/// whose inner transactions do not conflict with T1 (Definition 3.1 (1)).
class MixedIsoGraph {
 public:
  /// Builds mixed-iso-graph(t1, T \ {t1} \ excluded). When `conflict` is
  /// non-null it must be the BuildConflictMatrix of `txns` (or the
  /// analyzer's equivalent); all pairwise conflict tests then become O(1)
  /// bit lookups instead of read/write-set intersections — the checkers
  /// build one matrix per transaction set and share it across every
  /// candidate counterexample.
  MixedIsoGraph(const TransactionSet& txns, TxnId t1,
                const std::vector<TxnId>& excluded,
                const BitMatrix* conflict = nullptr);

  bool Contains(TxnId txn) const { return node_index_[txn] >= 0; }
  const std::vector<TxnId>& nodes() const { return nodes_; }

  /// Neighbors of a node (must satisfy Contains).
  const std::vector<TxnId>& Neighbors(TxnId txn) const {
    return adjacency_[node_index_[txn]];
  }

  /// True if `from` and `to` are connected (reflexively) in the graph.
  bool Connected(TxnId from, TxnId to) const;

  /// The inner chain T3, ..., T_{m-1} of Definition 3.1 between `t2` and
  /// `tm` (both outside the graph): a — possibly empty — simple path of
  /// graph nodes such that t2 conflicts with the first, consecutive nodes
  /// conflict, and the last conflicts with tm. Returns:
  ///  - empty vector if t2 == tm or t2 conflicts with tm directly;
  ///  - the shortest inner path otherwise;
  ///  - nullopt if no chain exists.
  std::optional<std::vector<TxnId>> FindInnerChain(TxnId t2, TxnId tm) const;

 private:
  bool Conflicts(TxnId a, TxnId b) const {
    return conflict_ != nullptr ? conflict_->Test(a, b)
                                : TxnsConflict(txns_, a, b);
  }

  const TransactionSet& txns_;
  const BitMatrix* conflict_;         // Optional shared conflict matrix.
  std::vector<TxnId> nodes_;
  std::vector<int> node_index_;       // txn id -> dense node index or -1.
  std::vector<std::vector<TxnId>> adjacency_;  // By dense node index.
  std::vector<int> component_;        // By dense node index.
};

/// The same inner-chain search as MixedIsoGraph::FindInnerChain, run
/// word-wise over the rows of `conflict` (BuildConflictMatrix of the set)
/// without materializing the graph: a level-synchronous BFS from the
/// graph nodes conflicting with `t2`, where each level is one bitset and
/// expanding it ORs the conflict rows of its nodes. The graph nodes are the
/// transactions outside {t1, t2, tm} that do not conflict with t1.
/// Returns nullopt iff FindInnerChain does; otherwise a shortest inner
/// chain (the same length as FindInnerChain's, though it may pass through
/// other transactions).
std::optional<std::vector<TxnId>> FindInnerChainWordwise(
    const BitMatrix& conflict, TxnId t1, TxnId t2, TxnId tm);

}  // namespace mvrob

#endif  // MVROB_CORE_MIXED_ISO_GRAPH_H_
