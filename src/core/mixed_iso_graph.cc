#include "core/mixed_iso_graph.h"

#include <algorithm>
#include <deque>

namespace mvrob {

MixedIsoGraph::MixedIsoGraph(const TransactionSet& txns, TxnId t1,
                             const std::vector<TxnId>& excluded,
                             const BitMatrix* conflict)
    : txns_(txns), conflict_(conflict), node_index_(txns.size(), -1) {
  std::vector<bool> is_excluded(txns.size(), false);
  is_excluded[t1] = true;
  for (TxnId t : excluded) is_excluded[t] = true;

  for (TxnId t = 0; t < txns.size(); ++t) {
    if (is_excluded[t] || Conflicts(t, t1)) continue;
    node_index_[t] = static_cast<int>(nodes_.size());
    nodes_.push_back(t);
  }
  adjacency_.assign(nodes_.size(), {});
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (size_t j = i + 1; j < nodes_.size(); ++j) {
      if (Conflicts(nodes_[i], nodes_[j])) {
        adjacency_[i].push_back(nodes_[j]);
        adjacency_[j].push_back(nodes_[i]);
      }
    }
  }
  // Connected components double as the reflexive-transitive closure, since
  // the conflict relation (and hence the edge relation) is symmetric.
  component_.assign(nodes_.size(), -1);
  int next_component = 0;
  for (size_t root = 0; root < nodes_.size(); ++root) {
    if (component_[root] >= 0) continue;
    std::deque<size_t> queue{root};
    component_[root] = next_component;
    while (!queue.empty()) {
      size_t node = queue.front();
      queue.pop_front();
      for (TxnId neighbor : adjacency_[node]) {
        size_t idx = static_cast<size_t>(node_index_[neighbor]);
        if (component_[idx] < 0) {
          component_[idx] = next_component;
          queue.push_back(idx);
        }
      }
    }
    ++next_component;
  }
}

bool MixedIsoGraph::Connected(TxnId from, TxnId to) const {
  if (!Contains(from) || !Contains(to)) return false;
  return component_[node_index_[from]] == component_[node_index_[to]];
}

std::optional<std::vector<TxnId>> MixedIsoGraph::FindInnerChain(
    TxnId t2, TxnId tm) const {
  if (t2 == tm || Conflicts(t2, tm)) return std::vector<TxnId>{};

  // BFS from every node conflicting with t2 towards any node conflicting
  // with tm, over graph nodes only.
  std::vector<int> parent(nodes_.size(), -2);  // -2 unvisited, -1 source.
  std::deque<size_t> queue;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (Conflicts(t2, nodes_[i])) {
      parent[i] = -1;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    size_t node = queue.front();
    queue.pop_front();
    if (Conflicts(nodes_[node], tm)) {
      std::vector<TxnId> chain;
      size_t walk = node;
      while (true) {
        chain.push_back(nodes_[walk]);
        if (parent[walk] == -1) break;
        walk = static_cast<size_t>(parent[walk]);
      }
      std::reverse(chain.begin(), chain.end());
      return chain;
    }
    for (TxnId neighbor : adjacency_[node]) {
      size_t idx = static_cast<size_t>(node_index_[neighbor]);
      if (parent[idx] == -2) {
        parent[idx] = static_cast<int>(node);
        queue.push_back(idx);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<TxnId>> FindInnerChainWordwise(
    const BitMatrix& conflict, TxnId t1, TxnId t2, TxnId tm) {
  if (t2 == tm || conflict.Test(t2, tm)) return std::vector<TxnId>{};
  const size_t n = conflict.rows();
  DenseBitset unvisited(n);
  unvisited.SetAll();
  unvisited.AndNotWith(conflict.row(t1));
  unvisited.Reset(t1);
  unvisited.Reset(t2);
  unvisited.Reset(tm);
  // levels[d]: the graph nodes at distance d from t2's neighbourhood.
  std::vector<DenseBitset> levels;
  DenseBitset frontier(n);
  frontier.CopyFrom(conflict.row(t2));
  frontier.AndWith(unvisited);
  DenseBitset meet(n);
  while (frontier.Any()) {
    unvisited.AndNotWith(frontier);
    meet.CopyFrom(frontier);
    meet.AndWith(conflict.row(tm));
    if (meet.Any()) {
      // Walk back from the lowest node touching tm, taking at each level
      // the lowest node that conflicts with its successor.
      std::vector<TxnId> chain(levels.size() + 1);
      size_t node = meet.FindFirst();
      chain.back() = static_cast<TxnId>(node);
      for (size_t d = levels.size(); d-- > 0;) {
        meet.CopyFrom(levels[d]);
        meet.AndWith(conflict.row(node));
        node = meet.FindFirst();
        chain[d] = static_cast<TxnId>(node);
      }
      return chain;
    }
    DenseBitset next(n);
    frontier.ForEachSetBit([&](size_t x) { next.OrWith(conflict.row(x)); });
    next.AndWith(unvisited);
    levels.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  return std::nullopt;
}

}  // namespace mvrob
