#include "mvcc/ssi_tracker.h"

#include <algorithm>

#include "mvcc/engine.h"

namespace mvrob {
namespace {

bool Concurrent(const SsiMember& a, const SsiMember& b) {
  if (a.record->first_step == 0 || b.record->first_step == 0) return false;
  return a.record->first_step < b.commit_step &&
         b.record->first_step < a.commit_step;
}

// rw-antidependency a -> b: a read a version of an object installed before
// the version b writes. All writes of b install at b.commit_ts; a read of
// a's own buffered write is treated as reading a's own version (installed
// at a.commit_ts).
bool RwAntiEdge(const SsiMember& a, const SsiMember& b,
                ObjectId* edge_object = nullptr,
                Timestamp* edge_version_ts = nullptr) {
  if (a.id == b.id) return false;
  for (const SessionReadRecord& read : a.record->reads) {
    if (!b.record->write_buffer.contains(read.object)) continue;
    Timestamp observed_ts =
        read.version_writer == a.id ? a.commit_ts : read.version_ts;
    if (observed_ts < b.commit_ts) {
      if (edge_object != nullptr) *edge_object = read.object;
      if (edge_version_ts != nullptr) {
        *edge_version_ts = read.version_writer == a.id ? 0 : read.version_ts;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

// A structure completed by this commit involves the candidate (the commit
// is the last event of the three transactions), but scanning all triples
// keeps the check simple and exact; the early concurrency filters keep it
// cheap in practice.
SsiConflictDetail SsiTracker::FindDangerousStructure(
    const std::vector<SsiMember>& members, SessionId candidate) {
  SsiConflictDetail detail;
  for (const SsiMember& t1 : members) {
    for (const SsiMember& t2 : members) {
      if (t2.id == t1.id || !Concurrent(t1, t2)) continue;
      if (!(t2.commit_ts > 0) || !RwAntiEdge(t1, t2)) continue;
      for (const SsiMember& t3 : members) {
        if (t3.id == t2.id || !Concurrent(t2, t3)) continue;
        if (t1.id != candidate && t2.id != candidate && t3.id != candidate) {
          continue;
        }
        // Commit-order conditions: C3 <= C1 (equality iff T3 = T1) and
        // C3 < C2.
        bool c3_le_c1 = t3.id == t1.id || t3.commit_ts < t1.commit_ts;
        if (!c3_le_c1 || !(t3.commit_ts < t2.commit_ts)) continue;
        if (!RwAntiEdge(t2, t3)) continue;
        // Attribute the rw edge adjacent to the candidate: its peer on
        // that edge and the edge's object/version.
        detail.found = true;
        if (candidate == t2.id) {
          detail.peer = t1.id;
          RwAntiEdge(t1, t2, &detail.object, &detail.version_ts);
        } else if (candidate == t1.id) {
          detail.peer = t2.id;
          RwAntiEdge(t1, t2, &detail.object, &detail.version_ts);
        } else {
          detail.peer = t2.id;
          RwAntiEdge(t2, t3, &detail.object, &detail.version_ts);
        }
        return detail;
      }
    }
  }
  return detail;
}

SsiConflictDetail SsiTracker::TryCommit(const SsiMember& candidate) {
  auto position = std::upper_bound(
      members_.begin(), members_.end(), candidate.id,
      [](SessionId id, const SsiMember& member) { return id < member.id; });
  position = members_.insert(position, candidate);
  SsiConflictDetail detail = FindDangerousStructure(members_, candidate.id);
  if (detail.found) members_.erase(position);
  return detail;
}

void SsiTracker::Prune(uint64_t m) {
  uint64_t h = m;
  for (const SsiMember& member : members_) {
    const uint64_t first = member.record->first_step;
    if (first != 0 && member.commit_step > m) h = std::min(h, first);
  }
  std::erase_if(members_, [h](const SsiMember& member) {
    return member.record->first_step == 0 || member.commit_step <= h;
  });
}

}  // namespace mvrob

