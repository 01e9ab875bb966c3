#include "mvcc/ssi_tracker.h"

#include <algorithm>

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

// Potential rw-antidependency for the conservative mode: a read by `a` of
// an object `b` writes, where `a` did not observe `b`'s version —
// uncommitted writes count (the edge will materialize if b commits).
bool PotentialRwAntiEdge(const SsiMember& a, const SsiMember& b) {
  if (a.id == b.id) return false;
  for (const SessionReadRecord& read : a.record->reads) {
    if (!b.record->write_buffer.contains(read.object)) continue;
    if (read.version_writer != b.id) return true;
  }
  return false;
}

// The SSI members of `sessions`: committed ones, the candidate with its
// hypothetical commit, and — for the conservative check — active ones as
// not yet committed.
std::vector<SsiMember> Members(const std::vector<SessionRecord>& sessions,
                               SessionId candidate,
                               Timestamp candidate_commit_ts,
                               uint64_t candidate_commit_step,
                               bool with_active) {
  constexpr Timestamp kInfTs = ~Timestamp{0};
  constexpr uint64_t kInfStep = ~uint64_t{0};
  std::vector<SsiMember> members;
  for (SessionId id = 0; id < sessions.size(); ++id) {
    const SessionRecord& record = sessions[id];
    if (record.level != IsolationLevel::kSSI) continue;
    if (id == candidate) {
      members.push_back(
          SsiMember{id, &record, candidate_commit_ts, candidate_commit_step});
    } else if (record.state == TxnState::kCommitted) {
      members.push_back(
          SsiMember{id, &record, record.commit_ts, record.commit_step});
    } else if (with_active && record.state == TxnState::kActive) {
      members.push_back(SsiMember{id, &record, kInfTs, kInfStep});
    }
  }
  return members;
}

}  // namespace

std::vector<SsiMember> SsiTracker::CommittedMembers(
    const std::vector<SessionRecord>& sessions, SessionId candidate,
    Timestamp candidate_commit_ts, uint64_t candidate_commit_step) {
  return Members(sessions, candidate, candidate_commit_ts,
                 candidate_commit_step, /*with_active=*/false);
}

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

bool SsiTracker::WouldCreatePivot(const std::vector<SessionRecord>& sessions,
                                  SessionId candidate,
                                  Timestamp candidate_commit_ts,
                                  uint64_t candidate_commit_step) {
  const std::vector<SsiMember> members =
      Members(sessions, candidate, candidate_commit_ts, candidate_commit_step,
              /*with_active=*/true);
  for (const SsiMember& pivot : members) {
    for (const SsiMember& in : members) {
      if (in.id == pivot.id || !Concurrent(in, pivot)) continue;
      if (!PotentialRwAntiEdge(in, pivot)) continue;
      for (const SsiMember& out : members) {
        if (out.id == pivot.id || !Concurrent(pivot, out)) continue;
        if (pivot.id != candidate && in.id != candidate &&
            out.id != candidate) {
          continue;
        }
        if (PotentialRwAntiEdge(pivot, out)) return true;
      }
    }
  }
  return false;
}

}  // namespace mvrob

