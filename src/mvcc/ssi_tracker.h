#ifndef MVROB_MVCC_SSI_TRACKER_H_
#define MVROB_MVCC_SSI_TRACKER_H_

#include <vector>

#include "mvcc/engine.h"

namespace mvrob {

/// Exact dangerous-structure detection for the engine's SSI sessions.
///
/// Postgres' SSI implementation tracks rw-antidependencies conservatively
/// (per-transaction in/out flags) and may abort on false positives. This
/// simulator instead evaluates the *exact* condition of Definition 2.4 at
/// each SSI commit: committing is refused iff it would complete a dangerous
/// structure T1 -> T2 -> T3 among committed SSI sessions (including the
/// commit-order optimization C3 <= C1, C3 < C2). Exactness matters for the
/// conformance tests: every committed trace must map to a formal schedule
/// allowed under the session allocation — no more, no less.
/// Attribution of an SSI abort: the session on the other side of an
/// rw-antidependency adjacent to the aborting candidate in the dangerous
/// structure that refused the commit, and the object carrying that edge.
/// `found` is false when no exact structure exists (possible under the
/// conservative mode, which also aborts on false positives).
struct SsiConflictDetail {
  SessionId peer = kInvalidSessionId;
  ObjectId object = kInvalidObjectId;
  /// Commit timestamp of the version the edge's reader observed (0 for a
  /// read of the reader's own buffered write).
  Timestamp version_ts = 0;
  bool found = false;
};

/// A session as the SSI test sees it: its record with the commit timestamp
/// and step it has — or, for the committing candidate, would have.
struct SsiMember {
  SessionId id = kInvalidSessionId;
  const SessionRecord* record = nullptr;
  Timestamp commit_ts = 0;
  uint64_t commit_step = 0;
};

class SsiTracker {
 public:
  /// The deterministic engine's members: the committed SSI sessions of
  /// `sessions` and the SSI candidate with its hypothetical commit, in
  /// session-id order.
  static std::vector<SsiMember> CommittedMembers(
      const std::vector<SessionRecord>& sessions, SessionId candidate,
      Timestamp candidate_commit_ts, uint64_t candidate_commit_step);

  /// The exact commit test shared by both engines. `members` holds the
  /// committed SSI sessions and the candidate with its hypothetical
  /// commit. `found` is true iff committing the candidate completes a
  /// dangerous structure among them; the other fields then attribute the
  /// first structure in member order. The referenced records must not
  /// change while the check runs.
  static SsiConflictDetail FindDangerousStructure(
      const std::vector<SsiMember>& members, SessionId candidate);

  /// Conservative flag check (SsiMode::kConservative): true iff, treating
  /// `candidate` as committed, some SSI session (committed, active, or the
  /// candidate) would be a pivot — an incoming and an outgoing
  /// rw-antidependency between concurrent SSI sessions — regardless of
  /// commit order. A superset of the exact condition: everything the exact
  /// check aborts is also aborted here, plus false positives.
  static bool WouldCreatePivot(const std::vector<SessionRecord>& sessions,
                               SessionId candidate,
                               Timestamp candidate_commit_ts,
                               uint64_t candidate_commit_step);
};

}  // namespace mvrob

#endif  // MVROB_MVCC_SSI_TRACKER_H_
