// IncrementalClosure: delta maintenance of the chase closure under
// grant/revoke edits (DESIGN.md §16).
//
// Build chases every server's fixpoint from scratch, one server at a time
// on the calling thread; it is the system's one chase (ChaseClosure in
// chase.hpp returns its closure). The object then keeps the per-server
// semi-naïve rule pools alive between edits and updates them as deltas:
//
//   grant   the new rule is appended to its server's persistent pool and
//           the semi-naïve loop resumes with the pool tail as the delta —
//           exactly the round Build would have run had the rule been
//           present from the start (closure confluence: the minimized
//           fixpoint is insertion-order independent), paying only for the
//           pairs the new rule introduces. A grant subsumed by an existing
//           rule is a no-op on the closure.
//   revoke  derivations are not counted individually (the pool's novelty
//           check skips subsumed derivations, which makes per-rule
//           derivation counts ill-defined), so a revoke rederives the one
//           affected server from its surviving base rules. Other servers'
//           pools are untouched — the paper's derivation never crosses
//           servers — so the cost is 1/|servers| of a full rechase before
//           the delta round's savings.
//
// Every successful edit returns a ClosureDelta naming the relations whose
// authorized profiles may have changed. The summary is intentionally the
// *edited rule's* relations, not the diffed rules': every closure rule a
// grant or revoke of `r` can add or remove derives through `r`, so its join
// path mentions (at least) every relation of `r` — a cached verdict whose
// relation set is disjoint from relations(r) cannot have changed, which is
// what lets the serving layer re-stamp disjoint cache entries instead of
// sweeping them (front_door.cpp). The one exception is a server whose rule
// set transitions between empty and non-empty: that flips the
// kNoRulesForServer deny reason for *every* profile probed at that server,
// so the delta degrades to `full` and the caches sweep as before.
//
// closed() is maintained in canonical form (minimized, grants sorted within
// each path) and equals a fresh Build(base).closed() after every edit — the
// invariant the policy-edit fuzz arm checks byte for byte, beside a diff
// against NaiveChaseOracle (testcheck/oracle.hpp), an independent fixpoint
// that shares no code with this one.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "authz/authorization.hpp"
#include "authz/chase.hpp"
#include "authz/chase_core.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::authz {

/// What one policy edit changed, summarized for cache invalidation.
struct ClosureDelta {
  /// Selective retention is unsound for this edit (a server's rule set
  /// appeared or vanished); every epoch-stamped cache entry must go.
  bool full = false;
  /// Relations whose authorized profiles may have changed: any cached
  /// verdict/plan touching none of them is unaffected by the edit.
  IdSet relations;
  /// Servers whose canonical closure changed.
  IdSet servers;
  std::size_t added_rules = 0;    ///< canonical closure rules added
  std::size_t removed_rules = 0;  ///< canonical closure rules removed

  /// False when the edit provably changed no closure rule (e.g. a grant
  /// already subsumed, or a revoke of a still-derivable rule).
  bool changed() const noexcept {
    return full || added_rules != 0 || removed_rules != 0;
  }
};

class IncrementalClosure {
 public:
  /// Chases `base` from scratch, one server at a time (including the
  /// derived-rules cap: kResourceExhausted when it trips), and retains the
  /// per-server pools for later edits. `cat` must outlive the object.
  static Result<IncrementalClosure> Build(const catalog::Catalog& cat,
                                          const AuthorizationSet& base,
                                          const ChaseOptions& options = {});

  /// The maintained base policy (every applied edit, no derivations).
  const AuthorizationSet& base() const noexcept { return base_; }

  /// The canonical chased closure of base(): minimized, grants sorted
  /// within each (server, path) bucket.
  const AuthorizationSet& closed() const noexcept { return closed_; }

  /// Chase work accumulated across Build and every edit, for reporting
  /// only. The ChaseOptions::max_derived_rules cap is NOT applied to this
  /// lifetime total: it bounds the *current closure* — each per-server
  /// chase run plus the sum of per-server derived counts, the same budget
  /// Build enforces — so an arbitrarily long edit history whose
  /// every intermediate closure fits under the cap never trips it.
  const ChaseStats& stats() const noexcept { return stats_; }

  /// Grants `auth`. Validation failures (kInvalidArgument, kNotFound,
  /// kAlreadyExists) leave the object untouched and usable; after a
  /// kResourceExhausted cap trip base() holds the edit but closed() is
  /// inconsistent — keep base() if needed and discard the object.
  Result<ClosureDelta> AddRule(const Authorization& auth);

  /// Revokes exactly `auth` from the base policy (kNotFound when absent;
  /// the object stays usable). Rederives the edited server only. A cap
  /// trip leaves the object as AddRule's does.
  Result<ClosureDelta> RevokeRule(const Authorization& auth);

 private:
  /// Minimized per-path grants of one server, sorted within each path —
  /// the canonical form diffs and closed() are built from.
  using CanonicalRules = std::map<JoinPath, std::vector<IdSet>>;

  IncrementalClosure(const catalog::Catalog& cat, ChaseOptions options);

  static CanonicalRules Canonicalize(const chase_internal::RulePool& pool);

  /// Replaces server `s`'s canonical rules with `next`, rebuilds closed(),
  /// and fills the delta bookkeeping (counts, transition, servers).
  Status Publish(catalog::ServerId server, CanonicalRules next,
                 ClosureDelta& delta);

  /// Rechases one server from its current base rules into a fresh pool,
  /// updating derived_[server] on success.
  Result<chase_internal::RulePool> RechaseServer(catalog::ServerId server);

  /// kResourceExhausted when the per-server derived counts sum past
  /// max_derived_rules — Build's whole-closure budget.
  Status CheckClosureCap() const;

  const catalog::Catalog* cat_;
  ChaseOptions options_;
  std::unique_ptr<chase_internal::EdgeIndex> index_;
  AuthorizationSet base_;
  std::vector<chase_internal::RulePool> pools_;  ///< per server, persistent
  std::vector<CanonicalRules> canon_;            ///< per server, canonical
  /// Rules each server's pool holds beyond its base seeds; the cap applies
  /// to their sum (the closure's size), never to lifetime chase work.
  std::vector<std::size_t> derived_;
  AuthorizationSet closed_;
  ChaseStats stats_;  ///< lifetime totals, reporting only (see stats())
};

/// The relations an authorization mentions: its join path's relations plus
/// (for an empty path) the owning relation of its attributes.
IdSet RuleRelations(const catalog::Catalog& cat, const Authorization& auth);

}  // namespace cisqp::authz
