// Chase closure of an authorization set (paper §3.2, citing Aho-Beeri-Ullman).
//
// A server that is authorized to view two relations (or views) and sees the
// attributes of a schema-declared join between them could compute the joined
// view on its own; the policy must therefore be treated as if that view were
// explicitly authorized. The closure derives, to fixpoint, every rule implied
// directly or indirectly by the explicit ones:
//
//   [A1, J1] → S,  [A2, J2] → S,  schema edge e = (x, y) with x,y visible
//   (x ∈ A1 ∪ A2 and y ∈ A1 ∪ A2, one endpoint owned inside each rule's
//   relation scope)  ⟹  [A1 ∪ A2, J1 ∪ J2 ∪ {e}] → S.
//
// The derivation is sound because S can materialize both authorized views and
// join them locally on attributes it already sees; no new release occurs.
// Derivations that only restate an existing grant (same path, attribute
// subset) are skipped. A cap bounds the closure on pathological schemas.
//
// The fixpoint is computed semi-naïvely (DESIGN.md §9): each round pairs
// only the rules derived in the previous round (the delta) against the
// whole pool — every unordered rule pair is examined exactly once, in the
// first round after its younger member appeared — and a per-endpoint index
// over the schema's join edges restricts each pair to the edges it can
// actually fire. Per-server closures are independent and are chased one
// server at a time on the calling thread by IncrementalClosure::Build
// (incremental.hpp), the build the serving front door maintains across
// grants and revokes; ChaseClosure returns that build's closure.
#pragma once

#include "authz/authorization.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::authz {

struct ChaseOptions {
  /// Hard cap on the number of derived rules; exceeding it fails with
  /// kResourceExhausted rather than silently truncating the closure.
  std::size_t max_derived_rules = 100000;
  /// Cap on join-path length (atoms) of derived rules; 0 means unlimited.
  std::size_t max_path_atoms = 0;
};

struct ChaseStats {
  std::size_t derived_rules = 0;   ///< rules added by the chase
  std::size_t iterations = 0;      ///< fixpoint rounds executed
  std::size_t pairs_considered = 0;///< (rule, rule, edge) combinations tried
};

/// Returns the canonical closure of `auths` under the derivation above:
/// IncrementalClosure::Build(cat, auths, options)'s closed(), with Build's
/// stats in `stats`. Canonical means minimized — a rule whose attributes
/// are a subset of a same-path rule's is dropped, so an input rule that a
/// derived grant on its path covers is absent — and sorted within each
/// path. Every view an input rule authorizes stays authorized.
Result<AuthorizationSet> ChaseClosure(const catalog::Catalog& cat,
                                      const AuthorizationSet& auths,
                                      const ChaseOptions& options = {},
                                      ChaseStats* stats = nullptr);

}  // namespace cisqp::authz
