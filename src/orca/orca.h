#ifndef TAURUS_ORCA_ORCA_H_
#define TAURUS_ORCA_ORCA_H_

#include "myopt/cost_params.h"

namespace taurus {

/// Join-enumeration strategies, mirroring gporca's settings the paper
/// evaluates (Section 6.3): GREEDY builds left-deep trees like MySQL, each
/// new unit on the inner side (but with cost-based method choice);
/// EXHAUSTIVE runs dynamic programming over linear (one-new-unit-at-a-time)
/// join trees in both orientations; EXHAUSTIVE2 — "the most thorough
/// setting" — enumerates bushy partitions as well. All three enumerate
/// connected pairs of the join graph only (DESIGN.md section 16).
enum class JoinSearchStrategy { kGreedy, kExhaustive, kExhaustive2 };

const char* JoinSearchStrategyName(JoinSearchStrategy s);

/// Orca optimizer configuration. The defaults model the paper's setup:
/// EXHAUSTIVE2, OR-refactoring on, bushy plans on, eager aggregation
/// pushdown *off* (MySQL cannot execute GROUP BY below join — Section 7
/// Orca-change item 5), multi-table semi-join build sides off (item 6),
/// and single-node mode on (item 7).
struct OrcaConfig {
  JoinSearchStrategy strategy = JoinSearchStrategy::kExhaustive2;

  /// Factor common conjuncts out of OR ("(a AND x) OR (a AND y)" ->
  /// "a AND (x OR y)"), enabling hash joins and cheaper evaluation —
  /// the TPC-DS Q41 rewrite (Section 6.2).
  bool enable_or_factoring = true;

  /// Allow bushy join trees (EXHAUSTIVE2 only has an effect when on).
  bool enable_bushy = true;

  /// Consider index-nested-loop joins (index lookup on the inner side).
  bool enable_index_nlj = true;

  /// Flip Orca's inner-hash-join children for the MySQL executor's
  /// build-side convention (Section 7 item 2). Disabling this models the
  /// bug the paper found — build sides land on the wrong input.
  bool flip_inner_hash_build = true;

  /// Paper Section 7 item 5: pushing GROUP BY below joins is disabled
  /// because MySQL cannot execute such plans.
  bool enable_eager_agg = false;  // kept for the ablation bench

  /// Section 4.2.3: convert correlated scalar-aggregate subqueries to
  /// grouped derived tables ("Orca might produce a non-correlated
  /// execution plan for a correlated subquery, requiring the derived
  /// table approach") — the Q17 `derived_1_2` conversion.
  bool enable_decorrelation = true;

  /// Single-node mode: distribution/replication properties degenerate
  /// (Section 7 item 7); kept as a flag for documentation symmetry.
  bool single_node_mode = true;

  /// Budget on (left, right) partition pairs — csg-cmp pairs of the join
  /// graph, each orientation counted — one search may cost before it
  /// completes greedily (Orca's own enumeration caps). A guard for dense
  /// graphs, where pairs grow like 3^n/2 (an n-way clique); no workload
  /// statement comes near it: TPC-DS Q64's 11-table star costs 10,240.
  int64_t exhaustive_pair_budget = 200000;
  int64_t exhaustive2_pair_budget = 2000000;

  /// Cost model. Orca's defaults carry the relatively high index-lookup
  /// and hash-join constants the paper calls out as needing tuning
  /// (Section 9); the ablation bench sweeps them.
  CostParams cost = OrcaDefaultCost();

  static CostParams OrcaDefaultCost() {
    CostParams p;
    p.index_descend = 10.0;
    p.index_row = 1.8;
    p.hash_build = 2.0;
    p.hash_probe = 1.2;
    return p;
  }
};

}  // namespace taurus

#endif  // TAURUS_ORCA_ORCA_H_
