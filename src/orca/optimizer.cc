#include "orca/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/fault_injector.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Units 0..v.
uint64_t UpTo(int v) { return v >= 63 ? ~0ULL : (2ULL << v) - 1; }
bool IsSubset(uint64_t a, uint64_t b) { return (a & ~b) == 0; }
bool IsSingleton(uint64_t set) { return (set & (set - 1)) == 0; }

/// Collects base/derived leaves under a logical subtree.
void CollectGetLeaves(const OrcaLogicalOp* op, std::vector<TableRef*>* out) {
  if (op->kind == OrcaLogicalOp::Kind::kGet) {
    out->push_back(op->leaf);
    return;
  }
  for (const auto& c : op->children) CollectGetLeaves(c.get(), out);
}

/// An index nested-loop option on a base-leaf unit: lookups into `index`
/// are bound once the outer side covers one of `binders` (the other units
/// of an equality on the index's first key column; 0 for the unit's own ON
/// condition, which applies whenever the unit joins as a dependent).
struct IndexBinding {
  int index = -1;
  double match = 1.0;  ///< rows matched per lookup
  std::vector<uint64_t> binders;
};

/// One reorderable element of the flattened join tree.
struct Unit {
  OrcaLogicalOp* op = nullptr;   ///< Get, or subtree root for composites
  TableRef* leaf = nullptr;      ///< set for simple (Get) units
  std::vector<Expr*> local_conds;
  JoinType join_type = JoinType::kInner;
  uint64_t dependency = 0;
  std::vector<Expr*> join_conds;

  double rows = 1.0;             ///< after local conjuncts
  double base_rows = 1.0;        ///< before local conjuncts
  double access_cost = 0.0;      ///< best standalone access cost
  /// Where `rows` came from (harvested actual when feedback overrode it).
  CardSource card_source = CardSource::kHistogram;
  OrcaPhysicalOp::Kind access = OrcaPhysicalOp::Kind::kTableScan;
  int access_index = -1;
  std::unique_ptr<OrcaPhysicalOp> composite_plan;  ///< for composite units

  // Join-graph facts, precomputed once per search.
  /// ON conjuncts applied when this dependent unit joins (those over the
  /// unit alone were folded into its access).
  std::vector<Expr*> on_conds;
  bool on_has_equality = false;
  std::vector<IndexBinding> lookups;
};

struct PoolConjunct {
  Expr* expr = nullptr;
  uint64_t units = 0;
};

/// A join conjunct over three or more units: it joins any two disjoint
/// sets that together cover it and each touch it.
struct WideConjunct {
  uint64_t units = 0;
  bool equality = false;
};

/// A DPhyp hyperedge: joins a set covering `left` with a set covering
/// `right` (either way round). Dependent units hang off their dependency
/// this way, and so do the components of a disconnected graph.
struct HyperEdge {
  uint64_t left = 0;
  uint64_t right = 0;
};

/// The cheapest way found so far to produce a unit set.
struct PlanChoice {
  double cost = kInf;
  int leaf_unit = -1;  ///< >= 0: the set is this unit's access path
  // Join spec.
  uint64_t left = 0;
  uint64_t right = 0;
  OrcaPhysicalOp::Kind impl = OrcaPhysicalOp::Kind::kHashJoin;
  JoinType join_type = JoinType::kInner;
  int inner_index = -1;  ///< index for index-NLJ lookups on the right leaf
  /// Total lookup work charged for the inner side of an index NLJ (what the
  /// extracted IndexLookup node reports as its cumulative cost — the unit's
  /// standalone access cost is not on the join's cost scale).
  double inner_lookup_cost = 0.0;
};

/// One memo entry per unit set: its cardinality and, once a plan is found,
/// its memo group id and best plan.
struct GroupState {
  uint64_t set = 0;    ///< key; 0 marks an empty slot
  int id = -1;         ///< memo group id; -1 while no plan is known
  double rows = -1.0;  ///< -1 until computed
  CardSource card_source = CardSource::kHistogram;
  PlanChoice best;
};

/// Dense open-addressed memo keyed by unit mask: linear probing over a
/// power-of-two table kept at most half full. Insert may move entries, so
/// pointers and references into the table are valid only until the next
/// Insert.
class FlatMemo {
 public:
  GroupState* Find(uint64_t set) {
    if (slots_.empty()) return nullptr;
    for (size_t i = Slot(set);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].set == set) return &slots_[i];
      if (slots_[i].set == 0) return nullptr;
    }
  }

  GroupState& Insert(uint64_t set) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Slot(set);
    while (slots_[i].set != 0 && slots_[i].set != set) {
      i = (i + 1) & (slots_.size() - 1);
    }
    if (slots_[i].set == 0) {
      slots_[i].set = set;
      ++size_;
    }
    return slots_[i];
  }

 private:
  size_t Slot(uint64_t set) const {
    return static_cast<size_t>((set * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    std::vector<GroupState> old = std::move(slots_);
    size_t capacity = old.empty() ? 64 : 2 * old.size();
    slots_.assign(capacity, GroupState());
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    for (GroupState& e : old) {
      if (e.set != 0) Insert(e.set) = std::move(e);
    }
  }

  std::vector<GroupState> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

/// Join enumeration for one block: flattens the logical join tree into
/// units, builds the join graph, and runs DPhyp (Moerkotte & Neumann,
/// SIGMOD 2008) over it — every connected csg-cmp pair, bottom-up into a
/// flat memo (DESIGN.md section 16).
class JoinSearch {
 public:
  JoinSearch(const OrcaConfig& config, StatsProvider* stats, int num_refs,
             int64_t* partitions, int* groups,
             ResourceGovernor* governor = nullptr,
             const FeedbackSnapshot* feedback = nullptr,
             int64_t* actual_overrides = nullptr,
             int64_t* sketch_overrides = nullptr)
      : config_(config),
        stats_(stats),
        num_refs_(num_refs),
        partitions_(partitions),
        groups_(groups),
        governor_(governor),
        feedback_(feedback),
        actual_overrides_(actual_overrides),
        sketch_overrides_(sketch_overrides),
        unit_of_ref_(static_cast<size_t>(std::max(num_refs, 0)), -1) {}

  Status Flatten(OrcaLogicalOp* root);
  Result<std::unique_ptr<OrcaPhysicalOp>> Run();

 private:
  Status FlattenInto(OrcaLogicalOp* op, uint64_t* added,
                     std::vector<Expr*> pending_conds);
  Status AddUnit(OrcaLogicalOp* op, JoinType type, uint64_t dependency,
                 std::vector<Expr*> join_conds,
                 std::vector<Expr*> local_conds, uint64_t* added);
  Status SetupUnit(Unit* unit);
  void BuildGraph();

  uint64_t UnitMask(const Expr& e) const;
  /// True when every dependent unit in `set` has its dependency in `set`.
  bool Resolved(uint64_t set) const;
  /// True when a join conjunct (a column equality, with `equality`) spans
  /// disjoint sets `a` and `b`.
  bool Joined(uint64_t a, uint64_t b, bool equality = false) const;
  /// True when any graph edge (conjunct or hyperedge) joins `a` and `b`.
  bool Connected(uint64_t a, uint64_t b) const;
  /// DPhyp neighbourhood of `set` outside `excluded`: every unit adjacent
  /// through a simple edge plus the lowest unit of each minimal hypernode.
  uint64_t Neighbors(uint64_t set, uint64_t excluded) const;

  std::vector<Expr*> CrossConds(uint64_t a, uint64_t b) const;
  double CrossSelectivity(const std::vector<Expr*>& conds) const;
  double Rows(uint64_t set);
  /// Canonical feedback key for a unit subset: the sorted ref_ids of every
  /// leaf it covers (composite units contribute all their Get leaves).
  std::string SetKey(uint64_t set) const;
  /// Fast-AGMS join-size estimate for a two-leaf inner-join set, or -1
  /// when the set has no single-column equi-join with sketches on both
  /// sides (DESIGN.md section 11).
  double SketchJoinRows(uint64_t set) const;
  bool HasPlan(uint64_t set) {
    const GroupState* g = memo_.Find(set);
    return g != nullptr && g->id >= 0;
  }
  /// Records `plan` for `set` if it is cheaper than the set's best so far
  /// (the first of equal-cost plans stays); creates
  /// (and charges) the memo group on the set's first plan.
  Status Commit(uint64_t set, const PlanChoice& plan);

  Status Enumerate();
  Status EnumerateCsgRec(uint64_t s1, uint64_t excluded);
  Status EmitCsg(uint64_t s1);
  Status EnumerateCmpRec(uint64_t s1, uint64_t s2, uint64_t excluded);
  Status EmitCsgCmp(uint64_t s1, uint64_t s2);
  /// Costs joining `a` (outer/probe) with `b` (inner/build) into `set`,
  /// keeping the cheapest alternative in `*best`. Orientations that break a
  /// dependency are skipped before they count as a partition pair.
  Status TryPartition(uint64_t set, uint64_t a, uint64_t b, PlanChoice* best);
  Status GreedyPlan(uint64_t set);
  std::unique_ptr<OrcaPhysicalOp> Extract(uint64_t set);
  std::unique_ptr<OrcaPhysicalOp> BuildLeafPlan(int unit_idx,
                                                bool as_lookup,
                                                int lookup_index);

  const OrcaConfig& config_;
  StatsProvider* stats_;
  int num_refs_;
  int64_t* partitions_;
  int* groups_;
  ResourceGovernor* governor_;
  const FeedbackSnapshot* feedback_;
  int64_t* actual_overrides_;
  int64_t* sketch_overrides_;

  std::vector<Unit> units_;
  std::vector<PoolConjunct> pool_;
  std::vector<int> unit_of_ref_;  ///< ref_id -> unit, -1 outside the block

  // Join graph.
  std::vector<uint64_t> adj_;     ///< per unit: units sharing a 2-unit conjunct
  std::vector<uint64_t> eq_adj_;  ///< ... sharing a 2-unit column equality
  std::vector<WideConjunct> wide_;
  std::vector<HyperEdge> hyper_;
  uint64_t dependents_ = 0;  ///< units joined by a non-inner join

  FlatMemo memo_;
  bool bushy_ = false;
  /// Cost a linear pair with the single unit on the left too (all but
  /// GREEDY, which always joins the new unit on the right).
  bool commute_ = true;
  int64_t budget_ = 0;
  int64_t budget_cap_ = 0;
  bool budget_exhausted_ = false;
};

Status JoinSearch::AddUnit(OrcaLogicalOp* op, JoinType type,
                           uint64_t dependency,
                           std::vector<Expr*> join_conds,
                           std::vector<Expr*> local_conds, uint64_t* added) {
  if (units_.size() >= 64) {
    return Status::NotSupported("more than 64 join units in one block");
  }
  int idx = static_cast<int>(units_.size());
  Unit u;
  u.op = op;
  if (op->kind == OrcaLogicalOp::Kind::kGet) u.leaf = op->leaf;
  u.join_type = type;
  u.dependency = dependency;
  u.join_conds = std::move(join_conds);
  u.local_conds = std::move(local_conds);
  std::vector<TableRef*> leaves;
  CollectGetLeaves(op, &leaves);
  for (TableRef* leaf : leaves) {
    if (leaf->ref_id >= 0 && leaf->ref_id < num_refs_) {
      unit_of_ref_[static_cast<size_t>(leaf->ref_id)] = idx;
    }
  }
  units_.push_back(std::move(u));
  *added |= 1ULL << idx;
  return Status::OK();
}

Status JoinSearch::FlattenInto(OrcaLogicalOp* op, uint64_t* added,
                               std::vector<Expr*> pending_conds) {
  switch (op->kind) {
    case OrcaLogicalOp::Kind::kGet:
      return AddUnit(op, JoinType::kInner, 0, {}, std::move(pending_conds),
                     added);
    case OrcaLogicalOp::Kind::kSelect: {
      // Selection directly over a Get: local conjuncts. Over anything
      // else: hand the conjuncts to the pool via pending for the child.
      std::vector<Expr*> conds = pending_conds;
      conds.insert(conds.end(), op->conds.begin(), op->conds.end());
      OrcaLogicalOp* child = op->children[0].get();
      if (child->kind == OrcaLogicalOp::Kind::kGet) {
        return AddUnit(child, JoinType::kInner, 0, {}, std::move(conds),
                       added);
      }
      TAURUS_RETURN_IF_ERROR(FlattenInto(child, added, {}));
      for (Expr* c : conds) pool_.push_back(PoolConjunct{c, 0});
      return Status::OK();
    }
    case OrcaLogicalOp::Kind::kJoin: {
      if (op->join_type == JoinType::kInner ||
          op->join_type == JoinType::kCross) {
        TAURUS_RETURN_IF_ERROR(FlattenInto(op->children[0].get(), added, {}));
        TAURUS_RETURN_IF_ERROR(FlattenInto(op->children[1].get(), added, {}));
        for (Expr* c : op->conds) pool_.push_back(PoolConjunct{c, 0});
        for (Expr* c : pending_conds) pool_.push_back(PoolConjunct{c, 0});
        return Status::OK();
      }
      uint64_t left_mask = 0;
      TAURUS_RETURN_IF_ERROR(
          FlattenInto(op->children[0].get(), &left_mask, {}));
      *added |= left_mask;
      OrcaLogicalOp* right = op->children[1].get();
      std::vector<Expr*> local;
      if (right->kind == OrcaLogicalOp::Kind::kSelect &&
          right->children[0]->kind == OrcaLogicalOp::Kind::kGet) {
        local = right->conds;
        right = right->children[0].get();
      }
      TAURUS_RETURN_IF_ERROR(AddUnit(right, op->join_type, left_mask,
                                     op->conds, std::move(local), added));
      for (Expr* c : pending_conds) pool_.push_back(PoolConjunct{c, 0});
      return Status::OK();
    }
  }
  return Status::Internal("unreachable logical kind");
}

uint64_t JoinSearch::UnitMask(const Expr& e) const {
  std::vector<bool> refs(static_cast<size_t>(num_refs_), false);
  CollectReferencedRefs(e, &refs);
  uint64_t mask = 0;
  for (int r = 0; r < num_refs_; ++r) {
    int u = unit_of_ref_[static_cast<size_t>(r)];
    if (refs[static_cast<size_t>(r)] && u >= 0) mask |= 1ULL << u;
  }
  return mask;
}

Status JoinSearch::SetupUnit(Unit* unit) {
  if (unit->op->kind == OrcaLogicalOp::Kind::kGet) {
    unit->base_rows = stats_->LeafBaseRows(*unit->leaf);
    double sel = 1.0;
    for (const Expr* c : unit->local_conds) {
      sel *= stats_->ConjunctSelectivity(*c);
    }
    unit->rows = std::max(unit->base_rows * std::clamp(sel, 0.0, 1.0), 1.0);
    // Harvested actual for this (filtered) leaf overrides the histogram
    // estimate — the strongest source in the feedback precedence order.
    if (feedback_ != nullptr) {
      auto fb = feedback_->node_actuals.find(RefSetKey({unit->leaf->ref_id}));
      if (fb != feedback_->node_actuals.end()) {
        unit->rows = std::max(fb->second, 1.0);
        unit->card_source = CardSource::kActual;
        if (actual_overrides_ != nullptr) ++*actual_overrides_;
      }
    }
    // Access choice: sequential scan vs index range over a local range
    // predicate (cost-based, unlike stock MySQL's heuristics).
    unit->access = OrcaPhysicalOp::Kind::kTableScan;
    unit->access_cost = unit->base_rows * config_.cost.seq_row;
    if (unit->leaf->kind == TableRef::Kind::kBase &&
        unit->leaf->table != nullptr) {
      for (const Expr* c : unit->local_conds) {
        const Expr* col = nullptr;
        if (c->kind == Expr::Kind::kBetween && !c->negated) {
          col = c->children[0].get();
        } else if (c->kind == Expr::Kind::kBinary && IsComparisonOp(c->bop) &&
                   c->bop != BinaryOp::kNe) {
          if (c->children[0]->kind == Expr::Kind::kColumnRef) {
            col = c->children[0].get();
          } else if (c->children[1]->kind == Expr::Kind::kColumnRef) {
            col = c->children[1].get();
          }
        }
        if (col == nullptr || col->kind != Expr::Kind::kColumnRef ||
            col->ref_id != unit->leaf->ref_id) {
          continue;
        }
        for (size_t i = 0; i < unit->leaf->table->indexes.size(); ++i) {
          const IndexDef& idx = unit->leaf->table->indexes[i];
          if (idx.column_idx.empty() ||
              idx.column_idx[0] != col->column_idx) {
            continue;
          }
          double range_sel = stats_->ConjunctSelectivity(*c);
          double cost = config_.cost.index_descend +
                        range_sel * unit->base_rows * config_.cost.index_row;
          if (cost < unit->access_cost) {
            unit->access_cost = cost;
            unit->access = OrcaPhysicalOp::Kind::kIndexRangeScan;
            unit->access_index = static_cast<int>(i);
          }
        }
      }
      // Correlated "ref" access: equality binding an index's first key
      // column to a purely-outer expression (correlated subquery blocks).
      for (const Expr* c : unit->local_conds) {
        if (c->kind != Expr::Kind::kBinary || c->bop != BinaryOp::kEq) {
          continue;
        }
        for (int side = 0; side < 2; ++side) {
          const Expr& col = *c->children[static_cast<size_t>(side)];
          const Expr& other = *c->children[static_cast<size_t>(1 - side)];
          if (col.kind != Expr::Kind::kColumnRef ||
              col.ref_id != unit->leaf->ref_id) {
            continue;
          }
          std::vector<bool> other_refs(static_cast<size_t>(num_refs_),
                                       false);
          CollectReferencedRefs(other, &other_refs);
          if (unit->leaf->ref_id >= 0 &&
              other_refs[static_cast<size_t>(unit->leaf->ref_id)]) {
            continue;
          }
          bool touches_sibling_unit = false;
          for (int r = 0; r < num_refs_; ++r) {
            if (other_refs[static_cast<size_t>(r)] &&
                unit_of_ref_[static_cast<size_t>(r)] >= 0) {
              touches_sibling_unit = true;
            }
          }
          if (touches_sibling_unit) continue;
          for (size_t i = 0; i < unit->leaf->table->indexes.size(); ++i) {
            const IndexDef& idx = unit->leaf->table->indexes[i];
            if (idx.column_idx.empty() ||
                idx.column_idx[0] != col.column_idx) {
              continue;
            }
            double ndv = stats_->NdvOf(unit->leaf->ref_id, col.column_idx,
                                       std::max(unit->base_rows, 1.0));
            double match =
                std::max(unit->base_rows / std::max(ndv, 1.0), 1.0);
            double cost = config_.cost.index_descend +
                          match * config_.cost.index_row;
            if (cost < unit->access_cost) {
              unit->access_cost = cost;
              unit->access = OrcaPhysicalOp::Kind::kIndexLookup;
              unit->access_index = static_cast<int>(i);
            }
          }
        }
      }
    }
    return Status::OK();
  }
  // Composite unit: optimize its subtree recursively with a fresh search,
  // folding in join-cond pieces that reference only this unit.
  JoinSearch sub(config_, stats_, num_refs_, partitions_, groups_, governor_,
                 feedback_, actual_overrides_, sketch_overrides_);
  TAURUS_RETURN_IF_ERROR(sub.Flatten(unit->op));
  // Restrict join_conds to subtree-only pieces and push them in: refs to
  // outer blocks (no unit) are fine, refs to sibling units are not.
  const int self = static_cast<int>(unit - units_.data());
  for (Expr* jc : unit->join_conds) {
    std::vector<bool> refs(static_cast<size_t>(num_refs_), false);
    CollectReferencedRefs(*jc, &refs);
    bool subtree_only = true;
    for (int r = 0; r < num_refs_; ++r) {
      int owner = unit_of_ref_[static_cast<size_t>(r)];
      if (refs[static_cast<size_t>(r)] && owner >= 0 && owner != self) {
        subtree_only = false;
      }
    }
    if (subtree_only) sub.pool_.push_back(PoolConjunct{jc, 0});
  }
  for (PoolConjunct& c : sub.pool_) c.units = sub.UnitMask(*c.expr);
  // Fold freshly-added single-unit conjuncts into unit-local conditions.
  {
    std::vector<PoolConjunct> keep;
    for (PoolConjunct& c : sub.pool_) {
      if (c.units != 0 && std::popcount(c.units) == 1) {
        int uidx = std::countr_zero(c.units);
        Unit& su = sub.units_[static_cast<size_t>(uidx)];
        bool already = false;
        for (const Expr* lc : su.local_conds) {
          if (lc == c.expr) already = true;
        }
        if (!already) su.local_conds.push_back(c.expr);
      } else {
        keep.push_back(c);
      }
    }
    sub.pool_ = std::move(keep);
  }
  TAURUS_ASSIGN_OR_RETURN(unit->composite_plan, sub.Run());
  unit->rows = std::max(unit->composite_plan->rows, 1.0);
  unit->base_rows = unit->rows;
  unit->access_cost = unit->composite_plan->cost;
  unit->card_source = unit->composite_plan->card_source;
  return Status::OK();
}

Status JoinSearch::Flatten(OrcaLogicalOp* root) {
  uint64_t added = 0;
  TAURUS_RETURN_IF_ERROR(FlattenInto(root, &added, {}));
  for (PoolConjunct& c : pool_) c.units = UnitMask(*c.expr);
  // Single-unit pool conjuncts fold into that unit's local conditions.
  std::vector<PoolConjunct> keep;
  for (PoolConjunct& c : pool_) {
    if (c.units != 0 && std::popcount(c.units) == 1) {
      int u = std::countr_zero(c.units);
      units_[static_cast<size_t>(u)].local_conds.push_back(c.expr);
    } else {
      keep.push_back(c);
    }
  }
  pool_ = std::move(keep);
  return Status::OK();
}


void JoinSearch::BuildGraph() {
  const size_t n = units_.size();
  adj_.assign(n, 0);
  eq_adj_.assign(n, 0);
  for (const PoolConjunct& c : pool_) {
    if (std::popcount(c.units) < 2) continue;
    bool equality = StatsProvider::IsColumnEquality(*c.expr);
    if (std::popcount(c.units) > 2) {
      wide_.push_back(WideConjunct{c.units, equality});
      continue;
    }
    int x = std::countr_zero(c.units);
    int y = std::countr_zero(c.units & (c.units - 1));
    adj_[static_cast<size_t>(x)] |= 1ULL << y;
    adj_[static_cast<size_t>(y)] |= 1ULL << x;
    if (equality) {
      eq_adj_[static_cast<size_t>(x)] |= 1ULL << y;
      eq_adj_[static_cast<size_t>(y)] |= 1ULL << x;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Unit& u = units_[i];
    const uint64_t bit = 1ULL << i;
    if (u.join_type != JoinType::kInner) {
      dependents_ |= bit;
      hyper_.push_back(HyperEdge{u.dependency, bit});
      for (Expr* jc : u.join_conds) {
        if (UnitMask(*jc) == bit) continue;  // folded into the unit already
        u.on_conds.push_back(jc);
        if (StatsProvider::IsColumnEquality(*jc)) u.on_has_equality = true;
      }
    }
    if (u.leaf == nullptr || u.leaf->kind != TableRef::Kind::kBase ||
        u.leaf->table == nullptr) {
      continue;
    }
    // Index-NLJ bindings: equalities on an index's first key column.
    auto binds = [&](const Expr& c, int column) {
      if (c.kind != Expr::Kind::kBinary || c.bop != BinaryOp::kEq) {
        return false;
      }
      for (const auto& side : c.children) {
        if (side->kind == Expr::Kind::kColumnRef &&
            side->ref_id == u.leaf->ref_id && side->column_idx == column) {
          return true;
        }
      }
      return false;
    };
    for (size_t idx = 0; idx < u.leaf->table->indexes.size(); ++idx) {
      const IndexDef& def = u.leaf->table->indexes[idx];
      if (def.column_idx.empty()) continue;
      IndexBinding b;
      b.index = static_cast<int>(idx);
      for (const PoolConjunct& c : pool_) {
        if ((c.units & bit) != 0 && std::popcount(c.units) >= 2 &&
            binds(*c.expr, def.column_idx[0])) {
          b.binders.push_back(c.units & ~bit);
        }
      }
      for (const Expr* jc : u.on_conds) {
        if (binds(*jc, def.column_idx[0])) b.binders.push_back(0);
      }
      if (b.binders.empty()) continue;
      double ndv = stats_->NdvOf(u.leaf->ref_id, def.column_idx[0],
                                 std::max(u.base_rows, 1.0));
      b.match = std::max(u.base_rows / std::max(ndv, 1.0), 1.0);
      u.lookups.push_back(std::move(b));
    }
  }

  // Components: units linked by a conjunct between inner units, or by a
  // dependency edge whose dependency lies within one component. Only a graph
  // left with several components gets cross products, as hyperedges between
  // whole components. A conjunct touching a dependent unit links nothing:
  // the unit joins only after its whole dependency, so merging it early
  // could hide a cross product its dependency needs.
  std::vector<uint64_t> comps;
  for (size_t i = 0; i < n; ++i) comps.push_back(1ULL << i);
  constexpr size_t kNone = ~size_t{0};
  // The component holding all of `units`, or kNone if they span several.
  auto home = [&comps](uint64_t units) {
    for (size_t i = 0; i < comps.size(); ++i) {
      if ((comps[i] & units) != 0) return IsSubset(units, comps[i]) ? i : kNone;
    }
    return kNone;
  };
  auto merge = [&](uint64_t a, uint64_t b) {
    size_t ia = home(a);
    size_t ib = home(b);
    if (ia == kNone || ib == kNone || ia == ib) return false;
    comps[ia] |= comps[ib];
    comps.erase(comps.begin() + static_cast<std::ptrdiff_t>(ib));
    return true;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const PoolConjunct& c : pool_) {
      if (std::popcount(c.units) < 2 || (c.units & dependents_) != 0) {
        continue;
      }
      // The part in the first component it touches vs. the rest.
      uint64_t first = 0;
      for (uint64_t comp : comps) {
        if ((comp & c.units) != 0) {
          first = comp & c.units;
          break;
        }
      }
      if (first != c.units && merge(first, c.units & ~first)) changed = true;
    }
    for (uint64_t d = dependents_; d != 0; d &= d - 1) {
      const int i = std::countr_zero(d);
      if (merge(units_[static_cast<size_t>(i)].dependency, 1ULL << i)) {
        changed = true;
      }
    }
  }
  for (size_t i = 0; i < comps.size(); ++i) {
    for (size_t j = i + 1; j < comps.size(); ++j) {
      hyper_.push_back(HyperEdge{comps[i], comps[j]});
    }
  }
}

bool JoinSearch::Resolved(uint64_t set) const {
  for (uint64_t d = set & dependents_; d != 0; d &= d - 1) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(d))];
    if (!IsSubset(u.dependency, set)) return false;
  }
  return true;
}

bool JoinSearch::Joined(uint64_t a, uint64_t b, bool equality) const {
  const std::vector<uint64_t>& adj = equality ? eq_adj_ : adj_;
  for (uint64_t s = a; s != 0; s &= s - 1) {
    if ((adj[static_cast<size_t>(std::countr_zero(s))] & b) != 0) return true;
  }
  for (const WideConjunct& w : wide_) {
    if ((w.equality || !equality) && IsSubset(w.units, a | b) &&
        (w.units & a) != 0 && (w.units & b) != 0) {
      return true;
    }
  }
  return false;
}

bool JoinSearch::Connected(uint64_t a, uint64_t b) const {
  if (Joined(a, b)) return true;
  for (const HyperEdge& h : hyper_) {
    if ((IsSubset(h.left, a) && IsSubset(h.right, b)) ||
        (IsSubset(h.left, b) && IsSubset(h.right, a))) {
      return true;
    }
  }
  return false;
}

uint64_t JoinSearch::Neighbors(uint64_t set, uint64_t excluded) const {
  excluded |= set;
  uint64_t simple = 0;
  for (uint64_t s = set; s != 0; s &= s - 1) {
    simple |= adj_[static_cast<size_t>(std::countr_zero(s))];
  }
  simple &= ~excluded;
  if (wide_.empty() && hyper_.empty()) return simple;
  // Hypernodes reachable from `set`. Only minimal ones count: a hypernode
  // containing a simple neighbour or another hypernode adds nothing.
  auto for_each_node = [&](auto&& fn) {
    auto visit = [&](uint64_t node) {
      if (node != 0 && (node & (excluded | simple)) == 0) fn(node);
    };
    for (const WideConjunct& w : wide_) {
      if ((w.units & set) != 0) visit(w.units & ~set);
    }
    for (const HyperEdge& h : hyper_) {
      if (IsSubset(h.left, set)) visit(h.right);
      if (IsSubset(h.right, set)) visit(h.left);
    }
  };
  uint64_t out = simple;
  for_each_node([&](uint64_t node) {
    bool minimal = true;
    for_each_node([&](uint64_t other) {
      if (other != node && IsSubset(other, node)) minimal = false;
    });
    if (minimal) out |= node & (~node + 1);  // its lowest unit
  });
  return out;
}

std::vector<Expr*> JoinSearch::CrossConds(uint64_t a, uint64_t b) const {
  std::vector<Expr*> out;
  uint64_t both = a | b;
  for (const PoolConjunct& c : pool_) {
    if (c.units == 0) continue;
    if ((c.units & ~both) != 0) continue;
    if ((c.units & a) == 0 || (c.units & b) == 0) continue;
    out.push_back(c.expr);
  }
  // Dependent unit joined as the whole right side contributes its ON.
  if (IsSingleton(b)) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(b))];
    out.insert(out.end(), u.on_conds.begin(), u.on_conds.end());
  }
  return out;
}

double JoinSearch::CrossSelectivity(const std::vector<Expr*>& conds) const {
  double sel = 1.0;
  for (const Expr* c : conds) {
    if (StatsProvider::IsColumnEquality(*c)) {
      sel *= stats_->EqJoinSelectivity(*c);
    } else {
      sel *= stats_->ConjunctSelectivity(*c);
    }
  }
  return std::clamp(sel, 0.0, 1.0);
}

std::string JoinSearch::SetKey(uint64_t set) const {
  std::vector<int> refs;
  for (size_t u = 0; u < units_.size(); ++u) {
    if ((set & (1ULL << u)) == 0) continue;
    if (units_[u].leaf != nullptr) {
      refs.push_back(units_[u].leaf->ref_id);
    } else {
      std::vector<TableRef*> leaves;
      CollectGetLeaves(units_[u].op, &leaves);
      for (const TableRef* leaf : leaves) refs.push_back(leaf->ref_id);
    }
  }
  return RefSetKey(std::move(refs));
}

double JoinSearch::SketchJoinRows(uint64_t set) const {
  if (feedback_ == nullptr || feedback_->sketches.empty()) return -1.0;
  if (std::popcount(set) != 2) return -1.0;
  int ua = std::countr_zero(set);
  int ub = std::countr_zero(set & (set - 1));
  const Unit& a = units_[static_cast<size_t>(ua)];
  const Unit& b = units_[static_cast<size_t>(ub)];
  if (a.leaf == nullptr || b.leaf == nullptr) return -1.0;
  if (a.join_type != JoinType::kInner || b.join_type != JoinType::kInner) {
    return -1.0;
  }
  // The sketches describe single join-key columns, so the set must be
  // joined by exactly one single-column equality (other non-equality
  // conjuncts are applied by the caller as selectivities).
  const Expr* eq = nullptr;
  double other_sel = 1.0;
  for (const PoolConjunct& c : pool_) {
    if (c.units == 0 || (c.units & ~set) != 0) continue;
    if (std::popcount(c.units) < 2) continue;
    if (StatsProvider::IsColumnEquality(*c.expr)) {
      if (eq != nullptr) return -1.0;  // multi-column join key
      eq = c.expr;
    } else {
      other_sel *= stats_->ConjunctSelectivity(*c.expr);
    }
  }
  if (eq == nullptr) return -1.0;
  const Expr& l = *eq->children[0];
  const Expr& r = *eq->children[1];
  if (l.kind != Expr::Kind::kColumnRef || r.kind != Expr::Kind::kColumnRef) {
    return -1.0;
  }
  auto find_sketch = [&](const Expr& col) -> const AgmsSketch* {
    if (col.ref_id != a.leaf->ref_id && col.ref_id != b.leaf->ref_id) {
      return nullptr;
    }
    auto it = feedback_->sketches.find(
        SketchSet::StreamKey(col.ref_id, col.column_idx));
    return it != feedback_->sketches.end() ? it->second.get() : nullptr;
  };
  const AgmsSketch* sl = find_sketch(l);
  const AgmsSketch* sr = find_sketch(r);
  if (sl == nullptr || sr == nullptr || sl == sr) return -1.0;
  return std::max(sl->JoinSizeEstimate(*sr), 1.0) *
         std::clamp(other_sel, 0.0, 1.0);
}

double JoinSearch::Rows(uint64_t set) {
  if (const GroupState* e = memo_.Find(set); e != nullptr && e->rows >= 0.0) {
    return e->rows;
  }
  double rows;
  CardSource source = CardSource::kHistogram;
  const double* actual = nullptr;
  if (feedback_ != nullptr && !IsSingleton(set)) {
    auto it = feedback_->node_actuals.find(SetKey(set));
    if (it != feedback_->node_actuals.end()) actual = &it->second;
  }
  if (IsSingleton(set)) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(set))];
    rows = u.rows;
    source = u.card_source;
  } else if (actual != nullptr) {
    // A prior execution measured this exact sub-join: its actual output
    // cardinality beats any estimate.
    rows = std::max(*actual, 1.0);
    source = CardSource::kActual;
    if (actual_overrides_ != nullptr) ++*actual_overrides_;
  } else {
    // Canonical decomposition: peel the highest dependent unit whose
    // dependency is satisfied; otherwise all-inner product formula.
    int dependent = -1;
    for (uint64_t d = set & dependents_; d != 0;) {
      int u = 63 - std::countl_zero(d);
      uint64_t bit = 1ULL << u;
      d &= ~bit;
      if (IsSubset(units_[static_cast<size_t>(u)].dependency, set & ~bit)) {
        dependent = u;
        break;
      }
    }
    if (dependent >= 0) {
      uint64_t bit = 1ULL << dependent;
      const Unit& u = units_[static_cast<size_t>(dependent)];
      double base = Rows(set & ~bit);
      double sel = CrossSelectivity(CrossConds(set & ~bit, bit));
      double inner_est = base * u.rows * sel;
      switch (u.join_type) {
        case JoinType::kSemi:
          rows = std::min(base, std::max(inner_est, 1.0));
          break;
        case JoinType::kAntiSemi:
          rows = std::max(base - std::min(base, inner_est), 1.0);
          break;
        case JoinType::kLeft:
          rows = std::max(inner_est, base);
          break;
        default:
          rows = inner_est;
          break;
      }
    } else {
      // Second preference: a Fast-AGMS join-size estimate for a two-leaf
      // equi-join whose key streams were sketched during a prior
      // execution; histogram product formula otherwise.
      double sketch_rows = SketchJoinRows(set);
      if (sketch_rows >= 0.0) {
        rows = sketch_rows;
        source = CardSource::kSketch;
        if (sketch_overrides_ != nullptr) ++*sketch_overrides_;
      } else {
        rows = 1.0;
        for (size_t u = 0; u < units_.size(); ++u) {
          if (set & (1ULL << u)) rows *= units_[u].rows;
        }
        for (const PoolConjunct& c : pool_) {
          if (c.units == 0 || (c.units & ~set) != 0) continue;
          if (std::popcount(c.units) < 2) continue;
          if (StatsProvider::IsColumnEquality(*c.expr)) {
            rows *= stats_->EqJoinSelectivity(*c.expr);
          } else {
            rows *= stats_->ConjunctSelectivity(*c.expr);
          }
        }
      }
    }
  }
  rows = std::max(rows, 1.0);
  GroupState& e = memo_.Insert(set);
  e.rows = rows;
  e.card_source = source;
  return rows;
}

Status JoinSearch::Commit(uint64_t set, const PlanChoice& plan) {
  Rows(set);  // makes sure the entry exists with its cardinality
  GroupState* g = memo_.Find(set);
  if (g->id < 0) {
    TAURUS_FAULT_POINT("orca.memo_explore");
    g->id = (*groups_)++;
    if (governor_ != nullptr) {
      TAURUS_RETURN_IF_ERROR(governor_->ChargeMemoGroups(*groups_));
    }
  }
  if (plan.cost < g->best.cost) g->best = plan;
  return Status::OK();
}

Status JoinSearch::TryPartition(uint64_t set, uint64_t a, uint64_t b,
                                PlanChoice* best) {
  if (!Resolved(a)) return Status::OK();
  JoinType jt = JoinType::kInner;
  const Unit* right_unit =
      IsSingleton(b) ? &units_[static_cast<size_t>(std::countr_zero(b))]
                     : nullptr;
  if (right_unit != nullptr && right_unit->join_type != JoinType::kInner) {
    if (!IsSubset(right_unit->dependency, a)) return Status::OK();
    jt = right_unit->join_type;
  } else if (!Resolved(b)) {
    // A non-singleton right side must resolve its dependents internally.
    return Status::OK();
  }

  ++(*partitions_);
  if (++budget_ > budget_cap_) budget_exhausted_ = true;
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargePartitionPair());
  }

  const GroupState* ga = memo_.Find(a);
  const GroupState* gb = memo_.Find(b);
  if (ga == nullptr || gb == nullptr || ga->id < 0 || gb->id < 0) {
    return Status::OK();
  }
  const double cost_a = ga->best.cost;
  const double cost_b = gb->best.cost;
  const double rows_a = ga->rows;
  const double rows_b = gb->rows;
  const double out_rows = Rows(set);  // may grow the memo: ga/gb now stale
  const CostParams& cp = config_.cost;

  PlanChoice join;
  join.left = a;
  join.right = b;
  join.join_type = jt;
  auto consider = [&](double cost, OrcaPhysicalOp::Kind impl, int index,
                      double lookup_cost) {
    join.cost = cost;
    join.impl = impl;
    join.inner_index = index;
    join.inner_lookup_cost = lookup_cost;
    if (join.cost < best->cost) *best = join;
  };

  // Hash join: build on the right (Orca's convention).
  if (Joined(a, b, /*equality=*/true) ||
      (right_unit != nullptr && right_unit->on_has_equality)) {
    consider(cost_a + cost_b + rows_b * cp.hash_build +
                 rows_a * cp.hash_probe + out_rows * cp.row_out,
             OrcaPhysicalOp::Kind::kHashJoin, -1, 0.0);
  }

  // Index nested-loop join: right side is a single base leaf with an index
  // whose first key column is bound by one of the equalities.
  if (config_.enable_index_nlj && right_unit != nullptr) {
    for (const IndexBinding& lookup : right_unit->lookups) {
      if (std::none_of(lookup.binders.begin(), lookup.binders.end(),
                       [a](uint64_t m) { return IsSubset(m, a); })) {
        continue;
      }
      double lookup_cost =
          rows_a * (cp.index_descend + lookup.match * cp.index_row);
      consider(cost_a + lookup_cost + out_rows * cp.row_out,
               OrcaPhysicalOp::Kind::kNLJoin, lookup.index, lookup_cost);
    }
  }

  // Plain nested-loop join (inner side re-executed per outer row).
  double inner_cost = std::max(cost_b, 1.0);
  consider(cost_a + rows_a * inner_cost + out_rows * cp.row_out,
           OrcaPhysicalOp::Kind::kNLJoin, -1, 0.0);
  return Status::OK();
}

// DPhyp: for each start unit v, highest first, grow connected sets whose
// lowest unit is v (EnumerateCsgRec) and pair each with every connected
// complement above v (EmitCsg / EnumerateCmpRec). Subsets of the
// neighbourhood are visited in increasing order, so each set's pairs are
// all costed before the set is itself joined.

Status JoinSearch::Enumerate() {
  bushy_ = config_.strategy == JoinSearchStrategy::kExhaustive2 &&
           config_.enable_bushy;
  commute_ = config_.strategy != JoinSearchStrategy::kGreedy;
  budget_cap_ = config_.strategy == JoinSearchStrategy::kExhaustive2
                    ? config_.exhaustive2_pair_budget
                    : config_.exhaustive_pair_budget;
  for (int v = static_cast<int>(units_.size()) - 1;
       v >= 0 && !budget_exhausted_; --v) {
    TAURUS_RETURN_IF_ERROR(EmitCsg(1ULL << v));
    TAURUS_RETURN_IF_ERROR(EnumerateCsgRec(1ULL << v, UpTo(v)));
  }
  return Status::OK();
}

Status JoinSearch::EnumerateCsgRec(uint64_t s1, uint64_t excluded) {
  const uint64_t n = Neighbors(s1, excluded);
  if (n == 0) return Status::OK();
  for (uint64_t sub = n & (~n + 1); sub != 0 && !budget_exhausted_;
       sub = (sub - n) & n) {
    if (HasPlan(s1 | sub)) TAURUS_RETURN_IF_ERROR(EmitCsg(s1 | sub));
  }
  for (uint64_t sub = n & (~n + 1); sub != 0 && !budget_exhausted_;
       sub = (sub - n) & n) {
    TAURUS_RETURN_IF_ERROR(EnumerateCsgRec(s1 | sub, excluded | n));
  }
  return Status::OK();
}

Status JoinSearch::EmitCsg(uint64_t s1) {
  const uint64_t excluded = s1 | UpTo(std::countr_zero(s1));
  const uint64_t n = Neighbors(s1, excluded);
  for (uint64_t rest = n; rest != 0 && !budget_exhausted_;) {
    const int w = 63 - std::countl_zero(rest);
    const uint64_t s2 = 1ULL << w;
    rest &= ~s2;
    if (Connected(s1, s2)) TAURUS_RETURN_IF_ERROR(EmitCsgCmp(s1, s2));
    // Linear trees need a singleton on one side: grow complements only
    // against a single unit.
    if (bushy_ || IsSingleton(s1)) {
      TAURUS_RETURN_IF_ERROR(
          EnumerateCmpRec(s1, s2, excluded | (UpTo(w) & n)));
    }
  }
  return Status::OK();
}

Status JoinSearch::EnumerateCmpRec(uint64_t s1, uint64_t s2,
                                   uint64_t excluded) {
  const uint64_t n = Neighbors(s2, excluded);
  if (n == 0) return Status::OK();
  for (uint64_t sub = n & (~n + 1); sub != 0 && !budget_exhausted_;
       sub = (sub - n) & n) {
    if (HasPlan(s2 | sub) && Connected(s1, s2 | sub)) {
      TAURUS_RETURN_IF_ERROR(EmitCsgCmp(s1, s2 | sub));
    }
  }
  for (uint64_t sub = n & (~n + 1); sub != 0 && !budget_exhausted_;
       sub = (sub - n) & n) {
    TAURUS_RETURN_IF_ERROR(EnumerateCmpRec(s1, s2 | sub, excluded | n));
  }
  return Status::OK();
}

Status JoinSearch::EmitCsgCmp(uint64_t s1, uint64_t s2) {
  // Both orientations (hash-join build side and the outer of a nested
  // loop). Linear search joins a single unit on the right first, the
  // lowest one when both sides are single units. GREEDY commutes only a
  // pair of single units: the unit it adds stays on the right.
  if (!bushy_ && IsSingleton(s1)) std::swap(s1, s2);
  PlanChoice best;
  TAURUS_RETURN_IF_ERROR(TryPartition(s1 | s2, s1, s2, &best));
  if (commute_ || IsSingleton(s1)) {
    TAURUS_RETURN_IF_ERROR(TryPartition(s1 | s2, s2, s1, &best));
  }
  if (best.cost == kInf) return Status::OK();
  return Commit(s1 | s2, best);
}

Status JoinSearch::GreedyPlan(uint64_t set) {
  if (HasPlan(set)) return Status::OK();
  // Forward greedy, left-deep: start from the cheapest inner unit to
  // access, then repeatedly join on the right the unit whose join costs
  // least, taking a cross product only when no unit is joined.
  int first = -1;
  for (uint64_t s = set & ~dependents_; s != 0; s &= s - 1) {
    const int u = std::countr_zero(s);
    if (first < 0 || units_[static_cast<size_t>(u)].access_cost <
                         units_[static_cast<size_t>(first)].access_cost) {
      first = u;
    }
  }
  uint64_t done = first >= 0 ? 1ULL << first : 0;
  while (done != 0 && done != set) {
    PlanChoice best;
    for (bool allow_cross : {false, true}) {
      for (uint64_t s = set & ~done; s != 0; s &= s - 1) {
        const uint64_t bit = s & (~s + 1);
        const Unit& unit = units_[static_cast<size_t>(std::countr_zero(s))];
        const bool dependent = unit.join_type != JoinType::kInner;
        if (dependent && !IsSubset(unit.dependency, done)) continue;
        if (!allow_cross && !dependent && !Joined(done, bit)) continue;
        TAURUS_RETURN_IF_ERROR(TryPartition(done | bit, done, bit, &best));
      }
      if (best.cost < kInf) break;
    }
    if (best.cost == kInf) break;
    done |= best.right;
    TAURUS_RETURN_IF_ERROR(Commit(done, best));
  }
  if (done != set) {
    return Status::Internal("greedy join ordering found no extension");
  }
  return Status::OK();
}

std::unique_ptr<OrcaPhysicalOp> JoinSearch::BuildLeafPlan(int unit_idx,
                                                          bool as_lookup,
                                                          int lookup_index) {
  Unit& u = units_[static_cast<size_t>(unit_idx)];
  if (u.composite_plan != nullptr) {
    return std::move(u.composite_plan);
  }
  auto op = std::make_unique<OrcaPhysicalOp>();
  op->leaf = u.leaf;
  op->filters = u.local_conds;
  op->rows = u.rows;
  op->cost = u.access_cost;
  op->card_source = u.card_source;
  if (as_lookup) {
    op->kind = OrcaPhysicalOp::Kind::kIndexLookup;
    op->index_id = lookup_index;
  } else {
    op->kind = u.access;
    op->index_id = u.access_index;
  }
  return op;
}

std::unique_ptr<OrcaPhysicalOp> JoinSearch::Extract(uint64_t set) {
  const GroupState& g = *memo_.Find(set);
  if (g.best.leaf_unit >= 0) {
    auto op = BuildLeafPlan(g.best.leaf_unit, false, -1);
    op->memo_group = g.id;
    return op;
  }
  auto op = std::make_unique<OrcaPhysicalOp>();
  op->kind = g.best.impl;
  op->join_type = g.best.join_type;
  op->rows = g.rows;
  op->cost = g.best.cost;
  op->card_source = g.card_source;
  op->memo_group = g.id;
  op->conds = CrossConds(g.best.left, g.best.right);
  op->children.push_back(Extract(g.best.left));
  if (g.best.inner_index >= 0) {
    const GroupState& gr = *memo_.Find(g.best.right);
    auto right = BuildLeafPlan(gr.best.leaf_unit, true, g.best.inner_index);
    right->memo_group = gr.id;
    right->cost = g.best.inner_lookup_cost;
    op->children.push_back(std::move(right));
  } else {
    op->children.push_back(Extract(g.best.right));
  }
  return op;
}

Result<std::unique_ptr<OrcaPhysicalOp>> JoinSearch::Run() {
  if (units_.empty()) {
    return Status::Internal("no units to optimize");
  }
  for (Unit& u : units_) {
    TAURUS_RETURN_IF_ERROR(SetupUnit(&u));
  }
  BuildGraph();
  for (size_t u = 0; u < units_.size(); ++u) {
    PlanChoice leaf;
    leaf.leaf_unit = static_cast<int>(u);
    leaf.cost = units_[u].access_cost;
    TAURUS_RETURN_IF_ERROR(Commit(1ULL << u, leaf));
  }
  uint64_t full = UpTo(static_cast<int>(units_.size()) - 1);
  TAURUS_RETURN_IF_ERROR(Enumerate());
  // Out of pair budget, or a structure the graph search left unplanned:
  // complete greedily, reusing every planned group.
  if (budget_exhausted_ || !HasPlan(full)) {
    TAURUS_RETURN_IF_ERROR(GreedyPlan(full));
  }
  if (!HasPlan(full)) {
    return Status::Internal("optimizer produced no plan");
  }
  return Extract(full);
}

}  // namespace

Result<std::unique_ptr<OrcaPhysicalOp>> OrcaOptimizer::Optimize(
    OrcaLogicalOp* root) {
  JoinSearch search(config_, stats_, num_refs_, &partitions_evaluated_,
                    &num_groups_, governor_, feedback_, &actual_overrides_,
                    &sketch_overrides_);
  {
    ScopedSpan build_span(tracer_, "memo.build");
    TAURUS_RETURN_IF_ERROR(search.Flatten(root));
  }
  ScopedSpan search_span(tracer_, "memo.join_search");
  auto physical = search.Run();
  search_span.End();
  search_span.Attr("memo_groups", std::to_string(num_groups_));
  search_span.Attr("partitions", std::to_string(partitions_evaluated_));
  return physical;
}

}  // namespace taurus
