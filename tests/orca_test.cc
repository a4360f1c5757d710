#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "bridge/orca_path.h"
#include "bridge/parse_tree_converter.h"
#include "frontend/prepare.h"
#include "mdp/stats_adapter.h"
#include "frontend/normalize.h"
#include "orca/optimizer.h"
#include "parser/parser.h"
#include "storage/storage.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

/// Fixture with a small star schema: fact(1000) -> dim_a(10), dim_b(100).
class OrcaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = catalog_.CreateTable(
        "fact", {{"f_id", TypeId::kLong, 0, false},
                 {"f_a", TypeId::kLong, 0, false},
                 {"f_b", TypeId::kLong, 0, false},
                 {"f_val", TypeId::kDouble, 0, false}});
    ASSERT_TRUE(fact.ok());
    ASSERT_TRUE(catalog_.AddIndex("fact", {"fact_pk", {0}, true, true}).ok());
    ASSERT_TRUE(catalog_.AddIndex("fact", {"fact_a", {1}, false, false}).ok());
    auto dim_a = catalog_.CreateTable(
        "dim_a", {{"a_id", TypeId::kLong, 0, false},
                  {"a_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(dim_a.ok());
    ASSERT_TRUE(catalog_.AddIndex("dim_a", {"a_pk", {0}, true, true}).ok());
    auto dim_b = catalog_.CreateTable(
        "dim_b", {{"b_id", TypeId::kLong, 0, false},
                  {"b_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(dim_b.ok());
    ASSERT_TRUE(catalog_.AddIndex("dim_b", {"b_pk", {0}, true, true}).ok());

    TableData* fd = storage_.CreateTable(*fact);
    for (int i = 0; i < 1000; ++i) {
      fd->Append({Value::Int(i), Value::Int(i % 10), Value::Int(i % 100),
                  Value::Double(i * 0.5)});
    }
    fd->BuildIndexes();
    catalog_.SetStats((*fact)->id, ComputeTableStats(*fd));
    TableData* ad = storage_.CreateTable(*dim_a);
    for (int i = 0; i < 10; ++i) {
      ad->Append({Value::Int(i), Value::Str("a" + std::to_string(i))});
    }
    ad->BuildIndexes();
    catalog_.SetStats((*dim_a)->id, ComputeTableStats(*ad));
    TableData* bd = storage_.CreateTable(*dim_b);
    for (int i = 0; i < 100; ++i) {
      bd->Append({Value::Int(i), Value::Str("b" + std::to_string(i))});
    }
    bd->BuildIndexes();
    catalog_.SetStats((*dim_b)->id, ComputeTableStats(*bd));
    mdp_ = std::make_unique<MetadataProvider>(catalog_);
  }

  /// Parses, binds, prepares, converts, optimizes; returns the physical
  /// plan (keeps the statement alive in stmt_).
  Result<std::unique_ptr<OrcaPhysicalOp>> OptimizeSql(
      const std::string& sql, const OrcaConfig& config) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    stmt_ = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt_));
    TAURUS_ASSIGN_OR_RETURN(
        logical_, ConvertBlockToOrcaLogical(stmt_.block.get(),
                                            stmt_.num_refs, mdp_.get(),
                                            config));
    stats_ = std::make_unique<MdpStatsProvider>(catalog_, stmt_.leaves,
                                                mdp_.get());
    OrcaOptimizer optimizer(config, stats_.get(), stmt_.num_refs);
    auto plan = optimizer.Optimize(logical_.get());
    last_partitions_ = optimizer.partitions_evaluated();
    last_groups_ = optimizer.num_groups();
    return plan;
  }

  static int CountJoinType(const OrcaPhysicalOp& op, JoinType type) {
    int n = !op.children.empty() && op.join_type == type ? 1 : 0;
    for (const auto& c : op.children) n += CountJoinType(*c, type);
    return n;
  }

  static int CountKind(const OrcaPhysicalOp& op, OrcaPhysicalOp::Kind kind) {
    int n = op.kind == kind ? 1 : 0;
    for (const auto& c : op.children) n += CountKind(*c, kind);
    return n;
  }

  Catalog catalog_;
  Storage storage_;
  std::unique_ptr<MetadataProvider> mdp_;
  BoundStatement stmt_;
  std::unique_ptr<OrcaLogicalOp> logical_;
  std::unique_ptr<MdpStatsProvider> stats_;
  int64_t last_partitions_ = 0;
  int last_groups_ = 0;
};

TEST_F(OrcaTest, ConverterSegregatesPredicates) {
  OrcaConfig config;
  auto parsed = ParseSelect(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND a_name = 'a3' "
      "AND f_val > 100");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  ASSERT_TRUE(bound.ok());
  stmt_ = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt_).ok());
  auto logical = ConvertBlockToOrcaLogical(stmt_.block.get(), stmt_.num_refs,
                                           mdp_.get(), config);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  std::string tree = (*logical)->ToString();
  // Local predicates became Selects over the Gets; the join predicate
  // stayed at the join (the paper's Listing 3 -> Listing 4 segregation).
  EXPECT_NE(tree.find("LogicalSelect[(a_name = 'a3')]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("LogicalSelect[(f_val > 100)]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("LogicalJoin(inner)[(f_a = a_id)]"), std::string::npos)
      << tree;
}

TEST_F(OrcaTest, ConverterEmbellishesOids) {
  OrcaConfig config;
  auto parsed = ParseSelect("SELECT COUNT(*) FROM fact WHERE f_a = 3");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  stmt_ = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt_).ok());
  auto logical = ConvertBlockToOrcaLogical(stmt_.block.get(), stmt_.num_refs,
                                           mdp_.get(), config);
  ASSERT_TRUE(logical.ok());
  // Single-table query: Select over Get with the relation OID and the
  // INT4_EQ_INT8 comparison OID (literal ints are BIGINT).
  const OrcaLogicalOp* node = logical->get();
  ASSERT_EQ(node->kind, OrcaLogicalOp::Kind::kSelect);
  ASSERT_EQ(node->children[0]->kind, OrcaLogicalOp::Kind::kGet);
  EXPECT_EQ(node->children[0]->relation_oid, RelationOid(0));
  ASSERT_EQ(node->cond_oids.size(), 1u);
  EXPECT_EQ(ExprOidName(node->cond_oids[0]), "INT4_EQ_INT8");
}

TEST_F(OrcaTest, PicksHashJoinForLargeBuild) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_b WHERE f_b = b_id", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // No usable index on f_b: hash join, probing the big fact side.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kHashJoin), 1);
}

TEST_F(OrcaTest, PicksIndexNljForSelectiveOuter) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND "
      "a_name = 'a3'",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // One dim row -> index lookups into fact via fact_a beat a hash build.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup), 1)
      << (*plan)->ToString();
}

TEST_F(OrcaTest, IndexNljDisabledFallsBackToHash) {
  OrcaConfig config;
  config.enable_index_nlj = false;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND "
      "a_name = 'a3'",
      config);
  ASSERT_TRUE(plan.ok());
  // No index lookups; the optimizer falls back to a hash join or (with a
  // one-row outer) a plain nested-loop rescan — either way, not a lookup.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup), 0);
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kHashJoin) +
                CountKind(**plan, OrcaPhysicalOp::Kind::kNLJoin),
            1);
}

TEST_F(OrcaTest, MemoGroupIdsAssigned) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a, dim_b WHERE f_a = a_id AND "
      "f_b = b_id",
      config);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE((*plan)->memo_group, 0);
  EXPECT_GT(last_groups_, 3);  // at least leaves + joins
  EXPECT_GT(last_partitions_, 0);
}

TEST_F(OrcaTest, GreedyCheaperThanExhaustive2InEffort) {
  const std::string sql =
      "SELECT COUNT(*) FROM fact f1, fact f2, dim_a, dim_b WHERE "
      "f1.f_id = f2.f_id AND f1.f_a = a_id AND f2.f_b = b_id";
  OrcaConfig config;
  config.strategy = JoinSearchStrategy::kGreedy;
  ASSERT_TRUE(OptimizeSql(sql, config).ok());
  int64_t greedy = last_partitions_;
  config.strategy = JoinSearchStrategy::kExhaustive2;
  ASSERT_TRUE(OptimizeSql(sql, config).ok());
  int64_t ex2 = last_partitions_;
  EXPECT_LT(greedy, ex2);
}

TEST_F(OrcaTest, DependentUnitsRespectOrdering) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM dim_a WHERE EXISTS "
      "(SELECT 1 FROM fact WHERE f_a = a_id AND f_val > 400)",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The semi join must keep dim_a on the outer side.
  const OrcaPhysicalOp* root = plan->get();
  ASSERT_TRUE(root->kind == OrcaPhysicalOp::Kind::kHashJoin ||
              root->kind == OrcaPhysicalOp::Kind::kNLJoin);
  EXPECT_EQ(root->join_type, JoinType::kSemi);
  std::vector<TableRef*> left_leaves;
  EXPECT_EQ(root->children[0]->leaf->table_name, "dim_a");
}

TEST_F(OrcaTest, CostsAndRowsPopulated) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id", config);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT((*plan)->cost, 0.0);
  EXPECT_GT((*plan)->rows, 100.0);  // ~1000 rows expected
  EXPECT_LT((*plan)->rows, 10000.0);
}

// ---------------------------------------------------------------------------
// Join enumeration over the join graph: exact csg-cmp pair and memo group
// counts on chain, star, cycle and clique graphs, plus disconnected graphs
// and dependent (outer/semi/anti) units.
// ---------------------------------------------------------------------------

enum class GraphShape { kChain, kStar, kCycle, kClique };

class JoinGraphTest : public OrcaTest {
 protected:
  void SetUp() override {
    OrcaTest::SetUp();
    std::vector<ColumnDef> cols;
    for (int c = 0; c < 16; ++c) {
      cols.push_back({"c" + std::to_string(c), TypeId::kLong, 0, false});
    }
    auto g = catalog_.CreateTable("g", cols);
    ASSERT_TRUE(g.ok());
    TableData* gd = storage_.CreateTable(*g);
    for (int i = 0; i < 20; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < 16; ++c) row.push_back(Value::Int((i * (c + 1)) % 7));
      gd->Append(row);
    }
    catalog_.SetStats((*g)->id, ComputeTableStats(*gd));
    mdp_ = std::make_unique<MetadataProvider>(catalog_);
  }

  /// Edges of an n-unit graph of the given shape.
  static std::vector<std::pair<int, int>> Edges(GraphShape shape, int n) {
    std::vector<std::pair<int, int>> edges;
    switch (shape) {
      case GraphShape::kChain:
      case GraphShape::kCycle:
        for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
        if (shape == GraphShape::kCycle) edges.emplace_back(n - 1, 0);
        break;
      case GraphShape::kStar:
        for (int i = 1; i < n; ++i) edges.emplace_back(0, i);
        break;
      case GraphShape::kClique:
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
        }
        break;
    }
    return edges;
  }

  /// A query over n copies of `g` joined along `edges`. Every equality
  /// uses its own pair of columns, so Prepare's transitive closure adds no
  /// edge.
  static std::string GraphSql(int n,
                              const std::vector<std::pair<int, int>>& edges) {
    std::string sql = "SELECT COUNT(*) FROM ";
    for (int i = 0; i < n; ++i) {
      sql += (i > 0 ? ", g t" : "g t") + std::to_string(i);
    }
    std::map<int, int> next_col;  // per unit: next unused column
    for (size_t e = 0; e < edges.size(); ++e) {
      auto [a, b] = edges[e];
      sql += e == 0 ? " WHERE " : " AND ";
      sql += "t" + std::to_string(a) + ".c" + std::to_string(next_col[a]++) +
             " = t" + std::to_string(b) + ".c" + std::to_string(next_col[b]++);
    }
    return sql;
  }

  /// Brute-force connectivity of `set` over `edges`.
  static bool IsConnected(uint64_t set,
                          const std::vector<std::pair<int, int>>& edges) {
    uint64_t reached = set & (~set + 1);
    for (bool grew = true; grew;) {
      grew = false;
      for (auto [a, b] : edges) {
        uint64_t ea = 1ULL << a, eb = 1ULL << b;
        bool inside = (set & ea) != 0 && (set & eb) != 0;
        if (inside && ((reached & ea) != 0) != ((reached & eb) != 0)) {
          reached |= ea | eb;
          grew = true;
        }
      }
    }
    return reached == set;
  }

  /// Brute-force csg-cmp pairs (unordered) and connected sets of the graph;
  /// `linear` keeps only pairs with a single unit on one side.
  static std::pair<int64_t, int> BruteForce(
      int n, const std::vector<std::pair<int, int>>& edges, bool linear) {
    int64_t pairs = 0;
    int groups = 0;
    for (uint64_t set = 1; set < (1ULL << n); ++set) {
      if (!IsConnected(set, edges)) continue;
      ++groups;
      uint64_t low = set & (~set + 1);
      for (uint64_t a = (set - 1) & set; a != 0; a = (a - 1) & set) {
        uint64_t b = set & ~a;
        if ((a & low) == 0 || !IsConnected(a, edges) ||
            !IsConnected(b, edges)) {
          continue;
        }
        if (linear && std::popcount(a) > 1 && std::popcount(b) > 1) continue;
        ++pairs;
      }
    }
    return {pairs, groups};
  }

  /// Closed-form csg-cmp pair counts (Moerkotte & Neumann, VLDB 2006).
  static int64_t CsgCmpPairs(GraphShape shape, int64_t n) {
    switch (shape) {
      case GraphShape::kChain:
        return (n * n * n - n) / 6;
      case GraphShape::kStar:
        return (n - 1) * (1LL << (n - 2));
      case GraphShape::kCycle:
        return (n * n * n - 2 * n * n + n) / 2;
      case GraphShape::kClique: {
        int64_t three = 1;
        for (int i = 0; i < n; ++i) three *= 3;
        return (three - (1LL << (n + 1)) + 1) / 2;
      }
    }
    return -1;
  }

  static int ConnectedSets(GraphShape shape, int n) {
    switch (shape) {
      case GraphShape::kChain:
        return n * (n + 1) / 2;
      case GraphShape::kStar:
        return (1 << (n - 1)) + n - 1;
      case GraphShape::kCycle:
        return n * n - n + 1;
      case GraphShape::kClique:
        return (1 << n) - 1;
    }
    return -1;
  }
};

TEST_F(JoinGraphTest, Exhaustive2CountsMatchClosedForms) {
  OrcaConfig config;
  for (GraphShape shape : {GraphShape::kChain, GraphShape::kStar,
                           GraphShape::kCycle, GraphShape::kClique}) {
    for (int n = 4; n <= 10; ++n) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                   " n=" + std::to_string(n));
      auto edges = Edges(shape, n);
      auto plan = OptimizeSql(GraphSql(n, edges), config);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      // Each csg-cmp pair is costed in both orientations.
      EXPECT_EQ(last_partitions_, 2 * CsgCmpPairs(shape, n));
      EXPECT_EQ(last_groups_, ConnectedSets(shape, n));
      auto brute = BruteForce(n, edges, /*linear=*/false);
      EXPECT_EQ(last_partitions_, 2 * brute.first);
      EXPECT_EQ(last_groups_, brute.second);
    }
  }
}

TEST_F(JoinGraphTest, ExhaustiveKeepsPairsWithASingleUnitSide) {
  OrcaConfig config;
  config.strategy = JoinSearchStrategy::kExhaustive;
  for (GraphShape shape : {GraphShape::kChain, GraphShape::kStar,
                           GraphShape::kCycle, GraphShape::kClique}) {
    for (int n = 4; n <= 10; ++n) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                   " n=" + std::to_string(n));
      auto edges = Edges(shape, n);
      auto plan = OptimizeSql(GraphSql(n, edges), config);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto brute = BruteForce(n, edges, /*linear=*/true);
      EXPECT_EQ(last_partitions_, 2 * brute.first);
      EXPECT_EQ(last_groups_, brute.second);
    }
  }
}

TEST_F(JoinGraphTest, DisconnectedGraphCrossesWholeComponents) {
  OrcaConfig config;
  // {fact, dim_a} and {dim_b} share no predicate: the only cross product
  // joins the two components.
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a, dim_b WHERE f_a = a_id", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(last_partitions_, 4);
  EXPECT_EQ(last_groups_, 5);
  const OrcaPhysicalOp& root = **plan;
  EXPECT_TRUE(root.conds.empty()) << root.ToString();
  ASSERT_EQ(root.children.size(), 2u);
  int leaves_left = root.children[0]->children.empty() ? 1 : 2;
  int leaves_right = root.children[1]->children.empty() ? 1 : 2;
  EXPECT_EQ(leaves_left + leaves_right, 3) << root.ToString();
}

TEST_F(JoinGraphTest, ConjunctOverThreeUnitsOnlyIsAHyperedge) {
  OrcaConfig config;
  // No two-table predicate at all: each table is its own component and the
  // three-table conjunct applies once two of them are crossed.
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a, dim_b WHERE f_a + a_id = b_id",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const OrcaPhysicalOp& root = **plan;
  EXPECT_EQ(root.conds.size(), 1u) << root.ToString();
  EXPECT_EQ(last_groups_, 7);
}

TEST_F(JoinGraphTest, LeftJoinUnitJoinsAfterItsDependency) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact LEFT JOIN dim_a ON f_a = a_id "
      "JOIN dim_b ON f_b = b_id",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Pairs: fact-dim_a (LEFT, one orientation), fact-dim_b (2),
  // {fact,dim_a}-dim_b (2), {fact,dim_b}-dim_a (LEFT, 1). {dim_a,dim_b} is
  // not connected and {dim_a} never joins on the left.
  EXPECT_EQ(last_partitions_, 6);
  EXPECT_EQ(last_groups_, 6);
  EXPECT_EQ(CountJoinType(**plan, JoinType::kLeft), 1) << (*plan)->ToString();
}

TEST_F(JoinGraphTest, LeftJoinOverACrossProduct) {
  OrcaConfig config;
  // The LEFT join's dependency {fact, dim_a} has no predicate inside it:
  // fact and dim_a are separate components, crossed before dim_b joins.
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact JOIN dim_a ON 1 = 1 "
      "LEFT JOIN dim_b ON b_id = f_b",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const OrcaPhysicalOp& root = **plan;
  EXPECT_EQ(root.join_type, JoinType::kLeft) << root.ToString();
  EXPECT_EQ(root.children[1]->leaf->table_name, "dim_b");
  EXPECT_TRUE(root.children[0]->conds.empty()) << root.ToString();
  EXPECT_EQ(last_groups_, 5);
}

TEST_F(JoinGraphTest, ConjunctLinkingALeftJoinUnitToItsDependency) {
  // dim_b's dependency {f1, dim_a} needs a cross product. In the first
  // query the enclosing inner join's ON links dim_b with dim_a's side
  // through f2; merging dim_b into that component would leave neither
  // {f1, dim_a} nor {dim_a, dim_b, f2} plannable. In the second, a WHERE
  // conjunct that does not reject NULLs keeps the join LEFT and becomes
  // part of its condition.
  const std::string queries[] = {
      "SELECT COUNT(*) FROM fact f1 JOIN dim_a ON 1 = 1 "
      "LEFT JOIN dim_b ON b_id = f1.f_b "
      "JOIN fact f2 ON f2.f_b = b_id AND f2.f_a = a_id",
      "SELECT COUNT(*) FROM fact JOIN dim_a ON 1 = 1 "
      "LEFT JOIN dim_b ON b_id = f_b WHERE (b_id = a_id OR b_id IS NULL)"};
  for (const std::string& sql : queries) {
    for (JoinSearchStrategy strategy :
         {JoinSearchStrategy::kExhaustive2, JoinSearchStrategy::kExhaustive,
          JoinSearchStrategy::kGreedy}) {
      SCOPED_TRACE(sql + " / " + JoinSearchStrategyName(strategy));
      OrcaConfig config;
      config.strategy = strategy;
      auto plan = OptimizeSql(sql, config);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const OrcaPhysicalOp& root = **plan;
      EXPECT_EQ(root.join_type, JoinType::kLeft) << root.ToString();
      EXPECT_EQ(root.children[1]->leaf->table_name, "dim_b");
      EXPECT_EQ(CountJoinType(root, JoinType::kLeft), 1) << root.ToString();
    }
  }
  // The graph search plans the first query itself: f2-dim_a (2), f1 x
  // {dim_a, f2} (2; GREEDY keeps the larger side on the left, 1), then
  // {f1, dim_a, f2} LEFT dim_b (1).
  OrcaConfig config;
  ASSERT_TRUE(OptimizeSql(queries[0], config).ok());
  EXPECT_EQ(last_partitions_, 5);
  EXPECT_EQ(last_groups_, 7);
  config.strategy = JoinSearchStrategy::kGreedy;
  ASSERT_TRUE(OptimizeSql(queries[0], config).ok());
  EXPECT_EQ(last_partitions_, 4);
  EXPECT_EQ(last_groups_, 7);
}

TEST_F(JoinGraphTest, PairBudgetCompletesGreedily) {
  OrcaConfig config;
  config.exhaustive2_pair_budget = 10;
  auto edges = Edges(GraphShape::kClique, 6);
  auto plan = OptimizeSql(GraphSql(6, edges), config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The budget stops the enumeration at its 11th pair; the greedy
  // completion adds at most a few pairs per remaining unit.
  EXPECT_LT(last_partitions_, 2 * CsgCmpPairs(GraphShape::kClique, 6));
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kTableScan) +
                CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup) +
                CountKind(**plan, OrcaPhysicalOp::Kind::kIndexRangeScan),
            6);
}

TEST_F(JoinGraphTest, SemiAndAntiUnitsHangOffTheirDependency) {
  OrcaConfig config;
  for (const char* pred : {"EXISTS", "NOT EXISTS"}) {
    SCOPED_TRACE(pred);
    auto plan = OptimizeSql(
        std::string("SELECT COUNT(*) FROM dim_a, dim_b WHERE a_id = b_id "
                    "AND ") +
            pred + " (SELECT 1 FROM fact WHERE f_a = a_id AND f_b = b_id)",
        config);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // dim_a-dim_b (2) and {dim_a,dim_b}-fact (dependent side right only).
    EXPECT_EQ(last_partitions_, 3);
    EXPECT_EQ(last_groups_, 5);
    const OrcaPhysicalOp& root = **plan;
    EXPECT_EQ(root.join_type, std::string(pred) == "EXISTS"
                                  ? JoinType::kSemi
                                  : JoinType::kAntiSemi);
    EXPECT_EQ(root.children[1]->leaf->table_name, "fact");
  }
}

// ---------------------------------------------------------------------------
// Golden plan signatures: every TPC-H and TPC-DS statement under EXHAUSTIVE,
// EXHAUSTIVE2 and GREEDY. A signature is the skeleton's join tree shape with
// the join method and type per join (children in build/probe order) and the
// access method and index per leaf — no memo group ids — plus the summed
// cost estimate of every block. The golden file records the choices of the
// former every-subset-split search; set TAURUS_UPDATE_GOLDEN=1 to rewrite
// it.
// ---------------------------------------------------------------------------

std::string SkeletonNodeSignature(const SkeletonNode& n) {
  if (!n.is_join) {
    std::string s = n.leaf->alias + "#" + std::to_string(n.leaf->ref_id);
    if (n.access != AccessMethod::kTableScan && n.leaf->table != nullptr &&
        n.index_id >= 0) {
      s += n.access == AccessMethod::kIndexRange ? ":range(" : ":ref(";
      s += n.leaf->table->indexes[static_cast<size_t>(n.index_id)].name + ")";
    }
    return s;
  }
  std::string s = n.method == JoinMethod::kHash ? "HJ" : "NL";
  s += std::string("-") + JoinTypeName(n.join_type) + "(" +
       SkeletonNodeSignature(*n.left) + "," +
       SkeletonNodeSignature(*n.right) + ")";
  return s;
}

/// Signature of a block and everything nested under it; `costs` collects
/// the estimated cost of every block in signature order.
std::string BlockSignature(const BlockSkeleton& skel,
                           std::vector<double>* costs) {
  costs->push_back(skel.cost);
  std::string s = skel.root != nullptr ? SkeletonNodeSignature(*skel.root)
                                       : std::string("-");
  struct Part {
    std::string sig;
    std::vector<double> costs;
    bool operator<(const Part& o) const { return sig < o.sig; }
  };
  std::vector<Part> derived;
  for (const auto& [leaf, sub] : skel.derived) {
    Part p;
    p.sig = BlockSignature(*sub, &p.costs);
    p.sig = "[#" + std::to_string(leaf->ref_id) + ": " + p.sig + "]";
    derived.push_back(std::move(p));
  }
  std::vector<Part> subs;
  for (const auto& [expr, sub] : skel.subqueries) {
    Part p;
    p.sig = "{" + BlockSignature(*sub, &p.costs) + "}";
    subs.push_back(std::move(p));
  }
  std::vector<Part> arms;
  for (const auto& arm : skel.union_arms) {
    Part p;
    p.sig = "U(" + BlockSignature(*arm, &p.costs) + ")";
    arms.push_back(std::move(p));
  }
  std::sort(derived.begin(), derived.end());
  std::sort(subs.begin(), subs.end());
  for (const auto* parts : {&derived, &subs, &arms}) {
    for (const Part& p : *parts) {
      s += " " + p.sig;
      costs->insert(costs->end(), p.costs.begin(), p.costs.end());
    }
  }
  return s;
}

struct PlanSignature {
  std::string signature;
  double cost = 0.0;
};

class OrcaPlanSignatureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch_ = new Database();
    ASSERT_TRUE(SetupTpch(tpch_, 0.006).ok());
    tpcds_ = new Database();
    ASSERT_TRUE(SetupTpcds(tpcds_, 0.001).ok());
  }
  static void TearDownTestSuite() {
    delete tpch_;
    delete tpcds_;
    tpch_ = nullptr;
    tpcds_ = nullptr;
  }

  static Result<PlanSignature> Sign(Database* db, const std::string& sql,
                                    JoinSearchStrategy strategy) {
    OrcaConfig config;
    config.strategy = strategy;
    TAURUS_ASSIGN_OR_RETURN(auto parsed, ParseSelect(sql));
    TAURUS_ASSIGN_OR_RETURN(BoundStatement stmt,
                            BindStatement(db->catalog(), std::move(parsed)));
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt));
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    TAURUS_ASSIGN_OR_RETURN(auto skel, orca.Optimize());
    PlanSignature sig;
    std::vector<double> costs;
    sig.signature = BlockSignature(*skel, &costs);
    for (double c : costs) sig.cost += c;
    return sig;
  }

  static Database* tpch_;
  static Database* tpcds_;
};

Database* OrcaPlanSignatureTest::tpch_ = nullptr;
Database* OrcaPlanSignatureTest::tpcds_ = nullptr;

TEST_F(OrcaPlanSignatureTest, MatchesGoldenForEveryWorkloadStatement) {
  const std::string path =
      std::string(TAURUS_TEST_GOLDEN_DIR) + "/orca_plan_signatures.txt";
  // Entries whose golden plan is one of several of exactly equal cost: the
  // graph search meets another one first and keeps it.
  // After a rewrite of the golden file both lists start empty again.
  const std::set<std::string> kTies = {
      "tpcds q17 EXHAUSTIVE", "tpcds q17 EXHAUSTIVE2", "tpcds q17 GREEDY",
      "tpcds q24 EXHAUSTIVE", "tpcds q24 EXHAUSTIVE2",
      "tpcds q31 EXHAUSTIVE", "tpcds q31 EXHAUSTIVE2", "tpcds q31 GREEDY",
      "tpcds q64 EXHAUSTIVE", "tpcds q64 EXHAUSTIVE2", "tpcds q64 GREEDY",
      "tpcds q72 EXHAUSTIVE", "tpcds q72 EXHAUSTIVE2", "tpcds q72 GREEDY",
      "tpch q9 EXHAUSTIVE",   "tpch q9 EXHAUSTIVE2",   "tpch q9 GREEDY"};
  // Entries whose golden plan crosses two tables that share no predicate
  // inside a connected join graph (region with part in TPC-H Q8, store with
  // store_returns in TPC-DS Q24). The search no longer costs such cross
  // products; the plan it picks instead costs at most this much more.
  const std::map<std::string, double> kCrossProductPlans = {
      {"tpch q8 EXHAUSTIVE", 0.001},
      {"tpch q8 GREEDY", 0.02},
      {"tpcds q24 GREEDY", 0.001}};

  struct Suite {
    const char* name;
    Database* db;
    const std::vector<std::string>* queries;
  };
  const Suite suites[] = {{"tpch", tpch_, &TpchQueries()},
                          {"tpcds", tpcds_, &TpcdsQueries()}};
  const std::pair<const char*, JoinSearchStrategy> strategies[] = {
      {"EXHAUSTIVE", JoinSearchStrategy::kExhaustive},
      {"EXHAUSTIVE2", JoinSearchStrategy::kExhaustive2},
      {"GREEDY", JoinSearchStrategy::kGreedy}};
  std::map<std::string, PlanSignature> actual;
  for (const Suite& suite : suites) {
    for (size_t i = 0; i < suite.queries->size(); ++i) {
      for (const auto& [sname, strategy] : strategies) {
        std::string key = std::string(suite.name) + " q" +
                          std::to_string(i + 1) + " " + sname;
        auto sig = Sign(suite.db, (*suite.queries)[i], strategy);
        ASSERT_TRUE(sig.ok()) << key << ": " << sig.status().ToString();
        actual[key] = *sig;
      }
    }
  }

  const char* update = std::getenv("TAURUS_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    char cost[64];
    for (const auto& [key, sig] : actual) {
      std::snprintf(cost, sizeof(cost), "%.17g", sig.cost);
      out << key << "\t" << cost << "\t" << sig.signature << "\n";
    }
    GTEST_SKIP() << "rewrote " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::map<std::string, PlanSignature> golden;
  std::string line;
  while (std::getline(in, line)) {
    size_t t1 = line.find('\t');
    size_t t2 = line.find('\t', t1 + 1);
    ASSERT_NE(t2, std::string::npos) << line;
    golden[line.substr(0, t1)] =
        PlanSignature{line.substr(t2 + 1),
                      std::strtod(line.substr(t1 + 1, t2 - t1 - 1).c_str(),
                                  nullptr)};
  }
  ASSERT_EQ(golden.size(), actual.size());
  for (const auto& [key, sig] : actual) {
    SCOPED_TRACE(key);
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end());
    if (kTies.count(key) != 0) {
      EXPECT_NE(sig.signature, it->second.signature);
      EXPECT_DOUBLE_EQ(sig.cost, it->second.cost);
    } else if (auto cross = kCrossProductPlans.find(key);
               cross != kCrossProductPlans.end()) {
      EXPECT_NE(sig.signature, it->second.signature);
      EXPECT_LE(sig.cost, it->second.cost * (1.0 + cross->second));
    } else {
      EXPECT_EQ(sig.signature, it->second.signature);
    }
  }
}

// ---------------------------------------------------------------------------
// OR factoring (normalize.cc)
// ---------------------------------------------------------------------------

class OrFactorTest : public ::testing::Test {
 protected:
  std::unique_ptr<Expr> ParseExprFromWhere(const std::string& cond) {
    auto q = ParseSelect("SELECT 1 FROM t WHERE " + cond);
    EXPECT_TRUE(q.ok());
    return std::move((*q)->where);
  }
};

TEST_F(OrFactorTest, FactorsCommonConjunct) {
  auto e = ParseExprFromWhere("(a = b AND c = 1) OR (a = b AND d = 2)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  // (a = b) AND ((c = 1) OR (d = 2))
  ASSERT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->ToString(), "(a = b)");
  EXPECT_EQ(e->children[1]->bop, BinaryOp::kOr);
}

TEST_F(OrFactorTest, FactorsAcrossThreeBranches) {
  auto e = ParseExprFromWhere(
      "(a = b AND c = 1) OR (a = b AND d = 2) OR (a = b AND f = 3)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  ASSERT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->ToString(), "(a = b)");
}

TEST_F(OrFactorTest, NoCommonConjunctNoChange) {
  auto e = ParseExprFromWhere("(a = 1 AND b = 2) OR (c = 3 AND d = 4)");
  EXPECT_FALSE(FactorOrCommonConjuncts(&e));
  EXPECT_EQ(e->bop, BinaryOp::kOr);
}

TEST_F(OrFactorTest, BranchEqualToCommonMakesOrVacuous) {
  // (a = b) OR (a = b AND c = 1)  ->  a = b
  auto e = ParseExprFromWhere("(a = b) OR (a = b AND c = 1)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  EXPECT_EQ(e->ToString(), "(a = b)");
}

TEST_F(OrFactorTest, MultipleCommonConjuncts) {
  auto e = ParseExprFromWhere(
      "(a = b AND x = y AND c = 1) OR (a = b AND x = y AND d = 2)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  std::string s = e->ToString();
  EXPECT_NE(s.find("(a = b)"), std::string::npos);
  EXPECT_NE(s.find("(x = y)"), std::string::npos);
}

TEST_F(OrFactorTest, RecursesIntoNestedExpressions) {
  auto e = ParseExprFromWhere(
      "z = 9 AND ((a = b AND c = 1) OR (a = b AND d = 2))");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  EXPECT_NE(e->ToString().find("(a = b)"), std::string::npos);
}

}  // namespace
}  // namespace taurus
