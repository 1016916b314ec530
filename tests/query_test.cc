#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "calculus/query.h"
#include "calculus/translate.h"
#include "engine/rewrite.h"
#include "engine/stats.h"
#include "fsa/serialize.h"

namespace strdb {
namespace {

Database MakeDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.Put("R1", 1, {{"ab"}, {"ba"}}).ok());
  EXPECT_TRUE(db.Put("R3", 1, {{"a"}, {"bb"}}).ok());
  EXPECT_TRUE(db.Put("Pairs", 2, {{"ab", "ab"}, {"ab", "ba"}}).ok());
  return db;
}

// The paper's §4 running query, end to end with *inferred* safety.
TEST(QueryTest, ConcatenationEndToEnd) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse(
      "x | exists y, z: R1(y) & R3(z) & "
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->outputs(), (std::vector<std::string>{"x"}));

  // W(db) = max(R1) + max(R3)-ish: the inferred bound must cover the
  // longest concatenation (4) without needing the 4096 cap.
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_GE(*w, 4);

  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->tuples(),
            (std::set<Tuple>{{"aba"}, {"abbb"}, {"baa"}, {"babb"}}));
}

TEST(QueryTest, HeadlessQueryUsesAscendingFreeVars) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("Pairs(x,y)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->outputs(), (std::vector<std::string>{"x", "y"}));
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->size(), 2);
}

TEST(QueryTest, HeadReordersColumns) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("y, x | Pairs(x,y)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->Contains({"ba", "ab"}));  // (y, x) order
}

TEST(QueryTest, HeadValidation) {
  Database db = MakeDb();
  EXPECT_FALSE(Query::Parse("x | Pairs(x,y)", db.alphabet()).ok());
  EXPECT_FALSE(Query::Parse("x, z | Pairs(x,y)", db.alphabet()).ok());
  EXPECT_FALSE(Query::Parse("x, x | Pairs(x,x)", db.alphabet()).ok());
}

// §5's pair of manifold queries: safety inferred, not assumed.
TEST(QueryTest, ManifoldSafeDirectionExecutes) {
  Database db = MakeDb();
  const char* manifold =
      "(([x,y]l(x = y))* . [y]l(y = ~) . ([y]r(!(y = ~)))* . [y]r(y = ~))* "
      ". ([x,y]l(x = y))* . [x,y]l(x = y = ~)";
  // y | ∃x: R1(x) ∧ (x manifold of y): x bound by the database limits y.
  std::string text =
      std::string("y | exists x: R1(x) & ") + manifold;
  Result<Query> q = Query::Parse(text, db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Divisor-strings of "ab" and "ba": exactly themselves (and note ε is
  // excluded since x ≠ ε here).
  EXPECT_EQ(answer->tuples(), (std::set<Tuple>{{"ab"}, {"ba"}}));
}

TEST(QueryTest, ManifoldUnsafeDirectionRejected) {
  Database db = MakeDb();
  const char* manifold =
      "(([y,x]l(y = x))* . [x]l(x = ~) . ([x]r(!(x = ~)))* . [x]r(x = ~))* "
      ". ([y,x]l(y = x))* . [y,x]l(y = x = ~)";
  // y | ∃x: R1(x) ∧ (y manifold of x): infinitely many y — unsafe.
  std::string text = std::string("y | exists x: R1(x) & ") + manifold;
  Result<Query> q = Query::Parse(text, db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
  // The escape hatch still works: explicit truncation.
  Result<StringRelation> bounded = q->ExecuteTruncated(db, 4);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_TRUE(bounded->Contains({"abab"}));
}

TEST(QueryTest, GuardedNegationIsSafe) {
  Database db = MakeDb();
  // R1(x) ∧ ¬(x starts with 'a'): the negation only filters, so the
  // query is certified and the plan is a difference, not a
  // Σ*-complement.
  Result<Query> q = Query::Parse(
      "R1(x) & !([x]l(x = 'a'))", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok()) << w.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->tuples(), (std::set<Tuple>{{"ba"}}));
}

TEST(QueryTest, GuardedNegationAntiJoin) {
  Database db = MakeDb();
  // Strings of R1 that are not in R3.
  Result<Query> q = Query::Parse("R1(x) & !R3(x)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->size(), 2);  // neither ab nor ba is in R3
}

TEST(QueryTest, NegationNotDomainIndependent) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("!R1(x)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  EXPECT_FALSE(w.ok());
  // Explicitly truncated evaluation remains available (the ⟦φ⟧^l
  // semantics).
  Result<StringRelation> bounded = q->ExecuteTruncated(db, 2);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->size(), 7 - 2);  // Σ^{<=2} minus the two R1 strings
}

TEST(QueryTest, PureRelationalQueryTruncation) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("R1(x) & R3(x)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok()) << w.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
}

TEST(QueryTest, InferenceGrowsWithDatabase) {
  // The limit function must depend on db (the paper's point against
  // constant safety bounds): a longer string in R1 must raise W.
  Database small = MakeDb();
  Database big(Alphabet::Binary());
  ASSERT_TRUE(big.Put("R1", 1, {{"abababab"}}).ok());
  ASSERT_TRUE(big.Put("R3", 1, {{"a"}}).ok());
  Result<Query> q = Query::Parse(
      "x | exists y, z: R1(y) & R3(z) & "
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      small.alphabet());
  ASSERT_TRUE(q.ok());
  Result<int> w_small = q->InferTruncation(small);
  Result<int> w_big = q->InferTruncation(big);
  ASSERT_TRUE(w_small.ok() && w_big.ok());
  EXPECT_GT(*w_big, *w_small);
  Result<StringRelation> answer = q->Execute(big);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->tuples(), (std::set<Tuple>{{"abababab" "a"}}));
}

// Definition 3.2 (domain independence) observed directly: for a safe
// query the answer stabilises at the inferred W — larger truncations
// change nothing.
TEST(QueryTest, AnswerStabilisesAtInferredTruncation) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse(
      "x | exists y, z: R1(y) & R3(z) & "
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      db.alphabet());
  ASSERT_TRUE(q.ok());
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok());
  // Evaluate well below the cap to keep Σ-materialisation impossible:
  // the plan is generator-driven, so larger l only *could* add tuples.
  Result<StringRelation> at_w = q->ExecuteTruncated(db, std::min(*w, 12));
  Result<StringRelation> beyond = q->ExecuteTruncated(db, std::min(*w, 12) + 3);
  ASSERT_TRUE(at_w.ok() && beyond.ok());
  EXPECT_EQ(at_w->tuples(), beyond->tuples());
  // And *below* the limit the answer is genuinely truncated.
  Result<StringRelation> below = q->ExecuteTruncated(db, 2);
  ASSERT_TRUE(below.ok());
  EXPECT_LT(below->size(), at_w->size());
}

// --- plan shape --------------------------------------------------------------

// Every `"query": "..."` template text of the benchmark's workloads.
std::vector<std::string> BenchmarkTemplates() {
  std::ifstream in(STRDB_PERFBENCH_WORKLOADS);
  EXPECT_TRUE(in.good()) << STRDB_PERFBENCH_WORKLOADS;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::regex query("\"query\": \"([^\"]*)\"");
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), query);
       it != std::sregex_iterator(); ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

// Appends why `e` carries an operator that does nothing: an identity π,
// a π directly over a π, or a σ whose machine is `universal[arity]`, the
// partition join of all-distinct columns that accepts every tuple.
void FindNoOps(const AlgebraExpr& e,
               const std::map<int, std::string>& universal,
               std::vector<std::string>* found) {
  using Kind = AlgebraExpr::Kind;
  if (e.kind() == Kind::kProject) {
    std::vector<int> identity(static_cast<size_t>(e.Left().arity()));
    for (size_t i = 0; i < identity.size(); ++i) {
      identity[i] = static_cast<int>(i);
    }
    if (e.columns() == identity) found->push_back("identity π");
    if (e.Left().kind() == Kind::kProject) found->push_back("π over π");
  }
  if (e.kind() == Kind::kSelect) {
    auto it = universal.find(e.arity());
    if (it != universal.end() && SerializeFsa(e.fsa()) == it->second) {
      found->push_back("universal atom σ");
    }
  }
  switch (e.kind()) {
    case Kind::kRelation:
    case Kind::kSigmaStar:
    case Kind::kSigmaL:
      return;
    case Kind::kUnion:
    case Kind::kDifference:
    case Kind::kProduct:
      FindNoOps(e.Right(), universal, found);
      [[fallthrough]];
    default:
      FindNoOps(e.Left(), universal, found);
  }
}

TEST(PlanShapeTest, BenchmarkTemplatesPlanWithoutNoOpOperators) {
  Database db(Alphabet::Binary());
  ASSERT_TRUE(db.Put("P", 2, {{"ab", "ab"}, {"ab", "ba"}}).ok());
  ASSERT_TRUE(db.Put("S", 2, {{"ab", "ab"}, {"a", "ba"}}).ok());
  ASSERT_TRUE(db.Put("T", 3, {{"ab", "a", "b"}, {"a", "b", "a"}}).ok());
  for (const char* name : {"R", "A", "B", "Q"}) {
    ASSERT_TRUE(db.Put(name, 1, {{"ab"}, {"b"}, {"bba"}}).ok());
  }
  std::map<int, std::string> universal;
  for (int arity = 1; arity <= 3; ++arity) {
    std::vector<std::vector<int>> singletons;
    for (int c = 0; c < arity; ++c) singletons.push_back({c});
    Result<AlgebraExpr> joined = JoinByPartition(
        AlgebraExpr::Relation("_", arity), singletons, db.alphabet());
    ASSERT_TRUE(joined.ok()) << joined.status();
    const AlgebraExpr& selected = joined->kind() == AlgebraExpr::Kind::kSelect
                                      ? *joined
                                      : joined->Left();
    universal[arity] = SerializeFsa(selected.fsa());
  }

  const std::vector<std::string> templates = BenchmarkTemplates();
  ASSERT_GE(templates.size(), 7u);
  for (const std::string& text : templates) {
    SCOPED_TRACE(text);
    Result<Query> q = Query::Parse(text, db.alphabet());
    ASSERT_TRUE(q.ok()) << q.status();
    StatsCatalog stats;
    CostPlannerContext ctx;
    ctx.db = &db;
    ctx.stats = &stats;
    Result<AlgebraExpr> rewritten = RewriteExpr(q->plan(), ctx);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    for (const AlgebraExpr& plan : {q->plan(), *rewritten}) {
      std::vector<std::string> found;
      FindNoOps(plan, universal, &found);
      EXPECT_TRUE(found.empty()) << found.front() << " in " << plan.ToString();
    }
  }

  // A disjoint conjunction is the bare product of its restricted scans.
  Result<Query> product = Query::Parse("x, y | A(x) & B(y)", db.alphabet());
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_EQ(product->plan().ToString(), "(restrict(A) x restrict(B))");
}

}  // namespace
}  // namespace strdb
