#include <gtest/gtest.h>

#include <functional>

#include "calculus/eval.h"
#include "calculus/parser.h"
#include "calculus/translate.h"
#include "core/rng.h"
#include "fsa/compile.h"
#include "strform/parser.h"
#include "relational/algebra.h"

namespace strdb {
namespace {

CalcFormula P(const std::string& text) {
  Result<CalcFormula> r = ParseCalcFormula(text);
  EXPECT_TRUE(r.ok()) << r.status() << " while parsing: " << text;
  return *r;
}

Database MakeDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.Put("R1", 2, {{"ab", "ab"}, {"ab", "ba"}, {"a", "b"},
                               {"", "b"}}).ok());
  EXPECT_TRUE(db.Put("R2", 1, {{"ab"}, {"bb"}, {""}}).ok());
  return db;
}

constexpr int kL = 2;

// E7 heart: ⟦φ⟧^l_db (naive truth definitions) must equal db(E_φ ↓ l)
// (Theorem 4.2 translation + algebra evaluation).
void ExpectTranslationAgrees(const CalcFormula& f, const Database& db) {
  CalcEvalOptions naive_opts;
  naive_opts.truncation = kL;
  naive_opts.max_steps = 200'000'000;
  Result<StringRelation> naive = EvalCalcNaive(f, db, naive_opts);
  ASSERT_TRUE(naive.ok()) << naive.status() << " for " << f.ToString();

  Result<AlgebraExpr> expr = CalcToAlgebra(f, db.alphabet());
  ASSERT_TRUE(expr.ok()) << expr.status() << " for " << f.ToString();
  EvalOptions alg_opts;
  alg_opts.truncation = kL;
  Result<StringRelation> algebra = EvalAlgebra(*expr, db, alg_opts);
  ASSERT_TRUE(algebra.ok()) << algebra.status() << " for " << f.ToString();

  EXPECT_EQ(naive->tuples(), algebra->tuples())
      << f.ToString() << "\nalgebra: " << expr->ToString();
}

TEST(TranslationTest, RelationalAtom) {
  ExpectTranslationAgrees(P("R1(x,y)"), MakeDb());
}

TEST(TranslationTest, RepeatedVariableAtom) {
  ExpectTranslationAgrees(P("R1(x,x)"), MakeDb());
}

// An atom gets Theorem 4.2's partition σ only where a variable repeats:
// with distinct variables that σ would accept every tuple, so the atom
// is its restricted scan, reordered where the columns would not ascend.
TEST(TranslationTest, AtomsSelectOnlyOnRepeatedVariables) {
  Database db = MakeDb();
  Result<AlgebraExpr> xy = CalcToAlgebra(P("R1(x,y)"), db.alphabet());
  ASSERT_TRUE(xy.ok()) << xy.status();
  EXPECT_EQ(xy->ToString(), "restrict(R1)");
  ExpectTranslationAgrees(P("R1(x,y)"), db);

  Result<AlgebraExpr> yx = CalcToAlgebra(P("R1(y,x)"), db.alphabet());
  ASSERT_TRUE(yx.ok()) << yx.status();
  EXPECT_EQ(yx->ToString(), "pi[1,0](restrict(R1))");
  ExpectTranslationAgrees(P("R1(y,x)"), db);

  // The partition join reads the scan itself; the restriction bounds
  // its one column.
  Result<AlgebraExpr> xx = CalcToAlgebra(P("R1(x,x)"), db.alphabet());
  ASSERT_TRUE(xx.ok()) << xx.status();
  ASSERT_EQ(xx->kind(), AlgebraExpr::Kind::kRestrict) << xx->ToString();
  ASSERT_EQ(xx->Left().kind(), AlgebraExpr::Kind::kProject);
  EXPECT_EQ(xx->Left().columns(), (std::vector<int>{0}));
  ASSERT_EQ(xx->Left().Left().kind(), AlgebraExpr::Kind::kSelect);
  EXPECT_EQ(xx->Left().Left().Left().ToString(), "R1");
}

TEST(TranslationTest, StringFormulaLeaf) {
  ExpectTranslationAgrees(P("([x,y]l(x = y))* . [x,y]l(x = y = ~)"),
                          MakeDb());
}

TEST(TranslationTest, VariableFreeStringFormula) {
  ExpectTranslationAgrees(P("lambda"), MakeDb());
}

TEST(TranslationTest, ConjunctionJoinsSharedVariables) {
  ExpectTranslationAgrees(P("R1(x,y) & R2(x)"), MakeDb());
  ExpectTranslationAgrees(P("R1(x,y) & R2(z)"), MakeDb());
  ExpectTranslationAgrees(
      P("R1(x,y) & ([x,y]l(x = y))* . [x,y]l(x = y = ~)"), MakeDb());
}

// A conjunction without shared variables adds nothing but the product:
// no σ (the all-singleton partition's automaton accepts every tuple),
// and a π only where the columns would not ascend.
TEST(TranslationTest, DisjointConjunctionIsABareProduct) {
  Database db(Alphabet::Binary());
  ASSERT_TRUE(db.Put("A", 1, {{"a"}, {"ab"}, {""}}).ok());
  ASSERT_TRUE(db.Put("B", 1, {{"b"}, {"ab"}}).ok());
  Result<AlgebraExpr> a = CalcToAlgebra(P("A(x)"), db.alphabet());
  Result<AlgebraExpr> b = CalcToAlgebra(P("B(y)"), db.alphabet());
  ASSERT_TRUE(a.ok() && b.ok());

  Result<AlgebraExpr> ordered = CalcToAlgebra(P("A(x) & B(y)"), db.alphabet());
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  ASSERT_EQ(ordered->kind(), AlgebraExpr::Kind::kProduct)
      << ordered->ToString();
  EXPECT_EQ(ordered->Left().ToString(), a->ToString());
  EXPECT_EQ(ordered->Right().ToString(), b->ToString());
  ExpectTranslationAgrees(P("A(x) & B(y)"), db);

  Result<AlgebraExpr> swapped = CalcToAlgebra(P("B(y) & A(x)"), db.alphabet());
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  ASSERT_EQ(swapped->kind(), AlgebraExpr::Kind::kProject)
      << swapped->ToString();
  EXPECT_EQ(swapped->columns(), (std::vector<int>{1, 0}));
  ASSERT_EQ(swapped->Left().kind(), AlgebraExpr::Kind::kProduct);
  EXPECT_EQ(swapped->Left().Left().ToString(), b->ToString());
  ExpectTranslationAgrees(P("B(y) & A(x)"), db);
}

TEST(TranslationTest, Negation) {
  ExpectTranslationAgrees(P("!R2(x)"), MakeDb());
  ExpectTranslationAgrees(P("R1(x,y) & !R2(x)"), MakeDb());
}

TEST(TranslationTest, Disjunction) {
  ExpectTranslationAgrees(P("R2(x) | [x]l(x = 'a')"), MakeDb());
}

TEST(TranslationTest, ExistentialProjection) {
  ExpectTranslationAgrees(P("exists y: R1(x,y)"), MakeDb());
  ExpectTranslationAgrees(P("exists x: R1(x,y)"), MakeDb());
  ExpectTranslationAgrees(P("exists x, y: R1(x,y)"), MakeDb());
  // Vacuous quantification.
  ExpectTranslationAgrees(P("exists z: R2(x)"), MakeDb());
}

TEST(TranslationTest, UniversalQuantifier) {
  ExpectTranslationAgrees(P("forall y: R2(y) | !R2(y)"), MakeDb());
}

TEST(TranslationTest, Example3Concatenation) {
  ExpectTranslationAgrees(
      P("exists y, z: R2(y) & R2(z) & "
        "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)"),
      MakeDb());
}

TEST(TranslationTest, JoinByPartitionDirect) {
  Database db = MakeDb();
  // Join R1's two columns into one: tuples with equal components.
  Result<AlgebraExpr> joined = JoinByPartition(
      AlgebraExpr::Relation("R1", 2), {{0, 1}}, db.alphabet());
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->arity(), 1);
  EvalOptions opts;
  opts.truncation = kL;
  Result<StringRelation> r = EvalAlgebra(*joined, db, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->tuples(), (std::set<Tuple>{{"ab"}}));
}

TEST(TranslationTest, JoinByPartitionValidation) {
  Alphabet bin = Alphabet::Binary();
  AlgebraExpr r = AlgebraExpr::Relation("R1", 2);
  EXPECT_FALSE(JoinByPartition(r, {{0}}, bin).ok());         // not covering
  EXPECT_FALSE(JoinByPartition(r, {{0, 1}, {1}}, bin).ok()); // overlap
  EXPECT_FALSE(JoinByPartition(r, {{0, 2}}, bin).ok());      // out of range
  EXPECT_TRUE(JoinByPartition(r, {{1}, {0}}, bin).ok());     // reorder OK
}

TEST(TranslationTest, JoinByPartitionReordersColumns) {
  Database db = MakeDb();
  Result<AlgebraExpr> swapped = JoinByPartition(
      AlgebraExpr::Relation("R1", 2), {{1}, {0}}, db.alphabet());
  ASSERT_TRUE(swapped.ok());
  EvalOptions opts;
  opts.truncation = kL;
  Result<StringRelation> r = EvalAlgebra(*swapped, db, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains({"ba", "ab"}));  // (ab,ba) swapped
}

// Theorem 4.1: algebra → calculus, checked against the algebra
// evaluator on databases whose strings fit the truncation.
void ExpectToCalcAgrees(const AlgebraExpr& e, const Database& db) {
  EvalOptions alg_opts;
  alg_opts.truncation = kL;
  Result<StringRelation> direct = EvalAlgebra(e, db, alg_opts);
  ASSERT_TRUE(direct.ok()) << direct.status();

  Result<CalcFormula> f = AlgebraToCalc(e, db.alphabet());
  ASSERT_TRUE(f.ok()) << f.status() << " for " << e.ToString();
  CalcEvalOptions naive_opts;
  naive_opts.truncation = kL;
  naive_opts.max_steps = 500'000'000;
  Result<StringRelation> via_calc = EvalCalcNaive(*f, db, naive_opts);
  ASSERT_TRUE(via_calc.ok()) << via_calc.status();
  EXPECT_EQ(direct->tuples(), via_calc->tuples())
      << e.ToString() << "\nformula: " << f->ToString();
}

TEST(ToCalcTest, BaseCases) {
  Database db = MakeDb();
  ExpectToCalcAgrees(AlgebraExpr::Relation("R2", 1), db);
  ExpectToCalcAgrees(AlgebraExpr::SigmaStar(), db);
  ExpectToCalcAgrees(AlgebraExpr::SigmaL(1), db);
}

TEST(ToCalcTest, SetOperations) {
  Database db = MakeDb();
  AlgebraExpr r2 = AlgebraExpr::Relation("R2", 1);
  AlgebraExpr s1 = AlgebraExpr::SigmaL(1);
  ExpectToCalcAgrees(*AlgebraExpr::Union(r2, s1), db);
  ExpectToCalcAgrees(*AlgebraExpr::Difference(s1, r2), db);
  ExpectToCalcAgrees(*AlgebraExpr::Intersect(s1, r2), db);
}

TEST(ToCalcTest, ProductAndProject) {
  Database db = MakeDb();
  AlgebraExpr r1 = AlgebraExpr::Relation("R1", 2);
  AlgebraExpr r2 = AlgebraExpr::Relation("R2", 1);
  ExpectToCalcAgrees(AlgebraExpr::Product(r2, r2), db);
  ExpectToCalcAgrees(*AlgebraExpr::Project(r1, {1}), db);
  ExpectToCalcAgrees(*AlgebraExpr::Project(r1, {1, 0}), db);
  ExpectToCalcAgrees(*AlgebraExpr::Project(AlgebraExpr::Product(r1, r2),
                                           {2, 0}),
                     db);
}

TEST(ToCalcTest, SelectBecomesStringFormulaConjunct) {
  Database db = MakeDb();
  Result<StringFormula> eq = ParseStringFormula(
      "([v0,v1]l(v0 = v1))* . [v0,v1]l(v0 = v1 = ~)");
  ASSERT_TRUE(eq.ok());
  Result<Fsa> fsa =
      CompileStringFormula(*eq, db.alphabet(), {"v0", "v1"});
  ASSERT_TRUE(fsa.ok());
  Result<AlgebraExpr> sel =
      AlgebraExpr::Select(AlgebraExpr::Relation("R1", 2), *fsa);
  ASSERT_TRUE(sel.ok());
  ExpectToCalcAgrees(*sel, db);
}

// Randomised 4.2-direction property test.
TEST(TranslationTest, RandomFormulaeAgree) {
  Database db = MakeDb();
  Rng rng(20260705);
  std::vector<std::string> vars = {"x", "y"};
  auto leaf = [&]() -> CalcFormula {
    switch (rng.Range(0, 4)) {
      case 0:
        return P("R2(x)");
      case 1:
        return P("R1(x,y)");
      case 2:
        return P("R1(y,y)");
      case 3:
        return P("[x]l(x = 'a')");
      default:
        return P("([x,y]l(x = y))* . [x,y]l(x = y = ~)");
    }
  };
  std::function<CalcFormula(int)> build = [&](int depth) -> CalcFormula {
    if (depth == 0) return leaf();
    switch (rng.Range(0, 4)) {
      case 0:
        return CalcFormula::And(build(depth - 1), build(depth - 1));
      case 1:
        return CalcFormula::Or(build(depth - 1), build(depth - 1));
      case 2:
        return CalcFormula::Not(build(depth - 1));
      case 3:
        return CalcFormula::Exists({vars[rng.Below(2)]}, build(depth - 1));
      default:
        return leaf();
    }
  };
  for (int trial = 0; trial < 10; ++trial) {
    CalcFormula f = build(2);
    ExpectTranslationAgrees(f, db);
  }
}

}  // namespace
}  // namespace strdb
