#include <gtest/gtest.h>

#include "fsa/compile.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "strform/parser.h"

namespace strdb {
namespace {

Fsa Compile(const std::string& text, const Alphabet& alphabet,
            const std::vector<std::string>& vars) {
  Result<StringFormula> f = ParseStringFormula(text);
  EXPECT_TRUE(f.ok()) << f.status();
  Result<Fsa> r = CompileStringFormula(*f, alphabet, vars);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

Database MakeDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.Put("R1", 1, {{"ab"}, {"ba"}}).ok());
  EXPECT_TRUE(db.Put("R3", 1, {{"a"}, {"bb"}}).ok());
  EXPECT_TRUE(db.Put("Pairs", 2, {{"ab", "ab"}, {"ab", "ba"}, {"", ""}}).ok());
  return db;
}

const EvalOptions kOpts{.truncation = 4, .max_tuples = 100000,
                        .max_steps = 10'000'000};

TEST(RelationTest, InsertValidatesArity) {
  StringRelation r(2);
  EXPECT_TRUE(r.Insert({"a", "b"}).ok());
  EXPECT_FALSE(r.Insert({"a"}).ok());
  EXPECT_EQ(r.size(), 1);
  EXPECT_TRUE(r.Contains({"a", "b"}));
}

TEST(RelationTest, MaxStringLengthAndTruncation) {
  StringRelation r(2);
  ASSERT_TRUE(r.Insert({"a", "bbbb"}).ok());
  ASSERT_TRUE(r.Insert({"aa", "b"}).ok());
  EXPECT_EQ(r.MaxStringLength(), 4);
  StringRelation t = r.TruncatedTo(2);
  EXPECT_EQ(t.size(), 1);
  EXPECT_TRUE(t.Contains({"aa", "b"}));
}

TEST(RelationTest, ArityZero) {
  StringRelation empty(0);
  EXPECT_TRUE(empty.empty());
  ASSERT_TRUE(empty.Insert({}).ok());
  EXPECT_EQ(empty.size(), 1);  // the full relation {()}
}

TEST(DatabaseTest, AlphabetEnforced) {
  Database db(Alphabet::Binary());
  EXPECT_FALSE(db.Put("R", 1, {{"xyz"}}).ok());
  EXPECT_TRUE(db.Put("R", 1, {{"ab"}}).ok());
  EXPECT_TRUE(db.Has("R"));
  EXPECT_FALSE(db.Get("S").ok());
  EXPECT_EQ(db.MaxStringLength(), 2);
}

TEST(AlgebraTest, RelationLookup) {
  Database db = MakeDb();
  AlgebraExpr e = AlgebraExpr::Relation("R1", 1);
  Result<StringRelation> r = EvalAlgebra(e, db, kOpts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2);
}

TEST(AlgebraTest, RelationArityMismatchFails) {
  Database db = MakeDb();
  AlgebraExpr e = AlgebraExpr::Relation("R1", 2);
  EXPECT_FALSE(EvalAlgebra(e, db, kOpts).ok());
}

TEST(AlgebraTest, UnionDifferenceIntersect) {
  Database db = MakeDb();
  AlgebraExpr r1 = AlgebraExpr::Relation("R1", 1);
  AlgebraExpr r3 = AlgebraExpr::Relation("R3", 1);
  Result<AlgebraExpr> u = AlgebraExpr::Union(r1, r3);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(EvalAlgebra(*u, db, kOpts)->size(), 4);
  Result<AlgebraExpr> d = AlgebraExpr::Difference(*u, r3);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(EvalAlgebra(*d, db, kOpts)->size(), 2);
  Result<AlgebraExpr> i = AlgebraExpr::Intersect(*u, r1);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(EvalAlgebra(*i, db, kOpts)->size(), 2);
}

TEST(AlgebraTest, ArityMismatchRejectedAtConstruction) {
  AlgebraExpr r1 = AlgebraExpr::Relation("R1", 1);
  AlgebraExpr pairs = AlgebraExpr::Relation("Pairs", 2);
  EXPECT_FALSE(AlgebraExpr::Union(r1, pairs).ok());
  EXPECT_FALSE(AlgebraExpr::Difference(r1, pairs).ok());
}

TEST(AlgebraTest, ProductAndProject) {
  Database db = MakeDb();
  AlgebraExpr prod = AlgebraExpr::Product(AlgebraExpr::Relation("R1", 1),
                                          AlgebraExpr::Relation("R3", 1));
  EXPECT_EQ(prod.arity(), 2);
  Result<StringRelation> r = EvalAlgebra(prod, db, kOpts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4);
  Result<AlgebraExpr> proj = AlgebraExpr::Project(prod, {1});
  ASSERT_TRUE(proj.ok());
  Result<StringRelation> pr = EvalAlgebra(*proj, db, kOpts);
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->size(), 2);
  EXPECT_TRUE(pr->Contains({"a"}));
}

TEST(AlgebraTest, ProjectValidation) {
  AlgebraExpr pairs = AlgebraExpr::Relation("Pairs", 2);
  EXPECT_FALSE(AlgebraExpr::Project(pairs, {2}).ok());
  EXPECT_FALSE(AlgebraExpr::Project(pairs, {0, 0}).ok());
  EXPECT_TRUE(AlgebraExpr::Project(pairs, {}).ok());  // arity-0 projection
}

// The factory builds no π that only copies its input: the identity
// returns the child's own node, and π∘π composes into one π.
TEST(AlgebraTest, ProjectDropsIdentityAndComposes) {
  Database db = MakeDb();
  AlgebraExpr triple = AlgebraExpr::Product(
      AlgebraExpr::Relation("Pairs", 2), AlgebraExpr::Relation("R1", 1));
  Result<AlgebraExpr> same = AlgebraExpr::Project(triple, {0, 1, 2});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->node_identity(), triple.node_identity());

  Result<AlgebraExpr> inner = AlgebraExpr::Project(triple, {2, 0, 1});
  ASSERT_TRUE(inner.ok());
  Result<AlgebraExpr> outer = AlgebraExpr::Project(*inner, {2, 0});
  ASSERT_TRUE(outer.ok());
  ASSERT_EQ(outer->kind(), AlgebraExpr::Kind::kProject);
  EXPECT_EQ(outer->columns(), (std::vector<int>{1, 2}));
  EXPECT_EQ(outer->Left().node_identity(), triple.node_identity());
  Result<StringRelation> composed = EvalAlgebra(*outer, db, kOpts);
  Result<StringRelation> direct =
      EvalAlgebra(*AlgebraExpr::Project(triple, {1, 2}), db, kOpts);
  ASSERT_TRUE(composed.ok() && direct.ok());
  EXPECT_EQ(composed->tuples(), direct->tuples());

  // A composition that restores the order cancels both projections.
  Result<AlgebraExpr> back = AlgebraExpr::Project(*inner, {1, 2, 0});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node_identity(), triple.node_identity());

  // Bad columns are rejected before anything is dropped or composed.
  EXPECT_FALSE(AlgebraExpr::Project(*inner, {3}).ok());
  EXPECT_FALSE(AlgebraExpr::Project(*inner, {0, 0}).ok());
  EXPECT_FALSE(AlgebraExpr::Project(triple, {0, 1, 1}).ok());
}

TEST(AlgebraTest, ProjectToArityZero) {
  Database db = MakeDb();
  Result<AlgebraExpr> proj =
      AlgebraExpr::Project(AlgebraExpr::Relation("R1", 1), {});
  ASSERT_TRUE(proj.ok());
  Result<StringRelation> r = EvalAlgebra(*proj, db, kOpts);
  ASSERT_TRUE(r.ok());
  // Nonempty input: the full arity-0 relation {()}.
  EXPECT_EQ(r->size(), 1);
}

TEST(AlgebraTest, SelectFilters) {
  Database db = MakeDb();
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   Alphabet::Binary(), {"x", "y"});
  Result<AlgebraExpr> sel =
      AlgebraExpr::Select(AlgebraExpr::Relation("Pairs", 2), eq);
  ASSERT_TRUE(sel.ok()) << sel.status();
  Result<StringRelation> r = EvalAlgebra(*sel, db, kOpts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2);
  EXPECT_TRUE(r->Contains({"ab", "ab"}));
  EXPECT_TRUE(r->Contains({"", ""}));
}

TEST(AlgebraTest, SelectArityValidated) {
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   Alphabet::Binary(), {"x", "y"});
  EXPECT_FALSE(
      AlgebraExpr::Select(AlgebraExpr::Relation("R1", 1), eq).ok());
}

// E8: the §4 concatenation query π1 σ_A(Σ* × R1 × R3).
TEST(AlgebraTest, SectionFourConcatenationQuery) {
  Database db = MakeDb();
  Fsa concat = Compile(
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = ~ & y = ~ & z = ~)",
      Alphabet::Binary(), {"x", "y", "z"});
  AlgebraExpr body = AlgebraExpr::Product(
      AlgebraExpr::SigmaStar(),
      AlgebraExpr::Product(AlgebraExpr::Relation("R1", 1),
                           AlgebraExpr::Relation("R3", 1)));
  Result<AlgebraExpr> sel = AlgebraExpr::Select(body, concat);
  ASSERT_TRUE(sel.ok()) << sel.status();
  EXPECT_TRUE(sel->IsFinitelyEvaluable());
  Result<AlgebraExpr> query = AlgebraExpr::Project(*sel, {0});
  ASSERT_TRUE(query.ok());
  Result<StringRelation> r = EvalAlgebra(*query, db, kOpts);
  ASSERT_TRUE(r.ok()) << r.status();
  // R1 = {ab, ba}, R3 = {a, bb}: concatenations.
  std::set<Tuple> expect = {{"aba"}, {"abbb"}, {"baa"}, {"babb"}};
  EXPECT_EQ(r->tuples(), expect);
}

TEST(AlgebraTest, FiniteEvaluabilityClassification) {
  AlgebraExpr star = AlgebraExpr::SigmaStar();
  EXPECT_FALSE(star.IsFinitelyEvaluable());
  EXPECT_TRUE(AlgebraExpr::SigmaL(3).IsFinitelyEvaluable());
  EXPECT_TRUE(AlgebraExpr::Relation("R", 1).IsFinitelyEvaluable());
  // A bare product with Σ* is not finitely evaluable...
  AlgebraExpr prod = AlgebraExpr::Product(star, AlgebraExpr::Relation("R", 1));
  EXPECT_FALSE(prod.IsFinitelyEvaluable());
  // ...but under a selection it is.
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   Alphabet::Binary(), {"x", "y"});
  Result<AlgebraExpr> sel = AlgebraExpr::Select(prod, eq);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->IsFinitelyEvaluable());
}

TEST(AlgebraTest, SigmaLMaterialises) {
  Database db = MakeDb();
  Result<StringRelation> r = EvalAlgebra(AlgebraExpr::SigmaL(2), db, kOpts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1 + 2 + 4);
}

TEST(AlgebraTest, SigmaStarTruncatesToL) {
  Database db = MakeDb();
  EvalOptions opts = kOpts;
  opts.truncation = 1;
  Result<StringRelation> r = EvalAlgebra(AlgebraExpr::SigmaStar(), db, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3);
}

TEST(AlgebraTest, GeneratorAndMaterialisedSelectAgree) {
  // The generator path (σ_A(Σ* × R)) and the filter path
  // (σ_A(Σ^l × R)) must produce the same answers for l = truncation.
  Database db = MakeDb();
  Fsa concat = Compile(
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = ~ & y = ~ & z = ~)",
      Alphabet::Binary(), {"x", "y", "z"});
  AlgebraExpr gen_body = AlgebraExpr::Product(
      AlgebraExpr::SigmaStar(),
      AlgebraExpr::Product(AlgebraExpr::Relation("R1", 1),
                           AlgebraExpr::Relation("R3", 1)));
  AlgebraExpr mat_body = AlgebraExpr::Product(
      AlgebraExpr::SigmaL(kOpts.truncation),
      AlgebraExpr::Product(AlgebraExpr::Relation("R1", 1),
                           AlgebraExpr::Relation("R3", 1)));
  Result<AlgebraExpr> gen_sel = AlgebraExpr::Select(gen_body, concat);
  Result<AlgebraExpr> mat_sel = AlgebraExpr::Select(mat_body, concat);
  ASSERT_TRUE(gen_sel.ok() && mat_sel.ok());
  Result<StringRelation> gen = EvalAlgebra(*gen_sel, db, kOpts);
  Result<StringRelation> mat = EvalAlgebra(*mat_sel, db, kOpts);
  ASSERT_TRUE(gen.ok() && mat.ok()) << gen.status() << mat.status();
  EXPECT_EQ(gen->tuples(), mat->tuples());
}

TEST(AlgebraTest, TupleBudgetEnforced) {
  Database db = MakeDb();
  EvalOptions opts = kOpts;
  opts.max_tuples = 2;
  Result<StringRelation> r = EvalAlgebra(AlgebraExpr::SigmaL(3), db, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace strdb
