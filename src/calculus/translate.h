#ifndef STRDB_CALCULUS_TRANSLATE_H_
#define STRDB_CALCULUS_TRANSLATE_H_

#include <string>
#include <vector>

#include "calculus/formula.h"
#include "core/result.h"
#include "fsa/compile.h"
#include "relational/algebra.h"

namespace strdb {

// --- Theorem 4.2: calculus → algebra ---------------------------------------

struct TranslateOptions {
  CompileOptions compile;
};

// The F ⋈ B construct from the proof of Theorem 4.2: selects the tuples
// of `f` whose columns are equal within every block of the ordered
// partition `blocks` (0-based column indices, disjoint, covering f's
// arity), then projects to one representative column per block (the
// block minimum), in block order; for all-singleton blocks in column
// order that projection is the identity, and the result is the σ.
// The equality test is the string formula
// ([c0..ca]l ⋀_j ⋀_{i∈Bj} c_i = c_minBj)* · [c0..ca]l
// (c_0 = ... = c_a = ε), compiled to an FSA selection.
Result<AlgebraExpr> JoinByPartition(AlgebraExpr f,
                                    const std::vector<std::vector<int>>& blocks,
                                    const Alphabet& alphabet,
                                    const CompileOptions& options = {});

// Translates an alignment-calculus formula into an alignment-algebra
// expression E_φ with one column per free variable, ascending by name,
// such that ⟦φ⟧_db = db(E_φ) and ⟦φ⟧^l_db = db(E_φ ↓ l) (the evaluator's
// truncation option plays the role of ↓l).
//
// ∨ and ∀ are desugared through ¬/∧/∃ as in the paper; negation over m
// free variables becomes (Σ*)^m \ E, whose evaluation materialises
// (Σ^l)^m — inherently exponential in m, like the paper's construction.
Result<AlgebraExpr> CalcToAlgebra(const CalcFormula& formula,
                                  const Alphabet& alphabet,
                                  const TranslateOptions& options = {});

// --- Theorem 4.1: algebra → calculus ---------------------------------------

struct ToCalcOptions {
  // Forwarded to FsaToStringFormula for selection automata.
  int64_t max_formula_size = 5'000'000;
};

// Translates an algebra expression into a calculus formula φ_E whose
// free variables are named v0, v1, ..., v{arity-1} (in column order)
// with db(E) = ⟦φ_E⟧_db.  Quantified helper variables are named q0,
// q1, ... and never collide with the column variables.
Result<CalcFormula> AlgebraToCalc(const AlgebraExpr& expr,
                                  const Alphabet& alphabet,
                                  const ToCalcOptions& options = {});

// The canonical column-variable name used by AlgebraToCalc.
std::string ColumnVar(int i);

}  // namespace strdb

#endif  // STRDB_CALCULUS_TRANSLATE_H_
