#ifndef STRDB_ENGINE_REWRITE_H_
#define STRDB_ENGINE_REWRITE_H_

#include "core/result.h"
#include "engine/cost.h"
#include "relational/algebra.h"

namespace strdb {

// Which passes of the rewrite pipeline run (in the order listed).
struct RewriteOptions {
  // σ_A(E ∪ F) → σ_A(E) ∪ σ_A(F), and σ_A(E × F) → σ_{A'}(E) × F when
  // every tape of F is disregarded by A (pinned to ⊢ and never moved):
  // selections sink towards the data they actually read.
  bool pushdown_selections = true;
  // Lemma 3.1 at plan time: a product factor that is a single-tuple
  // database relation is folded into the automaton (fsa/specialize),
  // shrinking both the σ input and the machine.
  bool specialize_constants = true;
  // The cost-based DP planner (engine/planner.h) orders every product's
  // factors by statistics-backed cardinality estimates, with a
  // projection restoring the original column order; under a σ the
  // automaton's tapes are permuted to match.  Off = written order.
  bool reorder_products = true;
  // Hash-consing over the shared AST: structurally identical subtrees
  // are unified into one node, which the executor then evaluates once.
  bool common_subexpressions = true;
};

// Applies the pipeline.  `ctx.db` (must be set) supplies the constant
// relations for specialisation; the rest of `ctx` feeds the DP
// planner's estimates, and `ctx.truncation` sizes Σ*/Σ^l.  Rewrites
// never change db(E↓l) and preserve IsFinitelyEvaluable(); a pass that
// fails, or whose output would violate either guard, is skipped
// wholesale, so a failed reorder keeps the written order.
Result<AlgebraExpr> RewriteExpr(const AlgebraExpr& expr,
                                const CostPlannerContext& ctx,
                                const RewriteOptions& rewrites = {});

}  // namespace strdb

#endif  // STRDB_ENGINE_REWRITE_H_
