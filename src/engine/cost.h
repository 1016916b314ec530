#ifndef STRDB_ENGINE_COST_H_
#define STRDB_ENGINE_COST_H_

#include <string>
#include <vector>

#include "engine/cache.h"
#include "engine/stats.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "relational/stats.h"

namespace strdb {

// Per-tuple cost constants (nanoseconds), calibrated from the
// checked-in BENCH_accept.json / BENCH_query_eval.json rows: the three
// acceptance tiers' end-to-end σ ns/tuple, plus materialisation and
// scan costs measured alongside them.  Absolute accuracy is not the
// point — plan choices only depend on the ratios, and those are pinned
// by the bench-regression gate.
struct CostModel {
  double bfs_ns_per_tuple = 8442;     // reference Theorem 3.3 BFS
  double kernel_ns_per_tuple = 3975;  // CSR acceptance kernel
  double dfa_ns_per_tuple = 679;      // DFA batch interpreter
  double tuple_build_ns = 400;        // product materialisation, per row
  double scan_ns = 120;               // per scanned tuple
  double generate_ns = 4000;          // per generated σ_A candidate
};

// Everything the cost-based planner needs, bundled so the rewrite
// pipeline and the engine's plan lowering share one argument.  All
// pointers are unowned.  RewriteExpr requires `db`; any other null
// pointer just removes its input: no statistics (a relation is then
// estimated at its paged tuple count, else 0 rows), no feedback, no
// density memo, no artifact cache.
struct CostPlannerContext {
  const Database* db = nullptr;
  const PagedSet* paged = nullptr;
  // Persisted statistics from the durable catalog (covers paged
  // relations); consulted before recomputing from the Database.
  const StatsMap* stored_stats = nullptr;
  StatsCatalog* stats = nullptr;
  SelectivityFeedback* feedback = nullptr;
  DensityCache* densities = nullptr;
  ArtifactCache* cache = nullptr;
  int truncation = 4;
  CostModel model;
};

// A crude per-column generative model of an expression's output,
// feeding the acceptance-density walk: character weights by byte value
// and an expected string length.
struct ColumnDist {
  std::vector<double> char_weight;  // [byte]; empty = uniform over Σ
  double expected_len = 2.0;
};

// Per-column distributions of db(E↓l)'s output, derived from relation
// statistics where available and flat defaults elsewhere.
std::vector<ColumnDist> EstimateColumnDists(const AlgebraExpr& expr,
                                            const CostPlannerContext& ctx);

// Statistics-backed cardinality estimate for db(E↓l).  Always finite
// and non-negative.  Domains count Σ^{<=l} exactly; a relation with no
// statistics and no paged heap is estimated at 0 rows.  A generate-select
// (IsGenerateSelect) is its non-Σ* factors' rows times the fan-out
// feedback under GenerateFanoutKey, one answer per combination before
// any feedback exists.
double EstimateRows(const AlgebraExpr& expr, const CostPlannerContext& ctx);

// The feedback key of a generate-select over the machine `fsa_key`: its
// observed fan-out, kept apart from the selectivity a filter over the
// same machine records under `fsa_key` itself.
std::string GenerateFanoutKey(const std::string& fsa_key);

// σ_A selectivity in [0, 1]: the DFA acceptance density under the
// column model, blended with the adaptive feedback for `fsa_key` when
// any exists.  Machines outside the DFA tier (or past its caps) fall
// back to the flat 0.25 guess before blending.
double EstimateSelectivity(const Fsa& fsa, const std::string& fsa_key,
                           const std::vector<ColumnDist>& dists,
                           const CostPlannerContext& ctx);

}  // namespace strdb

#endif  // STRDB_ENGINE_COST_H_
