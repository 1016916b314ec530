#ifndef STRDB_ENGINE_ENGINE_H_
#define STRDB_ENGINE_ENGINE_H_

#include <memory>
#include <string>

#include "core/result.h"
#include "core/thread_pool.h"
#include "engine/cache.h"
#include "engine/plan.h"
#include "engine/rewrite.h"
#include "engine/stats.h"
#include "relational/algebra.h"
#include "relational/relation.h"

namespace strdb {

// σ_A acceptance tiers, slowest first.
enum class AcceptTier : uint8_t { kBfs, kKernel, kDfa };

struct EngineOptions {
  // Run the rewrite pipeline (engine/rewrite) before lowering.
  bool enable_rewrites = true;
  RewriteOptions rewrites;
  // Reuse compiled σ_A artifacts (specialised automata, bounded
  // generations) across selections and across Execute calls.
  bool enable_cache = true;
  // Byte bound of the artifact cache (LRU-evicted; <= 0 picks the
  // default).  The bound holds at all times, not just between queries.
  int64_t cache_max_bytes = ArtifactCache::kDefaultMaxBytes;
  // The fastest σ_A acceptance tier the engine may use.  kBfs is the
  // reference Theorem 3.3 search (AcceptsWithStats); kKernel adds the
  // compiled acceptance kernel (fsa/kernel: CSR-indexed transitions, a
  // one-way fast path, reusable per-thread scratch); kDfa adds the DFA
  // codegen tier (fsa/dfa + fsa/codegen: one-way move-deterministic
  // machines subset-constructed, minimised and run by the 64-lane batch
  // interpreter), whose artifact also licenses hash joins.  A machine a
  // tier refuses falls to the next one down, so answers are identical
  // at every setting; only speed differs.
  AcceptTier max_tier = AcceptTier::kDfa;
  // Partition filter-select inputs across a pool of `num_threads`
  // threads (1 = serial; <= 0 picks hardware_concurrency()).  Inputs
  // smaller than `parallel_threshold` tuples run on the calling thread.
  int num_threads = 0;
  int64_t parallel_threshold = 32;
  // Stream spilled (out-of-core) relations through σ_A filters batch by
  // batch instead of materialising them first.  Off = paged relations
  // are materialised on first use (the differential oracle path);
  // answers are identical either way, only peak memory differs.
  bool enable_paged = true;
};

// Planning + execution engine for the alignment algebra: lowers an
// AlgebraExpr to a physical-plan DAG (engine/plan), optimises it
// (engine/rewrite), and runs it with shared-subtree memoisation, a
// process-wide compiled-artifact cache and parallel acceptance checks.
// Agrees with EvalAlgebra on every expression (engine_test property-tests
// the equivalence); only resource-budget *errors* can surface at
// different points.
//
// Thread safe: Execute keeps per-call state on the stack, the artifact
// cache locks internally.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  // Evaluates db(E↓l) like EvalAlgebra(expr, db, options).  When `stats`
  // is non-null it receives wall time, cache counters and the executed
  // plan annotated with per-operator counters — also on failure, where
  // the partial counters show how far the query got before the error
  // (a budget-exhausted query is still fully observable).
  Result<StringRelation> Execute(const AlgebraExpr& expr, const Database& db,
                                 const EvalOptions& options,
                                 ExecStats* stats = nullptr);

  // The plan Execute would run, rendered with planner estimates only.
  Result<std::string> Explain(const AlgebraExpr& expr, const Database& db,
                              const EvalOptions& options);

  const EngineOptions& options() const { return options_; }
  ArtifactCache& cache() { return cache_; }
  ThreadPool& pool() { return pool_; }
  StatsCatalog& stats_catalog() { return stats_catalog_; }
  SelectivityFeedback& feedback() { return feedback_; }
  DensityCache& densities() { return densities_; }

  // The process-wide engine instance the Query facade routes through.
  static Engine& Shared();

 private:
  // Lowers `expr` (after rewrites) to a plan DAG; shared AST subtrees
  // lower to one shared PlanNode.
  Result<std::shared_ptr<PlanNode>> Plan(const AlgebraExpr& expr,
                                         const Database& db,
                                         const EvalOptions& options);

  const EngineOptions options_;
  ArtifactCache cache_;
  ThreadPool pool_;
  // Cost-planner state: epoch-cached relation statistics, adaptive
  // selectivity corrections, and memoised acceptance densities.
  StatsCatalog stats_catalog_;
  SelectivityFeedback feedback_;
  DensityCache densities_;
};

}  // namespace strdb

#endif  // STRDB_ENGINE_ENGINE_H_
