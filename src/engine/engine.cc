#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "engine/cost.h"
#include "fsa/accept.h"
#include "fsa/codegen/program.h"
#include "fsa/generate.h"
#include "fsa/kernel.h"

namespace strdb {

namespace {

using Kind = AlgebraExpr::Kind;
using Op = PlanNode::Op;
using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// Fetches (or compiles) the DFA-tier artifact for `node`'s automaton:
// the program plus its implied tape equalities, or a typed refusal
// (two-way, nondeterministic head schedule, past the subset caps).
// Refusals are cached too, so an inapplicable machine pays the
// classification once, not per query.  `cache` may be null (caching
// disabled).
Result<std::shared_ptr<const DfaCompilation>> LookupDfa(
    PlanNode* node, ArtifactCache* cache, ResourceBudget* budget) {
  static Counter* const hits =
      MetricsRegistry::Global().GetCounter("fsa.dfa.cache_hits");
  static Counter* const fallbacks =
      MetricsRegistry::Global().GetCounter("fsa.dfa.fallbacks");
  const std::string key = node->fsa_key + "\n|dfa";
  if (cache != nullptr) {
    std::shared_ptr<const DfaCompilation> cached = cache->GetDfa(key);
    if (cached != nullptr) {
      if (cached->program != nullptr) {
        ++node->stats.cache_hits;
        hits->Increment();
      } else {
        fallbacks->Increment();
      }
      return cached;
    }
    ++node->stats.cache_misses;
  }
  DfaCompilation fresh = DfaCompilation::Of(*node->fsa);
  if (fresh.program == nullptr) fallbacks->Increment();
  if (cache == nullptr) {
    return std::make_shared<const DfaCompilation>(std::move(fresh));
  }
  return cache->PutDfa(key, std::move(fresh), budget);
}

// Lowers the (rewritten) algebra AST to a physical-plan DAG.  Subtrees
// shared in the AST — including those unified by the CSE rewrite — lower
// to one PlanNode, which the executor evaluates once.
class Planner {
 public:
  // `ctx` supplies the database, the artifact cache and the estimates;
  // it must outlive the planner.
  Planner(const CostPlannerContext& ctx, const EvalOptions& options,
          bool enable_dfa)
      : ctx_(ctx), options_(options), enable_dfa_(enable_dfa) {}

  Result<std::shared_ptr<PlanNode>> Lower(const AlgebraExpr& e) {
    auto it = memo_.find(e.node_identity());
    if (it != memo_.end()) return it->second;
    STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> node, LowerNew(e));
    node->est_rows = EstimateRows(e, ctx_);
    memo_.emplace(e.node_identity(), node);
    return node;
  }

 private:
  Result<std::shared_ptr<PlanNode>> LowerNew(const AlgebraExpr& e) {
    auto node = std::make_shared<PlanNode>();
    node->arity = e.arity();
    switch (e.kind()) {
      case Kind::kRelation: {
        node->relation = e.relation_name();
        // A name absent from the catalog but present in the paged set is
        // a spilled relation: scan it out-of-core.
        if (options_.paged != nullptr && !ctx_.db->Has(node->relation)) {
          auto spilled = options_.paged->find(node->relation);
          if (spilled != options_.paged->end()) {
            if (spilled->second->arity() != node->arity) {
              return Status::InvalidArgument(
                  "relation '" + node->relation + "' has arity " +
                  std::to_string(spilled->second->arity()) +
                  ", expression expects " + std::to_string(node->arity));
            }
            node->op = Op::kPagedScan;
            node->source = spilled->second;
            return node;
          }
        }
        node->op = Op::kScan;
        return node;
      }
      case Kind::kSigmaStar:
        node->op = Op::kDomain;
        node->sigma_l = -1;
        return node;
      case Kind::kSigmaL:
        node->op = Op::kDomain;
        node->sigma_l = e.sigma_l();
        return node;
      case Kind::kUnion:
      case Kind::kDifference:
      case Kind::kProduct: {
        node->op = e.kind() == Kind::kUnion        ? Op::kUnion
                   : e.kind() == Kind::kDifference ? Op::kDifference
                                                   : Op::kProduct;
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> l, Lower(e.Left()));
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> r, Lower(e.Right()));
        node->children = {std::move(l), std::move(r)};
        return node;
      }
      case Kind::kProject: {
        node->op = Op::kProject;
        node->columns = e.columns();
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(e.Left()));
        node->children = {std::move(c)};
        return node;
      }
      case Kind::kRestrict: {
        node->op = Op::kRestrict;
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(e.Left()));
        node->children = {std::move(c)};
        return node;
      }
      case Kind::kSelect:
        return LowerSelect(e, std::move(node));
    }
    return Status::Internal("unknown algebra node kind");
  }

  Result<std::shared_ptr<PlanNode>> LowerSelect(const AlgebraExpr& e,
                                                std::shared_ptr<PlanNode> node) {
    node->fsa = e.shared_fsa();
    node->fsa_key = ArtifactCache::FsaKey(*node->fsa);
    std::vector<AlgebraExpr> factors;
    FlattenProduct(e.Left(), &factors);
    if (!IsGenerateSelect(e)) {
      // Plain filtering: evaluate the child (Σ* becomes Σ^l) and keep
      // the accepted tuples — same semantics as the naïve evaluator.
      node->op = Op::kFilterSelect;
      const bool has_star =
          std::any_of(factors.begin(), factors.end(), [](const AlgebraExpr& f) {
            return f.kind() == Kind::kSigmaStar;
          });
      if (!has_star && e.Left().kind() == Kind::kProduct && enable_dfa_) {
        // σ_A(L × R) whose DFA proves a column of L equal to a column
        // of R runs as a hash join; σ_A still checks every match.  A
        // failed lookup only forgoes the join: execution repeats it
        // and surfaces the error there.
        Result<std::shared_ptr<const DfaCompilation>> dfa =
            LookupDfa(node.get(), ctx_.cache, options_.budget);
        if (dfa.ok()) {
          node->dfa = *std::move(dfa);
          const int split = e.Left().Left().arity();
          for (const auto& [i, j] : node->dfa->equal_tapes) {
            if (i < split && j >= split) node->join_keys.emplace_back(i, j);
          }
        }
      }
      if (!node->join_keys.empty()) {
        node->op = Op::kHashJoin;
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> l,
                               Lower(e.Left().Left()));
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> r,
                               Lower(e.Left().Right()));
        node->children = {std::move(l), std::move(r)};
        return node;
      }
      STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(e.Left()));
      node->children = {std::move(c)};
      return node;
    }
    // σ_A(F1×…×Fm×(Σ*)^n): materialise the non-Σ* factors and run the
    // automaton as a generator over the free columns.
    node->op = Op::kGenerateSelect;
    int offset = 0;
    for (const AlgebraExpr& f : factors) {
      if (f.kind() == Kind::kSigmaStar) {
        node->free_columns.push_back(offset);
      } else {
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(f));
        node->factor_offsets.push_back(offset);
        node->children.push_back(std::move(c));
      }
      offset += f.arity();
    }
    return node;
  }

  const CostPlannerContext& ctx_;  // ctx_.cache: nullptr = no caching
  const EvalOptions& options_;
  const bool enable_dfa_;  // the DFA tier, whose artifact licenses joins
  std::unordered_map<const AlgebraExpr::Node*, std::shared_ptr<PlanNode>>
      memo_;
};

// Runs a plan DAG.  Holds one result per PlanNode (evaluate-once for
// shared subtrees); Eval returns pointers into the memo, which is
// node-based and therefore stable across inserts.
class Executor {
 public:
  Executor(const Database& db, const EvalOptions& options,
           const EngineOptions& engine_options, ArtifactCache* cache,
           ThreadPool* pool)
      : db_(db),
        options_(options),
        engine_options_(engine_options),
        cache_(cache),
        pool_(pool) {}

  Result<const StringRelation*> Eval(PlanNode* node) {
    auto it = memo_.find(node);
    if (it != memo_.end()) {
      ++node->stats.memo_hits;
      return &it->second;
    }
    if (options_.budget != nullptr) {
      STRDB_RETURN_IF_ERROR(options_.budget->CheckDeadline());
    }
    Clock::time_point start = Clock::now();
    STRDB_ASSIGN_OR_RETURN(StringRelation out, Compute(node));
    node->stats.wall_ns += ElapsedNs(start);
    node->stats.tuples_out = out.size();
    if (options_.budget != nullptr) {
      // Rows are charged per operator: a memo hit reuses the same
      // materialisation, so only fresh rows count against the budget.
      STRDB_RETURN_IF_ERROR(options_.budget->ChargeRows(out.size()));
    }
    auto inserted = memo_.emplace(node, std::move(out));
    return &inserted.first->second;
  }

 private:
  Result<StringRelation> CheckSize(StringRelation rel) const {
    if (rel.size() > options_.max_tuples) {
      return Status::ResourceExhausted("intermediate relation exceeds " +
                                       std::to_string(options_.max_tuples) +
                                       " tuples");
    }
    return rel;
  }

  Result<StringRelation> Compute(PlanNode* node) {
    switch (node->op) {
      case Op::kScan: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* rel,
                               db_.Get(node->relation));
        if (rel->arity() != node->arity) {
          return Status::InvalidArgument(
              "relation '" + node->relation + "' has arity " +
              std::to_string(rel->arity()) + ", expression expects " +
              std::to_string(node->arity));
        }
        return *rel;
      }
      case Op::kPagedScan: {
        // Generic parents need the relation resident; only a FilterSelect
        // parent streams (it intercepts before Eval reaches here).
        if (node->source == nullptr) {
          return Status::Internal("paged-scan node without a tuple source");
        }
        STRDB_ASSIGN_OR_RETURN(StringRelation out, node->source->Materialize());
        return CheckSize(std::move(out));
      }
      case Op::kDomain: {
        int l = node->sigma_l < 0 ? options_.truncation : node->sigma_l;
        StringRelation out(1);
        for (std::string& s : db_.alphabet().StringsUpTo(l)) {
          STRDB_RETURN_IF_ERROR(out.Insert({std::move(s)}));
        }
        return CheckSize(std::move(out));
      }
      case Op::kUnion: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* a,
                               Eval(node->children[0].get()));
        STRDB_ASSIGN_OR_RETURN(const StringRelation* b,
                               Eval(node->children[1].get()));
        node->stats.tuples_in = a->size() + b->size();
        StringRelation out = *a;
        for (const Tuple& t : b->tuples()) {
          STRDB_RETURN_IF_ERROR(out.Insert(t));
        }
        return CheckSize(std::move(out));
      }
      case Op::kDifference: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* a,
                               Eval(node->children[0].get()));
        STRDB_ASSIGN_OR_RETURN(const StringRelation* b,
                               Eval(node->children[1].get()));
        node->stats.tuples_in = a->size() + b->size();
        StringRelation out(a->arity());
        for (const Tuple& t : a->tuples()) {
          if (!b->Contains(t)) {
            STRDB_RETURN_IF_ERROR(out.Insert(t));
          }
        }
        return out;
      }
      case Op::kProduct: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* a,
                               Eval(node->children[0].get()));
        STRDB_ASSIGN_OR_RETURN(const StringRelation* b,
                               Eval(node->children[1].get()));
        node->stats.tuples_in = a->size() + b->size();
        StringRelation out(a->arity() + b->arity());
        for (const Tuple& ta : a->tuples()) {
          for (const Tuple& tb : b->tuples()) {
            Tuple t = ta;
            t.insert(t.end(), tb.begin(), tb.end());
            STRDB_RETURN_IF_ERROR(out.Insert(std::move(t)));
          }
          if (out.size() > options_.max_tuples) {
            return Status::ResourceExhausted("product exceeds max_tuples");
          }
          // A product can run long with no σ above it to charge steps.
          if (options_.budget != nullptr) {
            STRDB_RETURN_IF_ERROR(options_.budget->CheckDeadline());
          }
        }
        return out;
      }
      case Op::kProject: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* child,
                               Eval(node->children[0].get()));
        node->stats.tuples_in = child->size();
        StringRelation out(node->arity);
        for (const Tuple& t : child->tuples()) {
          Tuple proj;
          proj.reserve(node->columns.size());
          for (int c : node->columns) {
            proj.push_back(t[static_cast<size_t>(c)]);
          }
          STRDB_RETURN_IF_ERROR(out.Insert(std::move(proj)));
        }
        return out;
      }
      case Op::kRestrict: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* child,
                               Eval(node->children[0].get()));
        node->stats.tuples_in = child->size();
        return child->TruncatedTo(options_.truncation);
      }
      case Op::kFilterSelect:
        return FilterSelect(node);
      case Op::kHashJoin:
        return HashJoin(node);
      case Op::kGenerateSelect:
        return GenerateSelect(node);
    }
    return Status::Internal("unknown plan operator");
  }

  // Fetches (or compiles) the acceptance kernel for `node`'s automaton.
  // Returns nullptr when max_tier is below it or it does not compile, in
  // which case the caller falls back to the reference BFS.
  Result<std::shared_ptr<const AcceptKernel>> KernelFor(PlanNode* node) {
    if (engine_options_.max_tier < AcceptTier::kKernel) {
      return std::shared_ptr<const AcceptKernel>();
    }
    if (cache_ != nullptr) {
      std::string key = node->fsa_key + "\n|kernel";
      std::shared_ptr<const AcceptKernel> kernel = cache_->GetKernel(key);
      if (kernel != nullptr) {
        ++node->stats.cache_hits;
        return kernel;
      }
      ++node->stats.cache_misses;
      Result<AcceptKernel> compiled = AcceptKernel::Compile(*node->fsa);
      if (!compiled.ok()) return std::shared_ptr<const AcceptKernel>();
      return cache_->PutKernel(key, std::move(compiled).value(),
                               options_.budget);
    }
    Result<AcceptKernel> compiled = AcceptKernel::Compile(*node->fsa);
    if (!compiled.ok()) return std::shared_ptr<const AcceptKernel>();
    return std::make_shared<const AcceptKernel>(std::move(compiled).value());
  }

  // σ_A's acceptance tier, resolved once per σ: the DFA program when
  // max_tier allows it and it admits the machine, else the kernel when
  // max_tier allows it and it compiles, else neither (the reference BFS).
  struct Tier {
    std::shared_ptr<const DfaProgram> dfa;
    std::shared_ptr<const AcceptKernel> kernel;
  };

  Result<Tier> TierFor(PlanNode* node) {
    Tier tier;
    if (engine_options_.max_tier == AcceptTier::kDfa) {
      // Planning may already have looked the artifact up.
      if (node->dfa == nullptr) {
        STRDB_ASSIGN_OR_RETURN(node->dfa,
                               LookupDfa(node, cache_, options_.budget));
      }
      tier.dfa = node->dfa->program;
    }
    if (tier.dfa == nullptr) {
      STRDB_ASSIGN_OR_RETURN(tier.kernel, KernelFor(node));
    }
    return tier;
  }

  Result<StringRelation> FilterSelect(PlanNode* node) {
    PlanNode* child_node = node->children[0].get();
    if (child_node->op == Op::kPagedScan && engine_options_.enable_paged &&
        child_node->source != nullptr &&
        memo_.find(child_node) == memo_.end()) {
      return StreamFilterSelect(node, child_node);
    }
    STRDB_ASSIGN_OR_RETURN(const StringRelation* child, Eval(child_node));
    node->stats.tuples_in = child->size();
    std::vector<const Tuple*> tuples;
    tuples.reserve(static_cast<size_t>(child->size()));
    for (const Tuple& t : child->tuples()) tuples.push_back(&t);
    STRDB_ASSIGN_OR_RETURN(Tier tier, TierFor(node));
    StringRelation out(node->arity);
    STRDB_RETURN_IF_ERROR(AcceptTuples(node, tier, tuples, &out));
    return out;
  }

  // σ_A(L × R) as an equi-join: hash the smaller input on its key
  // columns, probe with the other, and run σ_A over the matches in L‖R
  // column order.  The keys only prefilter — σ_A decides every answer —
  // so the result is exact whenever ImpliedEqualTapes is sound.
  Result<StringRelation> HashJoin(PlanNode* node) {
    static Counter* const joins =
        MetricsRegistry::Global().GetCounter("engine.hash_joins");
    joins->Increment();
    STRDB_ASSIGN_OR_RETURN(const StringRelation* l,
                           Eval(node->children[0].get()));
    STRDB_ASSIGN_OR_RETURN(const StringRelation* r,
                           Eval(node->children[1].get()));
    node->stats.tuples_in = l->size() + r->size();
    // Key columns of each side, in key order (R's are local to R).
    std::vector<size_t> l_cols, r_cols;
    for (const auto& [i, j] : node->join_keys) {
      l_cols.push_back(static_cast<size_t>(i));
      r_cols.push_back(static_cast<size_t>(j - l->arity()));
    }
    const bool build_left = l->size() <= r->size();
    const StringRelation& build = build_left ? *l : *r;
    const StringRelation& probe = build_left ? *r : *l;
    const std::vector<size_t>& build_cols = build_left ? l_cols : r_cols;
    const std::vector<size_t>& probe_cols = build_left ? r_cols : l_cols;
    auto key_hash = [](const Tuple& t, const std::vector<size_t>& cols) {
      size_t h = 0;
      for (size_t c : cols) {
        h ^= std::hash<std::string>{}(t[c]) + 0x9e3779b97f4a7c15ull +
             (h << 6) + (h >> 2);
      }
      return h;
    };
    std::unordered_multimap<size_t, const Tuple*> table;
    table.reserve(static_cast<size_t>(build.size()));
    for (const Tuple& t : build.tuples()) {
      table.emplace(key_hash(t, build_cols), &t);
    }
    std::vector<Tuple> matches;
    for (const Tuple& p : probe.tuples()) {
      auto [begin, end] = table.equal_range(key_hash(p, probe_cols));
      for (auto it = begin; it != end; ++it) {
        const Tuple& b = *it->second;
        bool equal = true;
        for (size_t k = 0; k < build_cols.size() && equal; ++k) {
          equal = b[build_cols[k]] == p[probe_cols[k]];
        }
        if (!equal) continue;
        Tuple joined = build_left ? b : p;
        const Tuple& tail = build_left ? p : b;
        joined.insert(joined.end(), tail.begin(), tail.end());
        matches.push_back(std::move(joined));
      }
      if (static_cast<int64_t>(matches.size()) > options_.max_tuples) {
        return Status::ResourceExhausted("join exceeds max_tuples");
      }
      if (options_.budget != nullptr) {
        STRDB_RETURN_IF_ERROR(options_.budget->CheckDeadline());
      }
    }
    if (options_.budget != nullptr) {
      // The matches are materialised like a product's rows.
      STRDB_RETURN_IF_ERROR(options_.budget->ChargeRows(
          static_cast<int64_t>(matches.size())));
    }
    std::vector<const Tuple*> tuples;
    tuples.reserve(matches.size());
    for (const Tuple& t : matches) tuples.push_back(&t);
    STRDB_ASSIGN_OR_RETURN(Tier tier, TierFor(node));
    StringRelation out(node->arity);
    STRDB_RETURN_IF_ERROR(AcceptTuples(node, tier, tuples, &out));
    return out;
  }

  // Runs σ_A over `tuples` through `tier` and appends the accepted ones
  // to `out`, in input order.  The one σ driver: filters, hash joins and
  // streamed scans all decide acceptance here.  A batch of at least
  // parallel_threshold tuples is split across the pool; the DFA tier
  // runs each chunk as one AcceptBatch, the kernel and the BFS decide
  // tuple by tuple.
  Status AcceptTuples(PlanNode* node, const Tier& tier,
                      const std::vector<const Tuple*>& tuples,
                      StringRelation* out) {
    const int64_t n = static_cast<int64_t>(tuples.size());
    std::vector<char> accepted(tuples.size(), 0);
    std::vector<int64_t> steps(tuples.size(), 0);
    std::vector<Status> errors(tuples.size());
    const Fsa& fsa = *node->fsa;
    AcceptOptions accept_opts;
    accept_opts.budget = options_.budget;  // shared account; charging is atomic
    auto check_range = [&](int64_t begin, int64_t end) {
      // One scratch per pool thread, reused across chunks, batches and
      // queries: the warm path allocates nothing per tuple.
      thread_local AcceptScratch scratch;
      thread_local DfaScratch dfa_scratch;
      if (tier.dfa != nullptr) {
        if (begin >= end) return;
        std::vector<const Tuple*> slice(
            tuples.begin() + static_cast<ptrdiff_t>(begin),
            tuples.begin() + static_cast<ptrdiff_t>(end));
        DfaBatchResult res =
            AcceptBatch(*tier.dfa, slice, &dfa_scratch, accept_opts);
        for (size_t j = 0; j < slice.size(); ++j) {
          const size_t i = static_cast<size_t>(begin) + j;
          errors[i] = std::move(res.statuses[j]);
          accepted[i] = res.accepted[j];
        }
        // The batch reports aggregate chain steps; park them on the
        // chunk's first slot so the input-order merge sums correctly.
        steps[static_cast<size_t>(begin)] = res.configurations_visited;
        return;
      }
      for (int64_t i = begin; i < end; ++i) {
        const Tuple& t = *tuples[static_cast<size_t>(i)];
        Result<AcceptStats> res =
            tier.kernel != nullptr
                ? scratch.Accept(*tier.kernel, t, accept_opts)
                : AcceptsWithStats(fsa, t, accept_opts);
        if (!res.ok()) {
          errors[static_cast<size_t>(i)] = res.status();
          continue;
        }
        accepted[static_cast<size_t>(i)] = res->accepted ? 1 : 0;
        steps[static_cast<size_t>(i)] = res->configurations_visited;
      }
    };
    if (pool_->num_threads() > 1 && n >= engine_options_.parallel_threshold) {
      pool_->ParallelFor(n, check_range);
    } else {
      check_range(0, n);
    }
    // Merge in input order: the result (and the first error surfaced) is
    // the same no matter how the chunks were scheduled.
    for (size_t i = 0; i < tuples.size(); ++i) {
      STRDB_RETURN_IF_ERROR(errors[i]);
      node->stats.fsa_steps += steps[i];
      if (accepted[i]) {
        STRDB_RETURN_IF_ERROR(out->Insert(*tuples[i]));
      }
    }
    return Status::OK();
  }

  // σ_A over a spilled relation: pump the heap's decoded batches through
  // AcceptTuples and keep only survivors, so the input relation is never
  // resident — peak memory is the buffer-pool cap plus one batch plus the
  // (filtered) output.  Same verdicts as the materialise-then-filter
  // path; only where budget errors surface can differ.
  Result<StringRelation> StreamFilterSelect(PlanNode* node, PlanNode* child) {
    Clock::time_point child_start = Clock::now();
    STRDB_ASSIGN_OR_RETURN(Tier tier, TierFor(node));
    StringRelation out(node->arity);
    std::vector<const Tuple*> tuples;
    STRDB_RETURN_IF_ERROR(child->source->Scan(
        [&](const std::vector<Tuple>& batch) -> Status {
          int64_t n = static_cast<int64_t>(batch.size());
          node->stats.tuples_in += n;
          child->stats.tuples_out += n;
          if (options_.budget != nullptr) {
            // Scanned rows are charged as the child materialisation
            // would have been, so the flag changes memory, not cost.
            STRDB_RETURN_IF_ERROR(options_.budget->ChargeRows(n));
          }
          tuples.clear();
          for (const Tuple& t : batch) tuples.push_back(&t);
          STRDB_RETURN_IF_ERROR(AcceptTuples(node, tier, tuples, &out));
          if (out.size() > options_.max_tuples) {
            return Status::ResourceExhausted("selection exceeds " +
                                             std::to_string(options_.max_tuples) +
                                             " tuples");
          }
          return Status::OK();
        }));
    child->stats.wall_ns += ElapsedNs(child_start);
    return out;
  }

  Result<StringRelation> GenerateSelect(PlanNode* node) {
    std::vector<const std::set<Tuple>*> sets;
    for (const auto& child : node->children) {
      STRDB_ASSIGN_OR_RETURN(const StringRelation* rel, Eval(child.get()));
      node->stats.tuples_in += rel->size();
      sets.push_back(&rel->tuples());
    }
    StringRelation out(node->arity);
    for (const std::set<Tuple>* s : sets) {
      if (s->empty()) return out;  // empty product
    }
    GenerateOptions gen_opts;
    gen_opts.max_len = options_.truncation;
    gen_opts.max_steps = options_.max_steps;
    gen_opts.max_results = options_.max_tuples;
    gen_opts.budget = options_.budget;

    std::vector<std::set<Tuple>::const_iterator> iters;
    for (const std::set<Tuple>* s : sets) iters.push_back(s->begin());
    for (;;) {
      std::vector<std::optional<std::string>> fixed(
          static_cast<size_t>(node->arity), std::nullopt);
      for (size_t fi = 0; fi < iters.size(); ++fi) {
        const Tuple& t = *iters[fi];
        for (size_t c = 0; c < t.size(); ++c) {
          fixed[static_cast<size_t>(node->factor_offsets[fi]) + c] = t[c];
        }
      }
      STRDB_RETURN_IF_ERROR(GenerateCombo(node, fixed, gen_opts, &out));
      if (out.size() > options_.max_tuples) {
        return Status::ResourceExhausted("selection exceeds max_tuples");
      }
      size_t d = 0;
      for (; d < iters.size(); ++d) {
        if (++iters[d] != sets[d]->end()) break;
        iters[d] = sets[d]->begin();
      }
      if (d == iters.size()) break;
    }
    return out;
  }

  // One odometer step of a generate-select: generates the free-column
  // strings for the given fixed pattern and merges the full tuples into
  // `out`.  With the cache on, the automaton is specialised one fixed
  // column at a time so a shared (column, value) prefix across combos is
  // built once, and the final bounded generation is memoised too.
  Status GenerateCombo(PlanNode* node,
                       const std::vector<std::optional<std::string>>& fixed,
                       const GenerateOptions& gen_opts, StringRelation* out) {
    ArtifactCache::GeneratedSet computed;
    std::shared_ptr<const ArtifactCache::GeneratedSet> cached;
    const ArtifactCache::GeneratedSet* generated = nullptr;
    if (cache_ != nullptr) {
      std::string key = node->fsa_key;
      std::shared_ptr<const Fsa> machine = node->fsa;
      int already_fixed = 0;
      for (size_t col = 0; col < fixed.size(); ++col) {
        if (!fixed[col].has_value()) continue;
        // In the current (partially specialised) machine, original
        // column `col` is tape col - #columns fixed before it.
        int tape = static_cast<int>(col) - already_fixed;
        bool hit = false;
        STRDB_ASSIGN_OR_RETURN(
            machine,
            cache_->GetSpecialized(key, *machine, tape, *fixed[col], &key,
                                   &hit, options_.budget));
        ++(hit ? node->stats.cache_hits : node->stats.cache_misses);
        ++already_fixed;
      }
      std::string gen_key = key + "|g" + std::to_string(gen_opts.max_len);
      cached = cache_->GetGenerated(gen_key);
      if (cached != nullptr) {
        ++node->stats.cache_hits;
        generated = cached.get();
      } else {
        ++node->stats.cache_misses;
        STRDB_ASSIGN_OR_RETURN(computed, EnumerateLanguage(*machine, gen_opts));
        // The returned pointer keeps the set alive even if the LRU
        // evicts it immediately (it may exceed the remaining headroom).
        STRDB_ASSIGN_OR_RETURN(
            cached, cache_->PutGenerated(gen_key, std::move(computed),
                                         options_.budget));
        generated = cached.get();
      }
    } else {
      STRDB_ASSIGN_OR_RETURN(computed,
                             GenerateAccepted(*node->fsa, fixed, gen_opts));
      generated = &computed;
    }
    for (const std::vector<std::string>& frees : *generated) {
      Tuple full(static_cast<size_t>(node->arity));
      for (size_t c = 0; c < full.size(); ++c) {
        if (fixed[c].has_value()) full[c] = *fixed[c];
      }
      for (size_t fc = 0; fc < node->free_columns.size(); ++fc) {
        full[static_cast<size_t>(node->free_columns[fc])] = frees[fc];
      }
      STRDB_RETURN_IF_ERROR(out->Insert(std::move(full)));
    }
    return Status::OK();
  }

  const Database& db_;
  const EvalOptions& options_;
  const EngineOptions& engine_options_;
  ArtifactCache* cache_;  // nullptr = caching disabled
  ThreadPool* pool_;
  std::unordered_map<const PlanNode*, StringRelation> memo_;
};

void SumStats(const PlanNode& node, std::set<const PlanNode*>* seen,
              ExecStats* stats) {
  if (!seen->insert(&node).second) return;
  stats->cache_hits += node.stats.cache_hits;
  stats->cache_misses += node.stats.cache_misses;
  stats->fsa_steps += node.stats.fsa_steps;
  stats->memo_hits += node.stats.memo_hits;
  stats->operators.push_back(
      {node.OpName(), node.est_rows, node.stats.tuples_out});
  for (const auto& child : node.children) SumStats(*child, seen, stats);
}

// Feeds each σ_A operator's observed selectivity (a generate-select's
// fan-out) back to the engine's correction table — the adaptive loop
// that shrinks systematic model error on repeated machines.  Nodes that
// never saw input carry no signal and are skipped.
void RecordSelectivities(const PlanNode& node,
                         std::set<const PlanNode*>* seen,
                         SelectivityFeedback* feedback) {
  if (!seen->insert(&node).second) return;
  if (node.op == Op::kFilterSelect && node.stats.tuples_in > 0) {
    feedback->Record(node.fsa_key,
                     static_cast<double>(node.stats.tuples_out) /
                         static_cast<double>(node.stats.tuples_in));
  } else if (node.op == Op::kHashJoin && node.stats.tuples_in > 0) {
    // Relative to |L|·|R|, as the filter over L × R it replaces would
    // observe it: the quantity the cost model estimates.
    const double product =
        static_cast<double>(node.children[0]->stats.tuples_out) *
        static_cast<double>(node.children[1]->stats.tuples_out);
    if (product > 0) {
      feedback->Record(node.fsa_key,
                       static_cast<double>(node.stats.tuples_out) / product);
    }
  } else if (node.op == Op::kGenerateSelect && node.stats.tuples_in > 0) {
    // Answers per combination of the non-Σ* factors' tuples.
    double combos = 1;
    for (const auto& child : node.children) {
      combos *= static_cast<double>(child->stats.tuples_out);
    }
    if (combos > 0) {
      feedback->Record(GenerateFanoutKey(node.fsa_key),
                       static_cast<double>(node.stats.tuples_out) / combos);
    }
  }
  for (const auto& child : node.children) {
    RecordSelectivities(*child, seen, feedback);
  }
}

// Fills `stats` from the executed (possibly partially executed) plan and
// the query's budget account.  Called on success and failure alike.
void FillStats(const PlanNode& root, const EvalOptions& options,
               int64_t wall_ns, int64_t rows_out, ExecStats* stats) {
  stats->wall_ns = wall_ns;
  stats->cache_hits = 0;
  stats->cache_misses = 0;
  stats->fsa_steps = 0;
  stats->memo_hits = 0;
  stats->rows_out = rows_out;
  stats->operators.clear();
  std::set<const PlanNode*> seen;
  SumStats(root, &seen, stats);
  if (options.budget != nullptr) {
    stats->budget_steps_used = options.budget->steps_used();
    stats->budget_rows_used = options.budget->rows_used();
    stats->budget_cached_bytes_used = options.budget->cached_bytes_used();
  }
  stats->plan = ExplainPlan(root, /*with_stats=*/true);
}

// Engine-wide instruments, resolved once.
struct EngineMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* queries = reg.GetCounter("engine.queries");
  Counter* failures = reg.GetCounter("engine.query_failures");
  Counter* exhausted = reg.GetCounter("engine.budget_exhausted");
  Histogram* wall_us = reg.GetHistogram("engine.query_wall_us");
  Histogram* rows = reg.GetHistogram("engine.query_rows");

  static EngineMetrics& Get() {
    static EngineMetrics* m = new EngineMetrics();
    return *m;
  }
};

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(options.cache_max_bytes),
      pool_(options.num_threads) {}

Result<std::shared_ptr<PlanNode>> Engine::Plan(const AlgebraExpr& expr,
                                               const Database& db,
                                               const EvalOptions& options) {
  CostPlannerContext cost_ctx;
  cost_ctx.db = &db;
  cost_ctx.paged = options.paged;
  cost_ctx.stored_stats = options.stats;
  cost_ctx.stats = &stats_catalog_;
  cost_ctx.feedback = &feedback_;
  cost_ctx.densities = &densities_;
  cost_ctx.cache = options_.enable_cache ? &cache_ : nullptr;
  cost_ctx.truncation = options.truncation;
  AlgebraExpr target = expr;
  if (options_.enable_rewrites) {
    STRDB_ASSIGN_OR_RETURN(target,
                           RewriteExpr(expr, cost_ctx, options_.rewrites));
  }
  Planner planner(cost_ctx, options, options_.max_tier == AcceptTier::kDfa);
  return planner.Lower(target);
}

Result<StringRelation> Engine::Execute(const AlgebraExpr& expr,
                                       const Database& db,
                                       const EvalOptions& options,
                                       ExecStats* stats) {
  EngineMetrics& metrics = EngineMetrics::Get();
  Clock::time_point start = Clock::now();
  metrics.queries->Increment();
  STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> root,
                         Plan(expr, db, options));
  Executor executor(db, options, options_,
                    options_.enable_cache ? &cache_ : nullptr, &pool_);
  Result<const StringRelation*> result = executor.Eval(root.get());
  int64_t wall_ns = ElapsedNs(start);
  metrics.wall_us->Record(wall_ns / 1000);
  if (!result.ok()) {
    // The plan nodes keep whatever counters the partial run accumulated,
    // so a budget-exhausted query is still fully observable.
    metrics.failures->Increment();
    if (result.status().code() == StatusCode::kResourceExhausted) {
      metrics.exhausted->Increment();
    }
    if (stats != nullptr) {
      FillStats(*root, options, wall_ns, /*rows_out=*/0, stats);
    }
    return result.status();
  }
  // Only a finished run teaches selectivities: an operator cut short
  // by the budget has seen its input but not produced all its output.
  std::set<const PlanNode*> seen;
  RecordSelectivities(*root, &seen, &feedback_);
  StringRelation out = **result;
  metrics.rows->Record(out.size());
  if (stats != nullptr) {
    FillStats(*root, options, wall_ns, out.size(), stats);
  }
  return out;
}

Result<std::string> Engine::Explain(const AlgebraExpr& expr,
                                    const Database& db,
                                    const EvalOptions& options) {
  STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> root,
                         Plan(expr, db, options));
  return ExplainPlan(*root, /*with_stats=*/false);
}

Engine& Engine::Shared() {
  // Leaked intentionally: the pool's worker threads must not be joined
  // during static destruction.
  static Engine* shared = new Engine();
  return *shared;
}

}  // namespace strdb
