#ifndef STRDB_ENGINE_STATS_H_
#define STRDB_ENGINE_STATS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "relational/relation.h"
#include "relational/stats.h"

namespace strdb {

// Epoch-keyed cache of per-relation statistics.  The planner asks for a
// relation's summary on every query; recomputation scans the relation,
// so results are cached against the Database's mutation epoch (see
// Database::stats_epoch) and recomputed only after an actual mutation.
// One process-wide instance serves unrelated databases: epochs are
// globally unique per mutation, so a name collision merely evicts.
// Thread safe.
class StatsCatalog {
 public:
  // Statistics for `db`'s relation `name`; nullptr when the relation is
  // not in the database (paged relations live in the persisted StatsMap
  // instead).
  std::shared_ptr<const RelationStats> Get(const Database& db,
                                           const std::string& name);

  int64_t size() const;
  void Clear();

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::shared_ptr<const RelationStats> stats;
  };

  static constexpr int64_t kMaxEntries = 4096;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> cache_;
};

// Adaptive correction factors: after every execution the engine records
// each σ_A operator's observed ratio against the automaton's structural
// key — a filter's selectivity (rows out / rows in, at most 1), or a
// generator's fan-out (rows out per input combination, under its own
// key, may exceed 1) — and the planner blends the EWMA into its model
// estimate, so systematic model error decays within a few queries of
// the same machine.  Thread safe.
class SelectivityFeedback {
 public:
  static constexpr double kAlpha = 0.3;   // EWMA step
  static constexpr double kBlend = 0.7;   // weight of feedback vs model

  void Record(const std::string& fsa_key, double observed);
  bool Lookup(const std::string& fsa_key, double* out) const;

  // Blends a model estimate with whatever feedback exists for the key.
  double Corrected(const std::string& fsa_key, double model_estimate) const;

  int64_t size() const;
  void Clear();

 private:
  static constexpr int64_t kMaxEntries = 8192;

  mutable std::mutex mu_;
  std::unordered_map<std::string, double> ewma_;
};

// Memo for acceptance-density results: the subset construction plus the
// density walk cost real time, and a hot automaton is re-planned with
// every query, so densities are cached on (fsa key, quantised column
// model).  Thread safe.
class DensityCache {
 public:
  bool Lookup(const std::string& key, double* out) const;
  void Insert(const std::string& key, double density);
  void Clear();

 private:
  static constexpr int64_t kMaxEntries = 8192;

  mutable std::mutex mu_;
  std::unordered_map<std::string, double> cache_;
};

}  // namespace strdb

#endif  // STRDB_ENGINE_STATS_H_
