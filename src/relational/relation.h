#ifndef STRDB_RELATIONAL_RELATION_H_
#define STRDB_RELATIONAL_RELATION_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "core/result.h"

namespace strdb {

// A tuple of strings.
using Tuple = std::vector<std::string>;

// A finite relation over Σ*: a finite subset of (Σ*)^arity (paper §2).
// Arity 0 is allowed: the empty relation ∅ and the full relation {()}
// play the role of boolean query results (§4).
class StringRelation {
 public:
  explicit StringRelation(int arity) : arity_(arity) {}

  static Result<StringRelation> Create(int arity,
                                       std::vector<Tuple> tuples);

  int arity() const { return arity_; }
  int64_t size() const { return static_cast<int64_t>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  Status Insert(Tuple tuple);
  bool Contains(const Tuple& tuple) const { return tuples_.count(tuple) > 0; }

  const std::set<Tuple>& tuples() const { return tuples_; }

  // Length of the longest string in the relation (the paper's
  // max(R, db), Eq. (2)); 0 for empty relations.
  int MaxStringLength() const;

  // Restriction to tuples whose components all have length <= l (the
  // ⟦·⟧^l truncation semantics keep only such tuples).
  StringRelation TruncatedTo(int l) const;

  bool operator==(const StringRelation& other) const {
    return arity_ == other.arity_ && tuples_ == other.tuples_;
  }

  std::string ToString() const;

 private:
  int arity_;
  std::set<Tuple> tuples_;
};

// A database db: a mapping from relation names to finite string
// relations (paper §2), with a fixed alphabet all strings must use.
class Database {
 public:
  explicit Database(Alphabet alphabet) : alphabet_(std::move(alphabet)) {}

  const Alphabet& alphabet() const { return alphabet_; }

  // Defines or replaces relation `name`.  Every string must be over the
  // database alphabet.
  Status Put(const std::string& name, StringRelation relation);

  // Convenience: define from a tuple list.
  Status Put(const std::string& name, int arity, std::vector<Tuple> tuples);

  // Adds tuples to an existing relation (kNotFound when it is missing;
  // arity and alphabet are checked as in Put).
  Status InsertTuples(const std::string& name, std::vector<Tuple> tuples);

  // The check Put and InsertTuples run on every tuple before mutating:
  // `t` has `arity` components, each over the database alphabet.  The
  // error text names relation `name`.
  Status CheckTuple(const std::string& name, int arity, const Tuple& t) const;

  // Drops relation `name`; kNotFound when it does not exist.
  Status Remove(const std::string& name);

  Result<const StringRelation*> Get(const std::string& name) const;
  bool Has(const std::string& name) const { return relations_.count(name) > 0; }

  // max over all relations of max(R, db); the quantity limit functions
  // depend on (§3, Definition 3.2 discussion).
  int MaxStringLength() const;

  const std::map<std::string, StringRelation>& relations() const {
    return relations_;
  }

  // Mutation epoch of relation `name`: a value drawn from a process-wide
  // monotone counter every time Put/InsertTuples touches the relation
  // (0 when the relation is absent).  Copies of a Database keep their
  // epochs, so derived artifacts cached on (name, epoch) — the planner's
  // statistics — stay valid across copy-on-write snapshots and only
  // recompute after an actual mutation.
  uint64_t stats_epoch(const std::string& name) const;

 private:
  Alphabet alphabet_;
  std::map<std::string, StringRelation> relations_;
  std::map<std::string, uint64_t> epochs_;
};

}  // namespace strdb

#endif  // STRDB_RELATIONAL_RELATION_H_
