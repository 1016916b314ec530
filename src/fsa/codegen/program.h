#ifndef STRDB_FSA_CODEGEN_PROGRAM_H_
#define STRDB_FSA_CODEGEN_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/alphabet.h"
#include "core/budget.h"
#include "core/result.h"
#include "fsa/accept.h"
#include "fsa/dfa/dfa.h"
#include "fsa/fsa.h"

namespace strdb {

// The compiled form of a determinised one-way product automaton
// (fsa/dfa): the DFA's dense rows plus a per-state halt flag, run by
// one interpreter, AcceptBatch.  Each dispatch round advances up to 64
// tuples ("lanes") at once, structure-of-arrays: per lane it folds the
// read key from the tapes' rank rows, loads the (state, key) row and
// applies the packed move mask to every head.  No per-transition
// matching happens at all.  Finished lanes retire and refill from the
// pending tuples.  The lane loop is portable C++; no build enables
// vector intrinsics.
//
// Error contract matches the kernel and the reference BFS:
// kInvalidArgument on arity/alphabet mismatch, kResourceExhausted when
// the budget runs out or the Π(|w_i|+2)·|Q| guard overflows int64 (the
// chain never materialises that space, but parity with the other tiers
// keeps differential sweeps three-way comparable).  Step statistics
// count chain steps, which differ from BFS statistics by design.
//
// Immutable after Compile; safe to share across threads.  Mutable run
// state lives in a caller-owned DfaScratch (one per thread).
class DfaProgram {
 public:
  // Determinise + minimise + lower.  Refusals are typed (see BuildDfa):
  // kUnimplemented for two-way machines or nondeterministic head
  // schedules, kResourceExhausted past the subset/byte caps.
  static Result<DfaProgram> Compile(const Fsa& fsa,
                                    const DfaBuildOptions& options = {});
  // Lowers an already built DFA (the second half of Compile).
  static Result<DfaProgram> Lower(Dfa dfa);

  int num_tapes() const { return k_; }
  int num_states() const { return num_states_; }
  int32_t num_keys() const { return num_keys_; }
  const Alphabet& alphabet() const { return alphabet_; }
  const DfaBuildStats& build_stats() const { return stats_; }

  // Estimated resident bytes, for ArtifactCache accounting.
  int64_t MemoryCost() const;

 private:
  DfaProgram() : alphabet_(Alphabet::Binary()) {}

  friend struct DfaBatchRunner;

  Alphabet alphabet_;
  int k_ = 0;
  int32_t num_keys_ = 0;
  std::vector<int32_t> pow_;
  int16_t char_rank_[256];
  int source_states_ = 0;

  int num_states_ = 0;
  int32_t start_ = 0;
  int32_t accept_ = 0;
  int32_t dead_ = 0;
  std::vector<uint32_t> rows_;  // (move_mask << 24) | next, state-major
  std::vector<uint8_t> op_;     // per state: 1 = halt (accept or dead)
  DfaBuildStats stats_;
};

// The outcome of a compile attempt, cacheable either way: the engine
// caches refusals too, so an automaton that cannot determinise is
// classified once and every later query goes straight to the kernel.
struct DfaCompilation {
  std::shared_ptr<const DfaProgram> program;  // null on refusal
  Status failure;                             // why, when program is null
  // ImpliedEqualTapes of the DFA the program was lowered from: the tape
  // pairs every accepted tuple agrees on.  Empty on refusal.
  std::vector<std::pair<int, int>> equal_tapes;

  // Builds the DFA once, reads its tape equalities, then lowers it.
  static DfaCompilation Of(const Fsa& fsa);
};

// Reusable per-thread scratch for AcceptBatch: the batch's rank arena
// and the lane arrays.  Buffers grow on demand and are retained across
// batches.  Not thread safe.
class DfaScratch {
 public:
  DfaScratch() = default;
  DfaScratch(const DfaScratch&) = delete;
  DfaScratch& operator=(const DfaScratch&) = delete;

 private:
  friend struct DfaBatchRunner;

  // Every tuple's tapes as rank rows (⊢, chars, ⊣), back to back.
  std::vector<int32_t> arena_;
  std::vector<size_t> tuple_roff_;  // per (tuple, tape): arena offset

  // Lane state (structure-of-arrays, lane-major within each tape).
  std::vector<int32_t> lane_state_;
  std::vector<int32_t> lane_pos_;   // k × lanes
  std::vector<size_t> lane_base_;   // k × lanes: arena offsets
  std::vector<int32_t> lane_tuple_;
};

// Decides acceptance of every tuple in `tuples`: one verdict (or typed
// error) per tuple plus the chain steps of the whole batch.  A batch of
// one tuple is the per-tuple call.  With a budget, each round charges
// its lanes' steps; once the budget refuses, every tuple not yet
// decided fails with the budget's error.
struct DfaBatchResult {
  std::vector<Status> statuses;
  std::vector<char> accepted;
  int64_t configurations_visited = 0;  // chain steps, summed over lanes
};
DfaBatchResult AcceptBatch(
    const DfaProgram& program,
    const std::vector<const std::vector<std::string>*>& tuples,
    DfaScratch* scratch, const AcceptOptions& options = {});

}  // namespace strdb

#endif  // STRDB_FSA_CODEGEN_PROGRAM_H_
