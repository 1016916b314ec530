#ifndef STRDB_FSA_DFA_DFA_H_
#define STRDB_FSA_DFA_DFA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/alphabet.h"
#include "core/result.h"
#include "fsa/fsa.h"

namespace strdb {

// Resource caps for the subset construction.  Both trip a typed
// kResourceExhausted so the caller (the codegen tier, then the engine)
// can fall back to the CSR kernel silently: the DFA tier must never be
// slower-or-wronger than the tier below it.
struct DfaBuildOptions {
  // Subsets the construction may intern before giving up.  The classic
  // (a|b)*a(a|b)^n family shows a genuine 2^n lower bound, so a cap —
  // not cleverness — is the only defence.
  int max_states = 4096;
  // Byte bound on the dense row table (num_states × num_keys × 4).
  int64_t max_table_bytes = int64_t{4} << 20;  // 4 MiB
};

struct DfaBuildStats {
  int states_before_min = 0;  // subsets interned + accept + dead
  int states_after_min = 0;
  int32_t num_keys = 0;       // (|Σ|+2)^k
};

// A determinised one-way product automaton with synchronized head
// schedules.  This is *not* a classic textbook DFA over one tape: a
// state is a subset of NFA states that are simultaneously reachable at
// one k-tape position vector, and every row carries the (unique) head
// advance its transitions perform, so one deterministic chain
//
//     (S_0, pos=0..0) → (S_1, pos_1) → … → accept | dead
//
// replays every nondeterministic run of the source machine at once.
//
// Applicability: the source must be one-way (no -1 moves) and *move
// deterministic* — for every reachable (subset, read key) row, all
// non-stationary transitions applicable from the key-closed subset must
// share one move vector.  Machines with genuinely nondeterministic head
// schedules (the concatenation tester guesses the x = y·z split point,
// so its heads fan out over distinct position vectors) are refused with
// kUnimplemented; the engine keeps them on the CSR kernel, which tracks
// one state set per reached position vector and handles the fan-out.
//
// Stationary transitions are key-dependent ε-moves: each row's subset is
// closed under the stationary transitions applicable on that row's key
// before the stuck check and the move step.  Acceptance is the paper's
// stuck acceptance, folded into the rows: a row whose closed subset
// contains a final state with no applicable transition on the key jumps
// to the absorbing accept state.  An empty successor set jumps to the
// absorbing dead state.  Every other row advances at least one head, so
// a chain ends within Σ(|w_i|+1) + 1 steps.
struct Dfa {
  Alphabet alphabet = Alphabet::Binary();
  int num_tapes = 0;
  int radix = 0;          // |Σ| + 2 (characters, then ⊢, then ⊣)
  int32_t num_keys = 0;   // radix^k
  std::vector<int32_t> pow;  // radix^i per tape
  int16_t char_rank[256];    // byte → rank, -1 = outside Σ

  // |Q| of the source NFA: the per-tuple Π(|w_i|+2)·|Q| overflow guard
  // mirrors the kernel's so error codes stay in parity.
  int source_states = 0;

  int num_states = 0;  // includes the two absorbing states below
  int32_t start = 0;
  int32_t accept_state = 0;
  int32_t dead_state = 0;

  // Dense row table: rows[s·num_keys + key] = (move_mask << 24) | next.
  // move_mask bit i set = head i advances (+1); one-way moves are
  // {0,+1}^k so a k-bit mask is exact (k ≤ 8 enforced at build).  The
  // absorbing states carry real self-loop rows (mask 0) so batch
  // execution stays branchless.
  std::vector<uint32_t> rows;

  DfaBuildStats stats;

  int64_t table_bytes() const {
    return static_cast<int64_t>(rows.size()) * 4;
  }
};

// Determinises `fsa` by subset construction over the packed read-key
// index, then minimises by partition refinement (signatures over
// (move, next-class) rows, iterated to fixpoint — same result as
// Hopcroft's algorithm, with an unreachable-accept pre-collapse into the
// dead class).  Failure codes:
//   kUnimplemented      — two-way machine, > 8 tapes, or a reachable row
//                         with conflicting head schedules;
//   kResourceExhausted  — subset or table-byte cap exceeded (the
//                         blowup defence), or the key space overflows.
Result<Dfa> BuildDfa(const Fsa& fsa, const DfaBuildOptions& options = {});

// Tape pairs (i, j), i < j, on which every tuple the DFA accepts agrees:
// t_i = t_j.  A sound sufficient test, not a decision procedure (for
// relation algebras in general the question is undecidable).  A pair is
// reported when every live row (successor ≠ dead) of every state
// reachable from the start over live rows
//   * reads equal symbols on tapes i and j,
//   * advances heads i and j alike, and
//   * reads ⊣ on both tapes if it jumps to accept.
// Along an accepting chain the two heads then stand on the same position
// at every step, read the same symbol there, and reach their ⊣ together,
// so the strings are equal.  Machines outside this shape report fewer
// pairs, never a wrong one.  Sorted by (i, j).
std::vector<std::pair<int, int>> ImpliedEqualTapes(const Dfa& dfa);

// Inputs to the acceptance-density estimate: a per-tape model of random
// strings — independent characters drawn from `char_weight` (indexed by
// byte value; weights are normalised internally, an empty or all-zero
// vector means uniform over Σ) with geometric lengths of the given
// mean.  Both vectors may be shorter than num_tapes; missing tapes use
// the defaults.
struct DensityOptions {
  std::vector<std::vector<double>> char_weight;  // [tape][byte]
  std::vector<double> expected_len;              // per tape; default 2.0
  // Chain steps to propagate mass before declaring the walk converged.
  int max_steps = 512;
  // Guard on (distribution entries × digit combinations) summed over
  // steps; past it the walk aborts with kResourceExhausted and the
  // caller falls back to a flat selectivity guess.
  int64_t max_work = int64_t{1} << 22;
};

// Estimates the probability that the DFA accepts a random tuple under
// the model above — the planner's σ_A selectivity.  Propagates a sparse
// distribution over (state, per-tape head phase) through the chain,
// where a head's phase ∈ {at ⊢, inside w (char or ⊣ next, geometric),
// at ⊣}; character-frequency statistics weight each row choice.  Mass
// reaching accept_state/dead_state is absorbed; residual mass after
// max_steps counts half.  Always in [0, 1]; kResourceExhausted when the
// work guard trips.
Result<double> AcceptanceDensity(const Dfa& dfa,
                                 const DensityOptions& options = {});

}  // namespace strdb

#endif  // STRDB_FSA_DFA_DFA_H_
