#include "fsa/codegen/program.h"

#include <cstring>

#include "core/metrics.h"

namespace strdb {

namespace {

// Tuples advanced per dispatch round.
constexpr int kLanes = 64;

inline Status SpaceExhausted() {
  return Status::ResourceExhausted(
      "configuration space exceeds int64 index range");
}

struct DfaMetrics {
  Counter* compiles;
  Counter* compile_failures;
  Counter* batch_rows;
  Histogram* states_before;
  Histogram* states_after;
  static const DfaMetrics& Get() {
    static const DfaMetrics m = {
        MetricsRegistry::Global().GetCounter("fsa.dfa.compiles"),
        MetricsRegistry::Global().GetCounter("fsa.dfa.compile_failures"),
        MetricsRegistry::Global().GetCounter("fsa.dfa.batch_rows"),
        MetricsRegistry::Global().GetHistogram("fsa.dfa.states_before_min"),
        MetricsRegistry::Global().GetHistogram("fsa.dfa.states_after_min"),
    };
    return m;
  }
};

}  // namespace

// Friend of DfaProgram/DfaScratch: hosts the interpreter loop so the
// hot code can touch the packed fields directly.
struct DfaBatchRunner {
  // One dispatch round over `active` lanes: gather each lane's read key
  // from its rank rows, gather the (state, key) row, apply the packed
  // move mask to every head.  Lanes already in a halt state execute
  // their absorbing self-loop harmlessly; the caller retires them
  // between rounds.
  static void Round(const DfaProgram& p, const int32_t* ranks,
                    int32_t* state, int32_t* pos, const size_t* base,
                    int active) {
    const int k = p.k_;
    const uint32_t* rows = p.rows_.data();
    const int32_t* pow = p.pow_.data();
    const int32_t num_keys = p.num_keys_;
    // Contiguous SoA arrays with no cross-lane dependencies, so the
    // compiler may vectorise.
    for (int l = 0; l < active; ++l) {
      int32_t key = 0;
      for (int i = 0; i < k; ++i) {
        key += ranks[base[i * kLanes + l] +
                     static_cast<size_t>(pos[i * kLanes + l])] *
               pow[i];
      }
      const uint32_t e = rows[static_cast<size_t>(state[l]) *
                                  static_cast<size_t>(num_keys) +
                              static_cast<size_t>(key)];
      state[l] = static_cast<int32_t>(e & 0xFFFFFFu);
      const uint32_t m = e >> 24;
      for (int i = 0; i < k; ++i) {
        pos[i * kLanes + l] += static_cast<int32_t>((m >> i) & 1u);
      }
    }
  }

  static DfaBatchResult RunBatch(
      const DfaProgram& p,
      const std::vector<const std::vector<std::string>*>& tuples,
      DfaScratch* scratch, const AcceptOptions& options);
};

Result<DfaProgram> DfaProgram::Compile(const Fsa& fsa,
                                       const DfaBuildOptions& options) {
  Result<Dfa> built = BuildDfa(fsa, options);
  if (!built.ok()) {
    DfaMetrics::Get().compile_failures->Increment();
    return built.status();
  }
  return Lower(*std::move(built));
}

Result<DfaProgram> DfaProgram::Lower(Dfa dfa) {
  const DfaMetrics& metrics = DfaMetrics::Get();
  DfaProgram p;
  p.alphabet_ = dfa.alphabet;
  p.k_ = dfa.num_tapes;
  p.num_keys_ = dfa.num_keys;
  p.pow_ = std::move(dfa.pow);
  std::memcpy(p.char_rank_, dfa.char_rank, sizeof(p.char_rank_));
  p.source_states_ = dfa.source_states;
  p.num_states_ = dfa.num_states;
  p.start_ = dfa.start;
  p.accept_ = dfa.accept_state;
  p.dead_ = dfa.dead_state;
  p.rows_ = std::move(dfa.rows);
  p.stats_ = dfa.stats;
  p.op_.assign(static_cast<size_t>(p.num_states_), 0);
  p.op_[static_cast<size_t>(p.accept_)] = 1;
  p.op_[static_cast<size_t>(p.dead_)] = 1;
  // Termination invariant the interpreter relies on: a row that does not
  // advance any head must jump to a halt state, so every chain ends
  // within Σ(|w_i|+1) + 1 steps.
  for (int32_t s = 0; s < p.num_states_; ++s) {
    if (p.op_[static_cast<size_t>(s)] != 0) continue;
    const size_t row = static_cast<size_t>(s) *
                       static_cast<size_t>(p.num_keys_);
    for (int32_t key = 0; key < p.num_keys_; ++key) {
      const uint32_t e = p.rows_[row + static_cast<size_t>(key)];
      const int32_t nx = static_cast<int32_t>(e & 0xFFFFFFu);
      if ((e >> 24) == 0 && p.op_[static_cast<size_t>(nx)] == 0) {
        return Status::Internal(
            "DFA row neither advances a head nor halts");
      }
    }
  }
  metrics.compiles->Increment();
  metrics.states_before->Record(p.stats_.states_before_min);
  metrics.states_after->Record(p.stats_.states_after_min);
  return p;
}

DfaCompilation DfaCompilation::Of(const Fsa& fsa) {
  DfaCompilation out;
  Result<Dfa> built = BuildDfa(fsa);
  if (!built.ok()) {
    DfaMetrics::Get().compile_failures->Increment();
    out.failure = built.status();
    return out;
  }
  std::vector<std::pair<int, int>> equal_tapes = ImpliedEqualTapes(*built);
  Result<DfaProgram> lowered = DfaProgram::Lower(*std::move(built));
  if (!lowered.ok()) {
    out.failure = lowered.status();
    return out;
  }
  out.program = std::make_shared<const DfaProgram>(*std::move(lowered));
  out.equal_tapes = std::move(equal_tapes);
  return out;
}

int64_t DfaProgram::MemoryCost() const {
  return static_cast<int64_t>(sizeof(DfaProgram)) +
         static_cast<int64_t>(rows_.size()) * 4 +
         static_cast<int64_t>(op_.size()) +
         static_cast<int64_t>(pow_.size()) * 4;
}

DfaBatchResult DfaBatchRunner::RunBatch(
    const DfaProgram& p,
    const std::vector<const std::vector<std::string>*>& tuples,
    DfaScratch* scratch, const AcceptOptions& options) {
  const size_t n = tuples.size();
  const int k = p.k_;
  DfaBatchResult result;
  result.statuses.assign(n, Status::OK());
  result.accepted.assign(n, 0);

  // Encode every tuple into one shared rank arena up front; a tuple that
  // fails validation is marked and never admitted to a lane.
  std::vector<int32_t>& arena = scratch->arena_;
  arena.clear();
  scratch->tuple_roff_.assign(n * static_cast<size_t>(k), 0);
  const int sigma = p.alphabet_.size();
  for (size_t t = 0; t < n; ++t) {
    const std::vector<std::string>& strings = *tuples[t];
    if (static_cast<int>(strings.size()) != k) {
      result.statuses[t] =
          Status::InvalidArgument("input arity differs from tape count");
      continue;
    }
    int64_t space = 1;
    bool overflow = false;
    for (int i = 0; i < k; ++i) {
      const int64_t radix =
          static_cast<int64_t>(strings[static_cast<size_t>(i)].size()) + 2;
      if (__builtin_mul_overflow(space, radix, &space)) overflow = true;
    }
    if (overflow ||
        __builtin_mul_overflow(space,
                               static_cast<int64_t>(p.source_states_),
                               &space)) {
      result.statuses[t] = SpaceExhausted();
      continue;
    }
    const size_t mark = arena.size();
    bool bad_char = false;
    for (int i = 0; i < k && !bad_char; ++i) {
      const std::string& w = strings[static_cast<size_t>(i)];
      scratch->tuple_roff_[t * static_cast<size_t>(k) +
                           static_cast<size_t>(i)] = arena.size();
      arena.push_back(sigma);  // ⊢
      for (size_t j = 0; j < w.size(); ++j) {
        const int16_t rank = p.char_rank_[static_cast<unsigned char>(w[j])];
        if (rank < 0) {
          result.statuses[t] = Status::InvalidArgument(
              std::string("string contains character '") + w[j] +
              "' outside the alphabet");
          bad_char = true;
          break;
        }
        arena.push_back(rank);
      }
      arena.push_back(sigma + 1);  // ⊣
    }
    if (bad_char) arena.resize(mark);
  }

  scratch->lane_state_.assign(kLanes, 0);
  scratch->lane_tuple_.assign(kLanes, 0);
  scratch->lane_pos_.assign(static_cast<size_t>(k) * kLanes, 0);
  scratch->lane_base_.assign(static_cast<size_t>(k) * kLanes, 0);
  int32_t* state = scratch->lane_state_.data();
  int32_t* tuple_of = scratch->lane_tuple_.data();
  int32_t* pos = scratch->lane_pos_.data();
  size_t* base = scratch->lane_base_.data();
  const int32_t* ranks = arena.data();

  size_t cursor = 0;
  Status budget_failure;
  // Pulls the next runnable tuple into `lane`.  A start state that is
  // already absorbing (empty or universal-complement machines minimise
  // to start == dead) is decided in zero steps without occupying a lane.
  auto admit = [&](int lane) -> bool {
    while (cursor < n) {
      const size_t t = cursor++;
      if (!result.statuses[t].ok()) continue;
      if (p.op_[static_cast<size_t>(p.start_)] != 0) {
        result.accepted[t] = p.start_ == p.accept_;
        continue;
      }
      state[lane] = p.start_;
      tuple_of[lane] = static_cast<int32_t>(t);
      for (int i = 0; i < k; ++i) {
        pos[i * kLanes + lane] = 0;
        base[i * kLanes + lane] =
            scratch->tuple_roff_[t * static_cast<size_t>(k) +
                                 static_cast<size_t>(i)];
      }
      return true;
    }
    return false;
  };

  int active = 0;
  while (active < kLanes && admit(active)) ++active;
  while (active > 0) {
    Round(p, ranks, state, pos, base, active);
    result.configurations_visited += active;
    if (options.budget != nullptr) {
      budget_failure = options.budget->ChargeSteps(active);
      if (!budget_failure.ok()) break;
    }
    for (int l = 0; l < active;) {
      if (p.op_[static_cast<size_t>(state[l])] == 0) {
        ++l;
        continue;
      }
      result.accepted[static_cast<size_t>(tuple_of[l])] =
          state[l] == p.accept_;
      --active;
      if (l != active) {
        state[l] = state[active];
        tuple_of[l] = tuple_of[active];
        for (int i = 0; i < k; ++i) {
          pos[i * kLanes + l] = pos[i * kLanes + active];
          base[i * kLanes + l] = base[i * kLanes + active];
        }
      }
    }
    while (active < kLanes && admit(active)) ++active;
  }
  if (!budget_failure.ok()) {
    // In-flight lanes and everything still pending fail the same way a
    // per-tuple loop would: each remaining charge attempt is refused.
    for (int l = 0; l < active; ++l) {
      result.statuses[static_cast<size_t>(tuple_of[l])] = budget_failure;
    }
    while (cursor < n) {
      const size_t t = cursor++;
      if (result.statuses[t].ok()) result.statuses[t] = budget_failure;
    }
  }
  return result;
}

DfaBatchResult AcceptBatch(
    const DfaProgram& program,
    const std::vector<const std::vector<std::string>*>& tuples,
    DfaScratch* scratch, const AcceptOptions& options) {
  DfaMetrics::Get().batch_rows->Increment(
      static_cast<int64_t>(tuples.size()));
  return DfaBatchRunner::RunBatch(program, tuples, scratch, options);
}

}  // namespace strdb
