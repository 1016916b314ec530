#include "fsa/dfa/dfa.h"

#include <algorithm>
#include <map>
#include <utility>

namespace strdb {

namespace {

// Rank of a tape symbol in the packed read-key alphabet, matching the
// kernel's packing: character ids first, then ⊢, then ⊣.
inline int32_t RankOf(Sym s, int sigma) {
  if (s == kLeftEnd) return sigma;
  if (s == kRightEnd) return sigma + 1;
  return s;
}

constexpr int32_t kAcceptTmp = -1;
constexpr int32_t kDeadTmp = -2;
constexpr int64_t kMaxKeys = int64_t{1} << 20;
constexpr int kMaxNextStates = (1 << 24) - 1;  // next fits 24 bits

}  // namespace

Result<Dfa> BuildDfa(const Fsa& fsa, const DfaBuildOptions& options) {
  if (fsa.NumBidirectionalTapes() > 0) {
    return Status::Unimplemented(
        "two-way automaton has no synchronized-chain DFA form");
  }
  const int k = fsa.num_tapes();
  if (k > 8) {
    return Status::Unimplemented("DFA move mask supports at most 8 tapes");
  }
  Dfa dfa;
  dfa.alphabet = fsa.alphabet();
  const int sigma = dfa.alphabet.size();
  dfa.num_tapes = k;
  dfa.radix = sigma + 2;
  dfa.source_states = fsa.num_states();
  dfa.pow.resize(static_cast<size_t>(k));
  int64_t keys = 1;
  for (int i = 0; i < k; ++i) {
    dfa.pow[static_cast<size_t>(i)] = static_cast<int32_t>(keys);
    keys *= dfa.radix;
    if (keys > kMaxKeys) {
      return Status::ResourceExhausted(
          "read-key space (|Sigma|+2)^k exceeds the DFA table cap");
    }
  }
  if (keys * 4 * 2 > options.max_table_bytes) {
    return Status::ResourceExhausted("DFA row table exceeds the byte cap");
  }
  const int32_t num_keys = static_cast<int32_t>(keys);
  dfa.num_keys = num_keys;
  std::fill(dfa.char_rank, dfa.char_rank + 256, int16_t{-1});
  for (Sym s = 0; s < sigma; ++s) {
    dfa.char_rank[static_cast<unsigned char>(dfa.alphabet.CharOf(s))] = s;
  }

  // Per-transition read key and move mask (bit i = head i advances).
  const std::vector<Transition>& trs = fsa.transitions();
  std::vector<int32_t> tkey(trs.size());
  std::vector<uint8_t> tmask(trs.size());
  for (size_t t = 0; t < trs.size(); ++t) {
    int32_t key = 0;
    uint8_t mask = 0;
    for (int i = 0; i < k; ++i) {
      key += RankOf(trs[t].read[static_cast<size_t>(i)], sigma) *
             dfa.pow[static_cast<size_t>(i)];
      if (trs[t].move[static_cast<size_t>(i)] == kFwd) {
        mask |= static_cast<uint8_t>(1u << i);
      }
    }
    tkey[t] = key;
    tmask[t] = mask;
  }

  // --- subset construction over (subset, key) rows --------------------------
  std::map<std::vector<int32_t>, int32_t> subset_id;
  std::vector<std::vector<int32_t>> subsets;
  std::vector<int32_t> tmp_next;  // subset-major rows; ids or kAcceptTmp/kDeadTmp
  std::vector<uint8_t> tmp_mask;
  auto intern = [&](std::vector<int32_t> states) -> Result<int32_t> {
    auto it = subset_id.find(states);
    if (it != subset_id.end()) return it->second;
    if (static_cast<int>(subsets.size()) >= options.max_states ||
        static_cast<int>(subsets.size()) >= kMaxNextStates - 2) {
      return Status::ResourceExhausted(
          "subset construction exceeds " +
          std::to_string(options.max_states) + " DFA states");
    }
    if ((static_cast<int64_t>(subsets.size()) + 3) * keys * 4 >
        options.max_table_bytes) {
      return Status::ResourceExhausted("DFA row table exceeds the byte cap");
    }
    int32_t id = static_cast<int32_t>(subsets.size());
    subset_id.emplace(states, id);
    subsets.push_back(std::move(states));
    tmp_next.insert(tmp_next.end(), static_cast<size_t>(num_keys), kDeadTmp);
    tmp_mask.insert(tmp_mask.end(), static_cast<size_t>(num_keys), 0);
    return id;
  };
  STRDB_ASSIGN_OR_RETURN(int32_t start_id,
                         intern({static_cast<int32_t>(fsa.start())}));

  std::vector<uint8_t> mark(static_cast<size_t>(fsa.num_states()), 0);
  std::vector<int32_t> closure;
  std::vector<int32_t> moved;
  for (int32_t sid = 0; sid < static_cast<int32_t>(subsets.size()); ++sid) {
    for (int32_t key = 0; key < num_keys; ++key) {
      // Key-dependent ε-closure: chase the stationary transitions
      // applicable on this key to a fixpoint.
      closure.clear();
      for (int32_t q : subsets[static_cast<size_t>(sid)]) {
        if (!mark[static_cast<size_t>(q)]) {
          mark[static_cast<size_t>(q)] = 1;
          closure.push_back(q);
        }
      }
      for (size_t head = 0; head < closure.size(); ++head) {
        for (int t : fsa.TransitionsFrom(closure[head])) {
          if (tkey[static_cast<size_t>(t)] != key ||
              tmask[static_cast<size_t>(t)] != 0) {
            continue;
          }
          int32_t to = trs[static_cast<size_t>(t)].to;
          if (!mark[static_cast<size_t>(to)]) {
            mark[static_cast<size_t>(to)] = 1;
            closure.push_back(to);
          }
        }
      }
      // Stuck acceptance, then the (unique) move step.
      bool accepts = false;
      int move_mask = -1;
      bool conflict = false;
      moved.clear();
      for (int32_t q : closure) {
        bool any_here = false;
        for (int t : fsa.TransitionsFrom(q)) {
          if (tkey[static_cast<size_t>(t)] != key) continue;
          any_here = true;
          uint8_t m = tmask[static_cast<size_t>(t)];
          if (m == 0) continue;  // stationary: already folded into closure
          if (move_mask < 0) {
            move_mask = m;
          } else if (move_mask != m) {
            conflict = true;
          }
          moved.push_back(trs[static_cast<size_t>(t)].to);
        }
        if (!any_here && fsa.IsFinal(q)) accepts = true;
      }
      for (int32_t q : closure) mark[static_cast<size_t>(q)] = 0;
      size_t row = static_cast<size_t>(sid) * static_cast<size_t>(num_keys) +
                   static_cast<size_t>(key);
      if (accepts) {
        tmp_next[row] = kAcceptTmp;
        continue;
      }
      if (moved.empty()) continue;  // stays kDeadTmp
      if (conflict) {
        return Status::Unimplemented(
            "nondeterministic head schedule: a reachable (subset, key) row "
            "mixes distinct move vectors");
      }
      std::sort(moved.begin(), moved.end());
      moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
      STRDB_ASSIGN_OR_RETURN(int32_t next, intern(moved));
      tmp_next[row] = next;
      tmp_mask[row] = static_cast<uint8_t>(move_mask);
    }
  }

  // Resolve the temporary ids: subsets first, then accept, then dead.
  const int32_t n_sub = static_cast<int32_t>(subsets.size());
  const int32_t pre_accept = n_sub;
  const int32_t pre_dead = n_sub + 1;
  const int32_t pre_n = n_sub + 2;
  std::vector<int32_t> next(static_cast<size_t>(pre_n) *
                            static_cast<size_t>(num_keys));
  std::vector<uint8_t> mask(next.size(), 0);
  for (size_t r = 0; r < tmp_next.size(); ++r) {
    next[r] = tmp_next[r] == kAcceptTmp  ? pre_accept
              : tmp_next[r] == kDeadTmp  ? pre_dead
                                         : tmp_next[r];
    mask[r] = tmp_mask[r];
  }
  for (int32_t s = pre_accept; s <= pre_dead; ++s) {
    for (int32_t key = 0; key < num_keys; ++key) {
      next[static_cast<size_t>(s) * static_cast<size_t>(num_keys) +
           static_cast<size_t>(key)] = s;
    }
  }
  dfa.stats.states_before_min = pre_n;
  dfa.stats.num_keys = num_keys;

  // --- minimisation ---------------------------------------------------------
  // Pre-collapse: a state from which the accept state is unreachable is
  // behaviourally the dead state.  Reverse BFS over the row edges.
  std::vector<uint8_t> reaches(static_cast<size_t>(pre_n), 0);
  {
    std::vector<int32_t> pred_cnt(static_cast<size_t>(pre_n) + 1, 0);
    for (size_t r = 0; r < next.size(); ++r) {
      ++pred_cnt[static_cast<size_t>(next[r]) + 1];
    }
    for (int32_t s = 0; s < pre_n; ++s) {
      pred_cnt[static_cast<size_t>(s) + 1] += pred_cnt[static_cast<size_t>(s)];
    }
    std::vector<int32_t> preds(next.size());
    std::vector<int32_t> fill(pred_cnt.begin(), pred_cnt.end() - 1);
    for (size_t r = 0; r < next.size(); ++r) {
      preds[static_cast<size_t>(fill[static_cast<size_t>(next[r])]++)] =
          static_cast<int32_t>(r / static_cast<size_t>(num_keys));
    }
    std::vector<int32_t> queue;
    reaches[static_cast<size_t>(pre_accept)] = 1;
    queue.push_back(pre_accept);
    for (size_t head = 0; head < queue.size(); ++head) {
      int32_t s = queue[head];
      for (int32_t p = pred_cnt[static_cast<size_t>(s)];
           p < pred_cnt[static_cast<size_t>(s) + 1]; ++p) {
        int32_t from = preds[static_cast<size_t>(p)];
        if (!reaches[static_cast<size_t>(from)]) {
          reaches[static_cast<size_t>(from)] = 1;
          queue.push_back(from);
        }
      }
    }
  }

  // Partition refinement over (move, class(next)) row signatures, to a
  // fixpoint.  Initial classes: accept | dead (every non-accept-reaching
  // state) | live.  Same fixpoint Hopcroft's splitter queue reaches.
  std::vector<int32_t> cls(static_cast<size_t>(pre_n));
  for (int32_t s = 0; s < pre_n; ++s) {
    cls[static_cast<size_t>(s)] = s == pre_accept                   ? 0
                                  : !reaches[static_cast<size_t>(s)] ? 1
                                                                     : 2;
  }
  int32_t num_classes = 3;
  std::vector<int32_t> sig;
  for (;;) {
    std::map<std::vector<int32_t>, int32_t> sig_id;
    std::vector<int32_t> new_cls(static_cast<size_t>(pre_n));
    for (int32_t s = 0; s < pre_n; ++s) {
      sig.clear();
      sig.push_back(cls[static_cast<size_t>(s)]);
      if (s != pre_accept && reaches[static_cast<size_t>(s)]) {
        size_t base =
            static_cast<size_t>(s) * static_cast<size_t>(num_keys);
        for (int32_t key = 0; key < num_keys; ++key) {
          int32_t nx = next[base + static_cast<size_t>(key)];
          sig.push_back((static_cast<int32_t>(mask[base +
                                                   static_cast<size_t>(key)])
                         << 24) |
                        cls[static_cast<size_t>(nx)]);
        }
      }
      auto it = sig_id.find(sig);
      if (it == sig_id.end()) {
        it = sig_id.emplace(sig, static_cast<int32_t>(sig_id.size())).first;
      }
      new_cls[static_cast<size_t>(s)] = it->second;
    }
    int32_t count = static_cast<int32_t>(sig_id.size());
    cls.swap(new_cls);
    if (count == num_classes) break;
    num_classes = count;
  }

  // Rebuild over class representatives.  New ids by first occurrence;
  // the absorbing pair keeps genuine self-loop rows whatever its
  // members' original rows looked like.
  std::vector<int32_t> new_id(static_cast<size_t>(num_classes), -1);
  std::vector<int32_t> rep;
  for (int32_t s = 0; s < pre_n; ++s) {
    int32_t c = cls[static_cast<size_t>(s)];
    if (new_id[static_cast<size_t>(c)] < 0) {
      new_id[static_cast<size_t>(c)] = static_cast<int32_t>(rep.size());
      rep.push_back(s);
    }
  }
  dfa.num_states = num_classes;
  dfa.start = new_id[static_cast<size_t>(cls[static_cast<size_t>(start_id)])];
  dfa.accept_state =
      new_id[static_cast<size_t>(cls[static_cast<size_t>(pre_accept)])];
  dfa.dead_state =
      new_id[static_cast<size_t>(cls[static_cast<size_t>(pre_dead)])];
  dfa.rows.assign(static_cast<size_t>(num_classes) *
                      static_cast<size_t>(num_keys),
                  0);
  for (int32_t c = 0; c < num_classes; ++c) {
    int32_t nid = new_id[static_cast<size_t>(c)];
    size_t out = static_cast<size_t>(nid) * static_cast<size_t>(num_keys);
    if (nid == dfa.accept_state || nid == dfa.dead_state) {
      for (int32_t key = 0; key < num_keys; ++key) {
        dfa.rows[out + static_cast<size_t>(key)] =
            static_cast<uint32_t>(nid);
      }
      continue;
    }
    size_t in = static_cast<size_t>(rep[static_cast<size_t>(nid)]) *
                static_cast<size_t>(num_keys);
    for (int32_t key = 0; key < num_keys; ++key) {
      int32_t nx = new_id[static_cast<size_t>(
          cls[static_cast<size_t>(next[in + static_cast<size_t>(key)])])];
      dfa.rows[out + static_cast<size_t>(key)] =
          (static_cast<uint32_t>(mask[in + static_cast<size_t>(key)]) << 24) |
          static_cast<uint32_t>(nx);
    }
  }
  dfa.stats.states_after_min = num_classes;
  return dfa;
}

std::vector<std::pair<int, int>> ImpliedEqualTapes(const Dfa& dfa) {
  const int k = dfa.num_tapes;
  const int32_t end_rank = dfa.radix - 1;  // ⊣
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) pairs.emplace_back(i, j);
  }
  std::vector<uint8_t> seen(static_cast<size_t>(dfa.num_states), 0);
  std::vector<int32_t> queue = {dfa.start};
  seen[static_cast<size_t>(dfa.start)] = 1;
  std::vector<int32_t> digit(static_cast<size_t>(k));
  for (size_t head = 0; head < queue.size() && !pairs.empty(); ++head) {
    const int32_t s = queue[head];
    if (s == dfa.accept_state || s == dfa.dead_state) continue;
    const size_t base =
        static_cast<size_t>(s) * static_cast<size_t>(dfa.num_keys);
    for (int32_t key = 0; key < dfa.num_keys && !pairs.empty(); ++key) {
      const uint32_t row = dfa.rows[base + static_cast<size_t>(key)];
      const int32_t next = static_cast<int32_t>(row & 0xFFFFFFu);
      if (next == dfa.dead_state) continue;
      const uint32_t mask = row >> 24;
      for (int t = 0; t < k; ++t) {
        digit[static_cast<size_t>(t)] =
            key / dfa.pow[static_cast<size_t>(t)] % dfa.radix;
      }
      const bool accepts = next == dfa.accept_state;
      std::erase_if(pairs, [&](const std::pair<int, int>& p) {
        const int32_t di = digit[static_cast<size_t>(p.first)];
        return di != digit[static_cast<size_t>(p.second)] ||
               ((mask >> p.first) & 1u) != ((mask >> p.second) & 1u) ||
               (accepts && di != end_rank);
      });
      if (!seen[static_cast<size_t>(next)]) {
        seen[static_cast<size_t>(next)] = 1;
        queue.push_back(next);
      }
    }
  }
  return pairs;
}

namespace {

// Head phases of the density walk.  kAtStart reads ⊢ surely; kInString
// reads ⊣ with the geometric stop probability and a character
// otherwise; kAtEnd reads ⊣ surely.  The phase is committed the moment
// a digit is *chosen*, so a head parked on ⊣ keeps reading ⊣ instead of
// re-rolling the string length.
enum Phase : int { kAtStart = 0, kInString = 1, kAtEnd = 2 };

struct DigitChoice {
  int32_t rank = 0;
  double prob = 0;
  int next_phase = kInString;
};

}  // namespace

Result<double> AcceptanceDensity(const Dfa& dfa,
                                 const DensityOptions& options) {
  const int k = dfa.num_tapes;
  const int sigma = dfa.radix - 2;
  if (k <= 0 || k > 8 || sigma <= 0 || dfa.num_states <= 0) {
    return Status::InvalidArgument("density: degenerate automaton");
  }
  // Per-tape digit menus by phase.  kAtStart and kAtEnd are singletons;
  // kInString lists ⊣ plus every character with positive weight.
  std::vector<std::vector<DigitChoice>> in_string(static_cast<size_t>(k));
  for (int t = 0; t < k; ++t) {
    double len = t < static_cast<int>(options.expected_len.size())
                     ? options.expected_len[static_cast<size_t>(t)]
                     : 2.0;
    if (!(len >= 0) || len > 1e6) len = 2.0;
    const double p_end = 1.0 / (1.0 + len);
    // Character weights folded through char_rank: several bytes can
    // share a rank; outside-Σ bytes are dropped.
    std::vector<double> by_rank(static_cast<size_t>(sigma), 0.0);
    double total = 0;
    if (t < static_cast<int>(options.char_weight.size())) {
      const std::vector<double>& w = options.char_weight[static_cast<size_t>(t)];
      for (size_t b = 0; b < w.size() && b < 256; ++b) {
        int16_t rank = dfa.char_rank[b];
        if (rank < 0 || w[b] <= 0) continue;
        by_rank[static_cast<size_t>(rank)] += w[b];
        total += w[b];
      }
    }
    if (total <= 0) {
      std::fill(by_rank.begin(), by_rank.end(), 1.0);
      total = static_cast<double>(sigma);
    }
    std::vector<DigitChoice>& menu = in_string[static_cast<size_t>(t)];
    menu.push_back({static_cast<int32_t>(sigma + 1), p_end, kAtEnd});
    for (int r = 0; r < sigma; ++r) {
      if (by_rank[static_cast<size_t>(r)] <= 0) continue;
      menu.push_back({static_cast<int32_t>(r),
                      (1.0 - p_end) * by_rank[static_cast<size_t>(r)] / total,
                      kInString});
    }
  }

  // Sparse distribution over state·3^k + phase-code.
  int64_t pow3 = 1;
  for (int t = 0; t < k; ++t) pow3 *= 3;
  std::map<int64_t, double> dist;
  dist[static_cast<int64_t>(dfa.start) * pow3] = 1.0;  // all heads at ⊢
  double accepted = 0, dead = 0;
  int64_t work = 0;

  std::vector<DigitChoice> single(1);
  for (int step = 0; step < options.max_steps && !dist.empty(); ++step) {
    std::map<int64_t, double> next_dist;
    for (const auto& [code, mass] : dist) {
      const int32_t state = static_cast<int32_t>(code / pow3);
      int64_t phase_code = code % pow3;
      int phases[8];
      for (int t = 0; t < k; ++t) {
        phases[t] = static_cast<int>(phase_code % 3);
        phase_code /= 3;
      }
      // Enumerate digit combinations tape by tape.
      struct Frame {
        int32_t key;
        int64_t phases;  // packed base-3, little-endian by tape
        double prob;
      };
      std::vector<Frame> combos = {{0, 0, 1.0}};
      for (int t = 0; t < k; ++t) {
        const std::vector<DigitChoice>* menu;
        if (phases[t] == kAtStart) {
          single[0] = {static_cast<int32_t>(sigma), 1.0, kAtStart};
          menu = &single;
        } else if (phases[t] == kAtEnd) {
          single[0] = {static_cast<int32_t>(sigma + 1), 1.0, kAtEnd};
          menu = &single;
        } else {
          menu = &in_string[static_cast<size_t>(t)];
        }
        std::vector<Frame> grown;
        grown.reserve(combos.size() * menu->size());
        int64_t tape_pow = 1;
        for (int i = 0; i < t; ++i) tape_pow *= 3;
        for (const Frame& f : combos) {
          for (const DigitChoice& d : *menu) {
            grown.push_back(
                {f.key + d.rank * dfa.pow[static_cast<size_t>(t)],
                 f.phases + static_cast<int64_t>(d.next_phase) * tape_pow,
                 f.prob * d.prob});
          }
        }
        combos = std::move(grown);
        work += static_cast<int64_t>(combos.size());
        if (work > options.max_work) {
          return Status::ResourceExhausted("density: work guard exceeded");
        }
      }
      for (const Frame& f : combos) {
        const uint32_t row =
            dfa.rows[static_cast<size_t>(state) *
                         static_cast<size_t>(dfa.num_keys) +
                     static_cast<size_t>(f.key)];
        const int32_t next_state = static_cast<int32_t>(row & 0xFFFFFF);
        const uint32_t move_mask = row >> 24;
        const double p = mass * f.prob;
        if (p <= 0) continue;
        if (next_state == dfa.accept_state) {
          accepted += p;
          continue;
        }
        if (next_state == dfa.dead_state) {
          dead += p;
          continue;
        }
        // Advancing off ⊢ enters the string; every other advance is
        // already reflected in the committed phase (geometric lengths
        // are memoryless, so "still inside w" needs no position).
        int64_t new_phases = 0;
        int64_t packed = f.phases;
        int64_t tape_pow = 1;
        for (int t = 0; t < k; ++t) {
          int phase = static_cast<int>(packed % 3);
          packed /= 3;
          if (phase == kAtStart && ((move_mask >> t) & 1u) != 0) {
            phase = kInString;
          }
          new_phases += static_cast<int64_t>(phase) * tape_pow;
          tape_pow *= 3;
        }
        next_dist[static_cast<int64_t>(next_state) * pow3 + new_phases] += p;
      }
    }
    dist = std::move(next_dist);
    double residual = 0;
    for (const auto& [code, mass] : dist) residual += mass;
    if (residual < 1e-6) {
      dist.clear();
    }
  }
  double residual = 0;
  for (const auto& [code, mass] : dist) residual += mass;
  (void)dead;
  return std::clamp(accepted + 0.5 * residual, 0.0, 1.0);
}

}  // namespace strdb
