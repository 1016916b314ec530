#include "testing/generators.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "calculus/translate.h"
#include "fsa/compile.h"
#include "strform/parser.h"
#include "testing/corpus.h"

namespace strdb {
namespace testgen {

namespace {

template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "generator setup failed (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

Fsa CompileText(const char* text, const Alphabet& sigma,
                const std::vector<std::string>& vars) {
  return OrDie(CompileStringFormula(OrDie(ParseStringFormula(text), text),
                                    sigma, vars),
               text);
}

}  // namespace

Fsa RandomFsa(RandomSource& rand, const Alphabet& sigma,
              const FsaGenOptions& options) {
  int tapes = rand.Range(options.min_tapes, options.max_tapes);
  Fsa fsa(sigma, tapes);
  int states = rand.Range(options.min_states, options.max_states);
  while (fsa.num_states() < states) fsa.AddState();
  for (int s = 0; s < states; ++s) {
    if (rand.Range(0, 3) == 0) fsa.SetFinal(s);
  }
  int want = rand.Range(options.min_transitions, options.max_transitions);
  for (int t = 0; t < want; ++t) {
    Transition tr;
    tr.from = rand.Range(0, states - 1);
    tr.to = rand.Range(0, states - 1);
    for (int i = 0; i < tapes; ++i) {
      int pick = rand.Range(0, sigma.size() + 1);
      Sym read = pick < sigma.size()    ? static_cast<Sym>(pick)
                 : pick == sigma.size() ? kLeftEnd
                                        : kRightEnd;
      Move move = options.one_way_only
                      ? static_cast<Move>(rand.Range(0, 1))
                      : static_cast<Move>(rand.Range(-1, 1));
      if (read == kLeftEnd && move == kBack) move = kStay;
      if (read == kRightEnd && move == kFwd) move = kStay;
      tr.read.push_back(read);
      tr.move.push_back(move);
    }
    Status s = fsa.AddTransition(std::move(tr));
    if (!s.ok()) {
      // Unreachable by construction: the draw above satisfies the
      // endmarker discipline.
      std::fprintf(stderr, "RandomFsa produced an invalid transition: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  }
  return fsa;
}

bool HasBackwardMove(const Fsa& fsa) {
  for (const Transition& t : fsa.transitions()) {
    for (Move m : t.move) {
      if (m == kBack) return true;
    }
  }
  return false;
}

Tuple RandomTuple(RandomSource& rand, const Alphabet& sigma, int tapes,
                  int max_len) {
  Tuple tuple;
  tuple.reserve(static_cast<size_t>(tapes));
  for (int i = 0; i < tapes; ++i) {
    tuple.push_back(rand.String(sigma, 0, max_len));
  }
  return tuple;
}

Database RandomDatabase(RandomSource& rand, const Alphabet& sigma) {
  Database db(sigma);
  auto fill = [&](const std::string& name, int arity) {
    std::vector<Tuple> tuples;
    int n = rand.Range(0, 3);
    for (int i = 0; i < n; ++i) {
      tuples.push_back(RandomTuple(rand, sigma, arity, 2));
    }
    Status s = db.Put(name, arity, std::move(tuples));
    if (!s.ok()) {
      std::fprintf(stderr, "RandomDatabase Put failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  };
  fill("R0", 1);
  fill("R1", 1);
  fill("P", 2);
  return db;
}

FsaPool MakeFsaPool(const Alphabet& sigma) {
  return FsaPool{
      CompileText("([x]l(!(x = ~)) . [x]l(!(x = ~)))* . [x]l(x = ~)", sigma,
                  {"x"}),
      CompileText("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)", sigma,
                  {"x", "y"}),
      CompileText("([x,y]l(x = y))* . [x,y]l(x = ~)", sigma, {"x", "y"}),
      CompileText("([x,y]l(x = y))* . ([x,z]l(x = z))* . "
                  "[x,y,z]l(x = ~ & y = ~ & z = ~)",
                  sigma, {"x", "y", "z"}),
  };
}

const Fsa& PoolMachine(const FsaPool& pool, RandomSource& rand, int tapes) {
  switch (tapes) {
    case 1:
      return pool.even1;
    case 2:
      return rand.Coin() ? pool.eq2 : pool.prefix2;
    default:
      return pool.concat3;
  }
}

AlgebraExpr RandomAlgebraExpr(RandomSource& rand, const FsaPool& pool,
                              int depth) {
  if (depth <= 0 || rand.Range(0, 5) == 0) {
    switch (rand.Range(0, 3)) {
      case 0:
        return AlgebraExpr::Relation("R0", 1);
      case 1:
        return AlgebraExpr::Relation("R1", 1);
      case 2:
        return AlgebraExpr::Relation("P", 2);
      default:
        return AlgebraExpr::SigmaL(rand.Range(0, 2));
    }
  }
  switch (rand.Range(0, 6)) {
    case 0: {  // union / difference of equal-arity parts
      AlgebraExpr a = RandomAlgebraExpr(rand, pool, depth - 1);
      AlgebraExpr b = RandomAlgebraExpr(rand, pool, depth - 1);
      if (a.arity() == b.arity()) {
        Result<AlgebraExpr> r = rand.Coin() ? AlgebraExpr::Union(a, b)
                                            : AlgebraExpr::Difference(a, b);
        if (r.ok()) return *r;
      }
      return a;
    }
    case 1: {  // product, capped at arity 3
      AlgebraExpr a = RandomAlgebraExpr(rand, pool, depth - 1);
      AlgebraExpr b = RandomAlgebraExpr(rand, pool, depth - 1);
      if (a.arity() + b.arity() <= 3) return AlgebraExpr::Product(a, b);
      return a;
    }
    case 2: {  // random projection (a permutation of a subset)
      AlgebraExpr child = RandomAlgebraExpr(rand, pool, depth - 1);
      std::vector<int> cols;
      for (int c = 0; c < child.arity(); ++c) {
        if (rand.Coin()) cols.push_back(c);
      }
      if (rand.Coin() && cols.size() > 1) std::swap(cols.front(), cols.back());
      Result<AlgebraExpr> r = AlgebraExpr::Project(child, cols);
      return r.ok() ? *r : child;
    }
    case 3: {  // filtering selection
      AlgebraExpr child = RandomAlgebraExpr(rand, pool, depth - 1);
      Result<AlgebraExpr> r = AlgebraExpr::Select(
          child, Fsa(PoolMachine(pool, rand, child.arity())));
      return r.ok() ? *r : child;
    }
    case 4: {  // generator selection σ_A(... × Σ* × ...)
      if (rand.Coin()) {
        AlgebraExpr f = RandomAlgebraExpr(rand, pool, 0);  // a leaf
        if (f.arity() == 1) {
          AlgebraExpr body =
              rand.Coin()
                  ? AlgebraExpr::Product(AlgebraExpr::SigmaStar(), f)
                  : AlgebraExpr::Product(f, AlgebraExpr::SigmaStar());
          Result<AlgebraExpr> r = AlgebraExpr::Select(
              body, rand.Coin() ? Fsa(pool.eq2) : Fsa(pool.prefix2));
          if (r.ok()) return *r;
        }
      }
      // E8 shape: σ_concat(Σ* × F1 × F2).
      AlgebraExpr f1 = RandomAlgebraExpr(rand, pool, 0);
      AlgebraExpr f2 = RandomAlgebraExpr(rand, pool, 0);
      if (f1.arity() == 1 && f2.arity() == 1) {
        AlgebraExpr body = AlgebraExpr::Product(
            AlgebraExpr::SigmaStar(), AlgebraExpr::Product(f1, f2));
        Result<AlgebraExpr> r = AlgebraExpr::Select(body, Fsa(pool.concat3));
        if (r.ok()) return *r;
      }
      return f1;
    }
    default:
      return AlgebraExpr::RestrictToDomain(
          RandomAlgebraExpr(rand, pool, depth - 1));
  }
}

std::vector<std::vector<std::vector<int>>> SetPartitions(int n) {
  std::vector<std::vector<std::vector<int>>> out;
  if (n <= 0) return out;
  out.push_back({{0}});
  for (int c = 1; c < n; ++c) {
    std::vector<std::vector<std::vector<int>>> grown;
    for (const auto& partition : out) {
      for (size_t b = 0; b <= partition.size(); ++b) {
        std::vector<std::vector<int>> next = partition;
        if (b == partition.size()) {
          next.push_back({c});
        } else {
          next[b].push_back(c);
        }
        grown.push_back(std::move(next));
      }
    }
    out = std::move(grown);
  }
  return out;
}

std::vector<PartitionMachine> MakePartitionMachines(const Alphabet& sigma) {
  std::vector<PartitionMachine> out;
  for (int arity = 2; arity <= 4; ++arity) {
    for (std::vector<std::vector<int>>& blocks : SetPartitions(arity)) {
      AlgebraExpr joined = OrDie(
          JoinByPartition(AlgebraExpr::Relation("_", arity), blocks, sigma),
          "partition machine");
      // The all-singleton partition's projection is the identity, so
      // its σ is the whole expression.
      const AlgebraExpr& selected =
          joined.kind() == AlgebraExpr::Kind::kSelect ? joined : joined.Left();
      out.push_back({arity, std::move(blocks), Fsa(selected.fsa())});
    }
  }
  return out;
}

AlgebraExpr RandomPartitionJoin(RandomSource& rand, const FsaPool& pool,
                                const std::vector<PartitionMachine>& machines) {
  AlgebraExpr left = AlgebraExpr::Relation("P", 2);
  AlgebraExpr right = left;
  std::vector<std::vector<int>> two_keys = {{0, 2}, {1, 3}};
  const bool p_times_p = rand.Range(0, 3) == 0;
  if (!p_times_p) {
    auto operand = [&]() {
      AlgebraExpr e = RandomAlgebraExpr(rand, pool, 1);
      if (e.arity() == 0) return AlgebraExpr::Relation("R0", 1);
      if (e.arity() > 2) return AlgebraExpr::Relation("P", 2);
      return e;
    };
    left = operand();
    right = operand();
  }
  std::vector<const PartitionMachine*> fitting;
  for (const PartitionMachine& m : machines) {
    if (m.arity == left.arity() + right.arity() &&
        (!p_times_p || m.blocks == two_keys)) {
      fitting.push_back(&m);
    }
  }
  const PartitionMachine& machine = *fitting[static_cast<size_t>(
      rand.Range(0, static_cast<int>(fitting.size()) - 1))];
  AlgebraExpr selected =
      OrDie(AlgebraExpr::Select(
                AlgebraExpr::Product(std::move(left), std::move(right)),
                Fsa(machine.fsa)),
            "partition join");
  if (rand.Coin()) return selected;
  std::vector<int> columns;
  for (const std::vector<int>& block : machine.blocks) {
    columns.push_back(block.front());
  }
  return OrDie(AlgebraExpr::Project(std::move(selected), std::move(columns)),
               "partition join projection");
}

std::string RandomStringFormulaText(RandomSource& rand, const Alphabet& sigma,
                                    int depth) {
  if (depth <= 0 || rand.Range(0, 4) == 0) {
    // Atoms.  The pool mixes the paper's workhorses: constants,
    // equalities, end-of-string tests and (for y only) right transposes,
    // so generated formulae stay right-restricted.
    switch (rand.Range(0, 7)) {
      case 0: {
        char c = sigma.CharOf(static_cast<Sym>(
            rand.Below(static_cast<uint64_t>(sigma.size()))));
        return std::string("[x]l(x = '") + c + "')";
      }
      case 1:
        return "[x,y]l(x = y)";
      case 2:
        return "[x]l(!(x = ~))";
      case 3:
        return "[x,y]l(x = y = ~)";
      case 4:
        return "[y]r(!(y = ~))";
      case 5:
        return "[y]r(y = ~)";
      case 6:
        return "[y]l(true)";
      default:
        return "[x]l(x = ~)";
    }
  }
  switch (rand.Range(0, 3)) {
    case 0:
      return std::string("(") +
             RandomStringFormulaText(rand, sigma, depth - 1) + " . " +
             RandomStringFormulaText(rand, sigma, depth - 1) + ")";
    case 1:
      return std::string("(") +
             RandomStringFormulaText(rand, sigma, depth - 1) + " + " +
             RandomStringFormulaText(rand, sigma, depth - 1) + ")";
    default:
      return std::string("(") +
             RandomStringFormulaText(rand, sigma, depth - 1) + ")*";
  }
}

}  // namespace testgen
}  // namespace strdb
