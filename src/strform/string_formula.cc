#include "strform/string_formula.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <utility>

namespace strdb {

// ---------------------------------------------------------------------------
// AtomicStringFormula

Result<bool> AtomicStringFormula::Eval(const Alignment& alignment,
                                       const Assignment& assignment,
                                       Alignment* out) const {
  RowTranspose t;
  t.dir = dir;
  for (const std::string& var : transposed) {
    STRDB_ASSIGN_OR_RETURN(int row, assignment.RowOf(var));
    t.rows.push_back(row);
  }
  Alignment next = alignment.Transposed(t);
  STRDB_ASSIGN_OR_RETURN(bool truth, window.Eval(next, assignment));
  if (out != nullptr) *out = std::move(next);
  return truth;
}

std::string AtomicStringFormula::ToString() const {
  std::string s = "[";
  for (size_t i = 0; i < transposed.size(); ++i) {
    if (i > 0) s += ",";
    s += transposed[i];
  }
  s += "]";
  s += (dir == Dir::kLeft) ? "l" : "r";
  s += "(";
  s += window.ToString();
  s += ")";
  return s;
}

std::set<std::string> AtomicStringFormula::Vars() const {
  std::set<std::string> vars = window.Vars();
  vars.insert(transposed.begin(), transposed.end());
  return vars;
}

bool AtomicStringFormula::operator==(const AtomicStringFormula& other) const {
  return dir == other.dir && transposed == other.transposed &&
         window == other.window;
}

// ---------------------------------------------------------------------------
// StringFormula AST

struct StringFormula::Node {
  Kind kind = Kind::kLambda;
  AtomicStringFormula atom;           // kAtomic
  std::shared_ptr<const Node> left;   // kConcat, kUnion, kStar
  std::shared_ptr<const Node> right;  // kConcat, kUnion
};

StringFormula StringFormula::Lambda() {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kLambda;
  return StringFormula(std::move(node));
}

StringFormula StringFormula::Atomic(AtomicStringFormula atom) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAtomic;
  node->atom = std::move(atom);
  return StringFormula(std::move(node));
}

StringFormula StringFormula::Atomic(Dir dir,
                                    std::vector<std::string> transposed,
                                    WindowFormula window) {
  AtomicStringFormula atom;
  atom.dir = dir;
  atom.transposed = std::move(transposed);
  atom.window = std::move(window);
  return Atomic(std::move(atom));
}

StringFormula StringFormula::Concat(StringFormula a, StringFormula b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConcat;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return StringFormula(std::move(node));
}

StringFormula StringFormula::ConcatAll(std::vector<StringFormula> parts) {
  if (parts.empty()) return Lambda();
  StringFormula out = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    out = Concat(std::move(out), std::move(parts[i]));
  }
  return out;
}

StringFormula StringFormula::Union(StringFormula a, StringFormula b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kUnion;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return StringFormula(std::move(node));
}

StringFormula StringFormula::UnionAll(std::vector<StringFormula> parts) {
  assert(!parts.empty());
  StringFormula out = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    out = Union(std::move(out), std::move(parts[i]));
  }
  return out;
}

StringFormula StringFormula::Star(StringFormula f) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kStar;
  node->left = std::move(f.node_);
  return StringFormula(std::move(node));
}

StringFormula StringFormula::Plus(StringFormula f) {
  StringFormula copy = f;
  return Concat(std::move(copy), Star(std::move(f)));
}

StringFormula StringFormula::Power(StringFormula f, int n) {
  StringFormula out = Lambda();
  for (int i = 0; i < n; ++i) out = Concat(std::move(out), f);
  return out;
}

StringFormula::Kind StringFormula::kind() const { return node_->kind; }

const AtomicStringFormula& StringFormula::atom() const {
  assert(kind() == Kind::kAtomic);
  return node_->atom;
}

const StringFormula StringFormula::Left() const {
  assert(node_->left != nullptr);
  return StringFormula(node_->left);
}

const StringFormula StringFormula::Right() const {
  assert(node_->right != nullptr);
  return StringFormula(node_->right);
}

namespace {

void CollectAtoms(const StringFormula& f,
                  std::vector<AtomicStringFormula>* out) {
  switch (f.kind()) {
    case StringFormula::Kind::kLambda:
      break;
    case StringFormula::Kind::kAtomic:
      out->push_back(f.atom());
      break;
    case StringFormula::Kind::kStar:
      CollectAtoms(f.Left(), out);
      break;
    case StringFormula::Kind::kConcat:
    case StringFormula::Kind::kUnion:
      CollectAtoms(f.Left(), out);
      CollectAtoms(f.Right(), out);
      break;
  }
}

}  // namespace

std::vector<std::string> StringFormula::Vars() const {
  std::vector<AtomicStringFormula> atoms;
  CollectAtoms(*this, &atoms);
  std::set<std::string> vars;
  for (const AtomicStringFormula& a : atoms) {
    std::set<std::string> av = a.Vars();
    vars.insert(av.begin(), av.end());
  }
  return std::vector<std::string>(vars.begin(), vars.end());
}

std::set<std::string> StringFormula::BidirectionalVars() const {
  std::vector<AtomicStringFormula> atoms;
  CollectAtoms(*this, &atoms);
  std::set<std::string> out;
  for (const AtomicStringFormula& a : atoms) {
    if (a.dir == Dir::kRight) {
      out.insert(a.transposed.begin(), a.transposed.end());
    }
  }
  return out;
}

bool StringFormula::IsRightRestricted() const {
  return BidirectionalVars().size() <= 1;
}

bool StringFormula::IsUnidirectional() const {
  return BidirectionalVars().empty();
}

// ---------------------------------------------------------------------------
// Word NFA + direct satisfaction (truth definition 9)

namespace {

// A Thompson-style NFA over the alphabet of atomic string formulae.
struct WordNfa {
  struct Edge {
    int to = 0;
    int atom = -1;  // -1 = epsilon
  };
  std::vector<std::vector<Edge>> edges;
  std::vector<AtomicStringFormula> atoms;
  int start = 0;
  int accept = 0;

  int NewState() {
    edges.emplace_back();
    return static_cast<int>(edges.size()) - 1;
  }
  void AddEps(int from, int to) { edges[from].push_back(Edge{to, -1}); }
  void AddAtom(int from, int to, AtomicStringFormula atom) {
    atoms.push_back(std::move(atom));
    edges[from].push_back(Edge{to, static_cast<int>(atoms.size()) - 1});
  }
};

// Builds the fragment for `f` between fresh states; returns (in, out).
std::pair<int, int> BuildNfa(const StringFormula& f, WordNfa* nfa) {
  switch (f.kind()) {
    case StringFormula::Kind::kLambda: {
      int a = nfa->NewState();
      int b = nfa->NewState();
      nfa->AddEps(a, b);
      return {a, b};
    }
    case StringFormula::Kind::kAtomic: {
      int a = nfa->NewState();
      int b = nfa->NewState();
      nfa->AddAtom(a, b, f.atom());
      return {a, b};
    }
    case StringFormula::Kind::kConcat: {
      auto [la, lb] = BuildNfa(f.Left(), nfa);
      auto [ra, rb] = BuildNfa(f.Right(), nfa);
      nfa->AddEps(lb, ra);
      return {la, rb};
    }
    case StringFormula::Kind::kUnion: {
      int a = nfa->NewState();
      int b = nfa->NewState();
      auto [la, lb] = BuildNfa(f.Left(), nfa);
      auto [ra, rb] = BuildNfa(f.Right(), nfa);
      nfa->AddEps(a, la);
      nfa->AddEps(a, ra);
      nfa->AddEps(lb, b);
      nfa->AddEps(rb, b);
      return {a, b};
    }
    case StringFormula::Kind::kStar: {
      int a = nfa->NewState();
      int b = nfa->NewState();
      auto [ia, ib] = BuildNfa(f.Left(), nfa);
      nfa->AddEps(a, ia);
      nfa->AddEps(ib, a);
      nfa->AddEps(a, b);
      return {a, b};
    }
  }
  // Unreachable.
  int a = nfa->NewState();
  return {a, a};
}

}  // namespace

Result<bool> StringFormula::Satisfies(const Alignment& alignment,
                                      const Assignment& assignment) const {
  // Resolve all variables up front.
  std::vector<std::string> vars = Vars();
  std::vector<int> rows;
  std::vector<std::string> contents;
  std::vector<int> lens;
  std::map<std::string, int> var_index;
  for (size_t i = 0; i < vars.size(); ++i) {
    STRDB_ASSIGN_OR_RETURN(int row, assignment.RowOf(vars[i]));
    rows.push_back(row);
    contents.push_back(alignment.StringOf(row));
    lens.push_back(static_cast<int>(contents.back().size()));
    var_index[vars[i]] = static_cast<int>(i);
  }

  WordNfa nfa;
  auto [start, accept] = BuildNfa(*this, &nfa);
  nfa.start = start;
  nfa.accept = accept;

  // Pre-resolve each atom's transposed variables and window evaluation to
  // indices into the position vector.
  struct ResolvedAtom {
    Dir dir;
    std::vector<int> indices;  // into the position vector
    const WindowFormula* window;
  };
  std::vector<ResolvedAtom> resolved;
  resolved.reserve(nfa.atoms.size());
  for (const AtomicStringFormula& a : nfa.atoms) {
    ResolvedAtom r;
    r.dir = a.dir;
    for (const std::string& v : a.transposed) r.indices.push_back(var_index[v]);
    r.window = &a.window;
    resolved.push_back(std::move(r));
  }

  // Initial positions come from the given alignment (definition 9 is
  // stated for arbitrary alignments, not only initial ones).
  std::vector<int> init_pos;
  for (int row : rows) init_pos.push_back(alignment.PosOf(row));

  auto window_char = [&](const std::vector<int>& pos,
                         int var_idx) -> std::optional<char> {
    int p = pos[static_cast<size_t>(var_idx)];
    if (p >= 1 && p <= lens[static_cast<size_t>(var_idx)]) {
      return contents[static_cast<size_t>(var_idx)][static_cast<size_t>(p - 1)];
    }
    return std::nullopt;
  };

  // BFS over (nfa state, position vector) configurations.
  using Config = std::pair<int, std::vector<int>>;
  std::set<Config> visited;
  std::deque<Config> frontier;
  Config init{nfa.start, init_pos};
  visited.insert(init);
  frontier.push_back(std::move(init));

  while (!frontier.empty()) {
    auto [state, pos] = std::move(frontier.front());
    frontier.pop_front();
    if (state == nfa.accept) return true;
    for (const WordNfa::Edge& e : nfa.edges[static_cast<size_t>(state)]) {
      std::vector<int> next_pos = pos;
      if (e.atom >= 0) {
        const ResolvedAtom& atom = resolved[static_cast<size_t>(e.atom)];
        for (int idx : atom.indices) {
          int& p = next_pos[static_cast<size_t>(idx)];
          if (atom.dir == Dir::kLeft) {
            if (p <= lens[static_cast<size_t>(idx)]) ++p;
          } else {
            if (p >= 1) --p;
          }
        }
        bool truth = atom.window->EvalWith(
            [&](const std::string& v) -> std::optional<char> {
              auto it = var_index.find(v);
              assert(it != var_index.end());
              return window_char(next_pos, it->second);
            });
        if (!truth) continue;
      }
      Config next{e.to, std::move(next_pos)};
      if (visited.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  return false;
}

Result<bool> StringFormula::AcceptsStrings(
    const std::vector<std::string>& vars,
    const std::vector<std::string>& strings) const {
  if (vars.size() != strings.size()) {
    return Status::InvalidArgument("vars and strings differ in length");
  }
  Assignment assignment;
  for (size_t i = 0; i < vars.size(); ++i) {
    STRDB_RETURN_IF_ERROR(assignment.Bind(vars[i], static_cast<int>(i)));
  }
  Alignment a0 = Alignment::Initial(strings);
  return Satisfies(a0, assignment);
}

// ---------------------------------------------------------------------------
// Word enumeration (tests)

namespace {

void Dedupe(std::vector<FormulaWord>* words) {
  std::set<std::string> seen;
  std::vector<FormulaWord> out;
  for (FormulaWord& w : *words) {
    std::string key;
    for (const AtomicStringFormula& a : w) key += a.ToString() + ";";
    if (seen.insert(key).second) out.push_back(std::move(w));
  }
  *words = std::move(out);
}

std::vector<FormulaWord> Words(const StringFormula& f, int max_len) {
  std::vector<FormulaWord> out;
  switch (f.kind()) {
    case StringFormula::Kind::kLambda:
      out.push_back({});
      break;
    case StringFormula::Kind::kAtomic:
      if (max_len >= 1) out.push_back({f.atom()});
      break;
    case StringFormula::Kind::kConcat: {
      std::vector<FormulaWord> left = Words(f.Left(), max_len);
      for (const FormulaWord& lw : left) {
        int budget = max_len - static_cast<int>(lw.size());
        for (FormulaWord& rw : Words(f.Right(), budget)) {
          FormulaWord w = lw;
          w.insert(w.end(), rw.begin(), rw.end());
          out.push_back(std::move(w));
        }
      }
      break;
    }
    case StringFormula::Kind::kUnion: {
      out = Words(f.Left(), max_len);
      std::vector<FormulaWord> right = Words(f.Right(), max_len);
      out.insert(out.end(), right.begin(), right.end());
      break;
    }
    case StringFormula::Kind::kStar: {
      out.push_back({});
      std::vector<FormulaWord> frontier = {{}};
      std::vector<FormulaWord> body = Words(f.Left(), max_len);
      bool grew = true;
      while (grew) {
        grew = false;
        std::vector<FormulaWord> next;
        for (const FormulaWord& prefix : frontier) {
          for (const FormulaWord& b : body) {
            if (b.empty()) continue;
            if (static_cast<int>(prefix.size() + b.size()) > max_len) continue;
            FormulaWord w = prefix;
            w.insert(w.end(), b.begin(), b.end());
            next.push_back(std::move(w));
            grew = true;
          }
        }
        Dedupe(&next);
        out.insert(out.end(), next.begin(), next.end());
        frontier = std::move(next);
      }
      break;
    }
  }
  Dedupe(&out);
  return out;
}

}  // namespace

std::vector<FormulaWord> StringFormula::WordsUpTo(int max_len) const {
  return Words(*this, max_len);
}

StringFormula StringFormula::RenameVars(
    const std::map<std::string, std::string>& renaming) const {
  switch (kind()) {
    case Kind::kLambda:
      return Lambda();
    case Kind::kAtomic: {
      AtomicStringFormula a;
      a.dir = atom().dir;
      for (const std::string& v : atom().transposed) {
        auto it = renaming.find(v);
        a.transposed.push_back(it == renaming.end() ? v : it->second);
      }
      a.window = atom().window.RenameVars(renaming);
      return Atomic(std::move(a));
    }
    case Kind::kConcat:
      return Concat(Left().RenameVars(renaming), Right().RenameVars(renaming));
    case Kind::kUnion:
      return Union(Left().RenameVars(renaming), Right().RenameVars(renaming));
    case Kind::kStar:
      return Star(Left().RenameVars(renaming));
  }
  return Lambda();
}

int StringFormula::Size() const {
  switch (kind()) {
    case Kind::kLambda:
    case Kind::kAtomic:
      return 1;
    case Kind::kStar:
      return 1 + Left().Size();
    case Kind::kConcat:
    case Kind::kUnion:
      return 1 + Left().Size() + Right().Size();
  }
  return 1;
}

std::string StringFormula::ToString() const {
  switch (kind()) {
    case Kind::kLambda:
      return "lambda";
    case Kind::kAtomic:
      return atom().ToString();
    case Kind::kConcat:
      return std::string("(") + Left().ToString() + " . " +
             Right().ToString() + ")";
    case Kind::kUnion:
      return std::string("(") + Left().ToString() + " + " +
             Right().ToString() + ")";
    case Kind::kStar:
      return std::string("(") + Left().ToString() + ")*";
  }
  return "?";
}

}  // namespace strdb
