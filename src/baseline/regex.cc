#include "baseline/regex.h"

#include <cassert>
#include <deque>
#include <functional>

namespace strdb {

struct Regex::Node {
  Kind kind = Kind::kEpsilon;
  char ch = 0;
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

Regex Regex::Epsilon() {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kEpsilon;
  return Regex(std::move(node));
}

Regex Regex::Char(char c) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kChar;
  node->ch = c;
  return Regex(std::move(node));
}

Regex Regex::Concat(Regex a, Regex b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConcat;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return Regex(std::move(node));
}

Regex Regex::Union(Regex a, Regex b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kUnion;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return Regex(std::move(node));
}

Regex Regex::Star(Regex r) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kStar;
  node->left = std::move(r.node_);
  return Regex(std::move(node));
}

Regex::Kind Regex::kind() const { return node_->kind; }
char Regex::ch() const { return node_->ch; }
const Regex Regex::Left() const {
  assert(node_->left != nullptr);
  return Regex(node_->left);
}
const Regex Regex::Right() const {
  assert(node_->right != nullptr);
  return Regex(node_->right);
}

namespace {

class RegexParser {
 public:
  RegexParser(const std::string& input, const Alphabet& alphabet)
      : input_(input), alphabet_(alphabet) {}

  Result<Regex> Parse() {
    STRDB_ASSIGN_OR_RETURN(Regex r, ParseUnion());
    if (pos_ != input_.size()) {
      return Status::InvalidArgument("trailing input in regex at offset " +
                                     std::to_string(pos_));
    }
    return r;
  }

 private:
  bool AtAtomStart() const {
    if (pos_ >= input_.size()) return false;
    char c = input_[pos_];
    return c == '(' || c == '%' || alphabet_.Contains(std::string(1, c));
  }

  Result<Regex> ParseAtom() {
    if (pos_ >= input_.size()) {
      return Status::InvalidArgument("regex ended unexpectedly");
    }
    char c = input_[pos_];
    if (c == '(') {
      ++pos_;
      STRDB_ASSIGN_OR_RETURN(Regex inner, ParseUnion());
      if (pos_ >= input_.size() || input_[pos_] != ')') {
        return Status::InvalidArgument("expected ')' at offset " +
                                       std::to_string(pos_));
      }
      ++pos_;
      return inner;
    }
    if (c == '%') {
      ++pos_;
      return Regex::Epsilon();
    }
    if (!alphabet_.Contains(std::string(1, c))) {
      return Status::InvalidArgument(std::string("character '") + c +
                                     "' not in the alphabet");
    }
    ++pos_;
    return Regex::Char(c);
  }

  Result<Regex> ParsePostfix() {
    STRDB_ASSIGN_OR_RETURN(Regex r, ParseAtom());
    while (pos_ < input_.size() && input_[pos_] == '*') {
      ++pos_;
      r = Regex::Star(std::move(r));
    }
    return r;
  }

  Result<Regex> ParseConcat() {
    STRDB_ASSIGN_OR_RETURN(Regex r, ParsePostfix());
    for (;;) {
      if (pos_ < input_.size() && input_[pos_] == '.') {
        ++pos_;
        STRDB_ASSIGN_OR_RETURN(Regex rhs, ParsePostfix());
        r = Regex::Concat(std::move(r), std::move(rhs));
      } else if (AtAtomStart()) {
        STRDB_ASSIGN_OR_RETURN(Regex rhs, ParsePostfix());
        r = Regex::Concat(std::move(r), std::move(rhs));
      } else {
        break;
      }
    }
    return r;
  }

  Result<Regex> ParseUnion() {
    STRDB_ASSIGN_OR_RETURN(Regex r, ParseConcat());
    while (pos_ < input_.size() && input_[pos_] == '+') {
      ++pos_;
      STRDB_ASSIGN_OR_RETURN(Regex rhs, ParseConcat());
      r = Regex::Union(std::move(r), std::move(rhs));
    }
    return r;
  }

  const std::string& input_;
  const Alphabet& alphabet_;
  size_t pos_ = 0;
};

}  // namespace

Result<Regex> Regex::Parse(const std::string& pattern,
                           const Alphabet& alphabet) {
  RegexParser parser(pattern, alphabet);
  return parser.Parse();
}

std::string Regex::ToString() const {
  switch (kind()) {
    case Kind::kEpsilon:
      return "%";
    case Kind::kChar:
      return std::string(1, ch());
    case Kind::kConcat:
      return std::string("(") + Left().ToString() + Right().ToString() + ")";
    case Kind::kUnion:
      return std::string("(") + Left().ToString() + "+" + Right().ToString() +
             ")";
    case Kind::kStar:
      return std::string("(") + Left().ToString() + ")*";
  }
  return "?";
}

RegexMatcher::RegexMatcher(const Regex& regex) {
  // Thompson construction.
  auto new_state = [&]() {
    edges_.emplace_back();
    return static_cast<int>(edges_.size()) - 1;
  };
  std::function<std::pair<int, int>(const Regex&)> build =
      [&](const Regex& r) -> std::pair<int, int> {
    int in = new_state();
    int out = new_state();
    switch (r.kind()) {
      case Regex::Kind::kEpsilon:
        edges_[static_cast<size_t>(in)].push_back(Edge{out, 0});
        break;
      case Regex::Kind::kChar:
        edges_[static_cast<size_t>(in)].push_back(Edge{out, r.ch()});
        break;
      case Regex::Kind::kConcat: {
        auto [la, lb] = build(r.Left());
        auto [ra, rb] = build(r.Right());
        edges_[static_cast<size_t>(in)].push_back(Edge{la, 0});
        edges_[static_cast<size_t>(lb)].push_back(Edge{ra, 0});
        edges_[static_cast<size_t>(rb)].push_back(Edge{out, 0});
        break;
      }
      case Regex::Kind::kUnion: {
        auto [la, lb] = build(r.Left());
        auto [ra, rb] = build(r.Right());
        edges_[static_cast<size_t>(in)].push_back(Edge{la, 0});
        edges_[static_cast<size_t>(in)].push_back(Edge{ra, 0});
        edges_[static_cast<size_t>(lb)].push_back(Edge{out, 0});
        edges_[static_cast<size_t>(rb)].push_back(Edge{out, 0});
        break;
      }
      case Regex::Kind::kStar: {
        auto [ia, ib] = build(r.Left());
        edges_[static_cast<size_t>(in)].push_back(Edge{out, 0});
        edges_[static_cast<size_t>(in)].push_back(Edge{ia, 0});
        edges_[static_cast<size_t>(ib)].push_back(Edge{ia, 0});
        edges_[static_cast<size_t>(ib)].push_back(Edge{out, 0});
        break;
      }
    }
    return {in, out};
  };
  auto [s, a] = build(regex);
  start_ = s;
  accept_ = a;
}

void RegexMatcher::Closure(std::vector<bool>* states) const {
  std::deque<int> queue;
  for (size_t i = 0; i < states->size(); ++i) {
    if ((*states)[i]) queue.push_back(static_cast<int>(i));
  }
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop_front();
    for (const Edge& e : edges_[static_cast<size_t>(s)]) {
      if (e.ch == 0 && !(*states)[static_cast<size_t>(e.to)]) {
        (*states)[static_cast<size_t>(e.to)] = true;
        queue.push_back(e.to);
      }
    }
  }
}

bool RegexMatcher::Matches(const std::string& s) const {
  std::vector<bool> current(edges_.size(), false);
  current[static_cast<size_t>(start_)] = true;
  Closure(&current);
  for (char c : s) {
    std::vector<bool> next(edges_.size(), false);
    for (size_t st = 0; st < current.size(); ++st) {
      if (!current[st]) continue;
      for (const Edge& e : edges_[st]) {
        if (e.ch == c) next[static_cast<size_t>(e.to)] = true;
      }
    }
    Closure(&next);
    current = std::move(next);
  }
  return current[static_cast<size_t>(accept_)];
}

}  // namespace strdb
