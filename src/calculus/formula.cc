#include "calculus/formula.h"

#include <cassert>

namespace strdb {

struct CalcFormula::Node {
  Kind kind = Kind::kString;
  StringFormula str = StringFormula::Lambda();  // kString
  std::string relation;                         // kRelAtom
  std::vector<std::string> args;                // kRelAtom
  std::string var;                              // kExists/kForAll
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

CalcFormula CalcFormula::Str(StringFormula f) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kString;
  node->str = std::move(f);
  return CalcFormula(std::move(node));
}

CalcFormula CalcFormula::RelAtom(std::string relation,
                                 std::vector<std::string> args) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRelAtom;
  node->relation = std::move(relation);
  node->args = std::move(args);
  return CalcFormula(std::move(node));
}

CalcFormula CalcFormula::And(CalcFormula a, CalcFormula b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return CalcFormula(std::move(node));
}

CalcFormula CalcFormula::Or(CalcFormula a, CalcFormula b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return CalcFormula(std::move(node));
}

CalcFormula CalcFormula::Not(CalcFormula f) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = std::move(f.node_);
  return CalcFormula(std::move(node));
}

CalcFormula CalcFormula::Implies(CalcFormula a, CalcFormula b) {
  return Or(Not(std::move(a)), std::move(b));
}

CalcFormula CalcFormula::Exists(const std::vector<std::string>& vars,
                                CalcFormula body) {
  assert(!vars.empty());
  CalcFormula out = std::move(body);
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kExists;
    node->var = *it;
    node->left = std::move(out.node_);
    out = CalcFormula(std::move(node));
  }
  return out;
}

CalcFormula CalcFormula::ForAll(const std::vector<std::string>& vars,
                                CalcFormula body) {
  assert(!vars.empty());
  CalcFormula out = std::move(body);
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kForAll;
    node->var = *it;
    node->left = std::move(out.node_);
    out = CalcFormula(std::move(node));
  }
  return out;
}

CalcFormula::Kind CalcFormula::kind() const { return node_->kind; }

const StringFormula& CalcFormula::str() const {
  assert(kind() == Kind::kString);
  return node_->str;
}

const std::string& CalcFormula::relation() const {
  assert(kind() == Kind::kRelAtom);
  return node_->relation;
}

const std::vector<std::string>& CalcFormula::args() const {
  assert(kind() == Kind::kRelAtom);
  return node_->args;
}

const CalcFormula CalcFormula::Left() const {
  assert(node_->left != nullptr);
  return CalcFormula(node_->left);
}

const CalcFormula CalcFormula::Right() const {
  assert(node_->right != nullptr);
  return CalcFormula(node_->right);
}

const std::string& CalcFormula::var() const {
  assert(kind() == Kind::kExists || kind() == Kind::kForAll);
  return node_->var;
}

namespace {

void CollectFree(const CalcFormula& f, std::set<std::string>* bound,
                 std::set<std::string>* free) {
  switch (f.kind()) {
    case CalcFormula::Kind::kString:
      for (const std::string& v : f.str().Vars()) {
        if (bound->count(v) == 0) free->insert(v);
      }
      break;
    case CalcFormula::Kind::kRelAtom:
      for (const std::string& v : f.args()) {
        if (bound->count(v) == 0) free->insert(v);
      }
      break;
    case CalcFormula::Kind::kAnd:
    case CalcFormula::Kind::kOr:
      CollectFree(f.Left(), bound, free);
      CollectFree(f.Right(), bound, free);
      break;
    case CalcFormula::Kind::kNot:
      CollectFree(f.Left(), bound, free);
      break;
    case CalcFormula::Kind::kExists:
    case CalcFormula::Kind::kForAll: {
      bool was_bound = bound->count(f.var()) > 0;
      bound->insert(f.var());
      CollectFree(f.Left(), bound, free);
      if (!was_bound) bound->erase(f.var());
      break;
    }
  }
}

}  // namespace

std::vector<std::string> CalcFormula::FreeVars() const {
  std::set<std::string> bound;
  std::set<std::string> free;
  CollectFree(*this, &bound, &free);
  return std::vector<std::string>(free.begin(), free.end());
}

bool CalcFormula::IsPure() const {
  switch (kind()) {
    case Kind::kString:
      return true;
    case Kind::kRelAtom:
      return false;
    case Kind::kAnd:
    case Kind::kOr:
      return Left().IsPure() && Right().IsPure();
    case Kind::kNot:
    case Kind::kExists:
    case Kind::kForAll:
      return Left().IsPure();
  }
  return true;
}

CalcFormula CalcFormula::RenameFreeVars(
    const std::map<std::string, std::string>& renaming) const {
  if (renaming.empty()) return *this;
  auto renamed = [&renaming](const std::string& v) {
    auto it = renaming.find(v);
    return it == renaming.end() ? v : it->second;
  };
  switch (kind()) {
    case Kind::kString:
      return Str(str().RenameVars(renaming));
    case Kind::kRelAtom: {
      std::vector<std::string> new_args;
      new_args.reserve(args().size());
      for (const std::string& v : args()) new_args.push_back(renamed(v));
      return RelAtom(relation(), std::move(new_args));
    }
    case Kind::kAnd:
      return And(Left().RenameFreeVars(renaming),
                 Right().RenameFreeVars(renaming));
    case Kind::kOr:
      return Or(Left().RenameFreeVars(renaming),
                Right().RenameFreeVars(renaming));
    case Kind::kNot:
      return Not(Left().RenameFreeVars(renaming));
    case Kind::kExists:
    case Kind::kForAll: {
      std::map<std::string, std::string> inner = renaming;
      inner.erase(var());  // shadowed
      CalcFormula body = Left().RenameFreeVars(inner);
      return kind() == Kind::kExists ? Exists({var()}, std::move(body))
                                     : ForAll({var()}, std::move(body));
    }
  }
  return *this;
}

std::string CalcFormula::ToString() const {
  switch (kind()) {
    case Kind::kString:
      return str().ToString();
    case Kind::kRelAtom: {
      std::string out = relation() + "(";
      for (size_t i = 0; i < args().size(); ++i) {
        if (i > 0) out += ",";
        out += args()[i];
      }
      return out + ")";
    }
    case Kind::kAnd:
      return std::string("(") + Left().ToString() + " & " +
             Right().ToString() + ")";
    case Kind::kOr:
      return std::string("(") + Left().ToString() + " | " +
             Right().ToString() + ")";
    case Kind::kNot:
      return "!(" + Left().ToString() + ")";
    case Kind::kExists:
      return "exists " + var() + ": (" + Left().ToString() + ")";
    case Kind::kForAll:
      return "forall " + var() + ": (" + Left().ToString() + ")";
  }
  return "?";
}

}  // namespace strdb
