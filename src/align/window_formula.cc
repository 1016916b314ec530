#include "align/window_formula.h"

#include <cassert>

namespace strdb {

WindowFormula WindowFormula::True() {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kTrue;
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::Undef(std::string var) {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kUndef;
  node->var_a = std::move(var);
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::CharEq(std::string var, char c) {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kCharEq;
  node->var_a = std::move(var);
  node->ch = c;
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::VarEq(std::string x, std::string y) {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kVarEq;
  node->var_a = std::move(x);
  node->var_b = std::move(y);
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::Not(WindowFormula f) {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kNot;
  node->left = std::move(f.node_);
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::And(WindowFormula a, WindowFormula b) {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kAnd;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::Or(WindowFormula a, WindowFormula b) {
  auto node = std::make_shared<WindowFormula::Node>();
  node->kind = Kind::kOr;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return WindowFormula(std::move(node));
}

WindowFormula WindowFormula::NotVarEq(std::string x, std::string y) {
  return Not(VarEq(std::move(x), std::move(y)));
}

WindowFormula WindowFormula::NotUndef(std::string var) {
  return Not(Undef(std::move(var)));
}

WindowFormula WindowFormula::NotCharEq(std::string var, char c) {
  return Not(CharEq(std::move(var), c));
}

WindowFormula WindowFormula::AllEqual(const std::vector<std::string>& vars) {
  assert(!vars.empty());
  if (vars.size() == 1) return True();
  WindowFormula out = VarEq(vars[0], vars[1]);
  for (size_t i = 2; i < vars.size(); ++i) {
    out = And(std::move(out), VarEq(vars[i - 1], vars[i]));
  }
  return out;
}

WindowFormula WindowFormula::AllUndef(const std::vector<std::string>& vars) {
  assert(!vars.empty());
  WindowFormula out = Undef(vars[0]);
  for (size_t i = 1; i < vars.size(); ++i) {
    out = And(std::move(out), Undef(vars[i]));
  }
  return out;
}

bool WindowFormula::EvalNode(
    const Node& node,
    const std::function<std::optional<char>(const std::string&)>& window) {
  switch (node.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kUndef:
      return !window(node.var_a).has_value();
    case Kind::kCharEq: {
      std::optional<char> c = window(node.var_a);
      return c.has_value() && *c == node.ch;
    }
    case Kind::kVarEq: {
      std::optional<char> a = window(node.var_a);
      std::optional<char> b = window(node.var_b);
      // Truth definition 3 compares the partial values A(θx,0) and
      // A(θy,0): two *undefined* positions are equal.  The paper's own
      // idiom "x = y = ε" (Examples 2, 10, 12) depends on this.
      return a == b;
    }
    case Kind::kNot:
      return !EvalNode(*node.left, window);
    case Kind::kAnd:
      return EvalNode(*node.left, window) && EvalNode(*node.right, window);
    case Kind::kOr:
      return EvalNode(*node.left, window) || EvalNode(*node.right, window);
  }
  return false;
}

bool WindowFormula::EvalWith(
    const std::function<std::optional<char>(const std::string&)>& window)
    const {
  return EvalNode(*node_, window);
}

Result<bool> WindowFormula::Eval(const Alignment& alignment,
                                 const Assignment& assignment) const {
  // Check that all variables are bound first so the lambda below cannot
  // silently misreport an unbound variable as undefined.
  for (const std::string& var : Vars()) {
    STRDB_RETURN_IF_ERROR(assignment.RowOf(var).status());
  }
  return EvalWith([&](const std::string& var) -> std::optional<char> {
    Result<int> row = assignment.RowOf(var);
    assert(row.ok());
    return alignment.WindowChar(*row);
  });
}

void WindowFormula::CollectVars(const Node& node, std::set<std::string>* out) {
  switch (node.kind) {
    case Kind::kTrue:
      break;
    case Kind::kUndef:
    case Kind::kCharEq:
      out->insert(node.var_a);
      break;
    case Kind::kVarEq:
      out->insert(node.var_a);
      out->insert(node.var_b);
      break;
    case Kind::kNot:
      CollectVars(*node.left, out);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      CollectVars(*node.left, out);
      CollectVars(*node.right, out);
      break;
  }
}

std::set<std::string> WindowFormula::Vars() const {
  std::set<std::string> out;
  CollectVars(*node_, &out);
  return out;
}

namespace {
std::string Renamed(const std::map<std::string, std::string>& renaming,
                    const std::string& var) {
  auto it = renaming.find(var);
  return it == renaming.end() ? var : it->second;
}
}  // namespace

WindowFormula WindowFormula::RenameVars(
    const std::map<std::string, std::string>& renaming) const {
  switch (kind()) {
    case Kind::kTrue:
      return True();
    case Kind::kUndef:
      return Undef(Renamed(renaming, node_->var_a));
    case Kind::kCharEq:
      return CharEq(Renamed(renaming, node_->var_a), node_->ch);
    case Kind::kVarEq:
      return VarEq(Renamed(renaming, node_->var_a),
                   Renamed(renaming, node_->var_b));
    case Kind::kNot:
      return Not(WindowFormula(node_->left).RenameVars(renaming));
    case Kind::kAnd:
      return And(WindowFormula(node_->left).RenameVars(renaming),
                 WindowFormula(node_->right).RenameVars(renaming));
    case Kind::kOr:
      return Or(WindowFormula(node_->left).RenameVars(renaming),
                WindowFormula(node_->right).RenameVars(renaming));
  }
  return True();
}

std::string WindowFormula::NodeToString(const Node& node) {
  switch (node.kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kUndef:
      return node.var_a + " = ~";
    case Kind::kCharEq:
      return node.var_a + " = '" + node.ch + "'";
    case Kind::kVarEq:
      return node.var_a + " = " + node.var_b;
    case Kind::kNot:
      return "!(" + NodeToString(*node.left) + ")";
    case Kind::kAnd:
      return std::string("(") + NodeToString(*node.left) + " & " +
             NodeToString(*node.right) + ")";
    case Kind::kOr:
      return std::string("(") + NodeToString(*node.left) + " | " +
             NodeToString(*node.right) + ")";
  }
  return "?";
}

std::string WindowFormula::ToString() const { return NodeToString(*node_); }

bool WindowFormula::NodeEquals(const Node& a, const Node& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kUndef:
      return a.var_a == b.var_a;
    case Kind::kCharEq:
      return a.var_a == b.var_a && a.ch == b.ch;
    case Kind::kVarEq:
      return a.var_a == b.var_a && a.var_b == b.var_b;
    case Kind::kNot:
      return NodeEquals(*a.left, *b.left);
    case Kind::kAnd:
    case Kind::kOr:
      return NodeEquals(*a.left, *b.left) && NodeEquals(*a.right, *b.right);
  }
  return false;
}

bool WindowFormula::operator==(const WindowFormula& other) const {
  return NodeEquals(*node_, *other.node_);
}

}  // namespace strdb
