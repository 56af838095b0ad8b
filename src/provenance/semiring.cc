#include "provenance/semiring.h"

#include "common/str_util.h"

namespace lipstick {

Monomial Monomial::Var(const std::string& token) {
  Monomial m;
  m.vars_[token] = 1;
  return m;
}

Monomial Monomial::Times(const Monomial& other) const {
  Monomial out = *this;
  for (const auto& [tok, exp] : other.vars_) out.vars_[tok] += exp;
  return out;
}

std::string Monomial::ToString() const {
  if (vars_.empty()) return "1";
  std::vector<std::string> parts;
  for (const auto& [tok, exp] : vars_) {
    parts.push_back(exp == 1 ? tok : StrCat(tok, "^", exp));
  }
  return Join(parts, "*");
}

Polynomial Polynomial::One() {
  Polynomial p;
  p.terms_[Monomial()] = 1;
  return p;
}

Polynomial Polynomial::Var(const std::string& token) {
  Polynomial p;
  p.terms_[Monomial::Var(token)] = 1;
  return p;
}

Polynomial Polynomial::Plus(const Polynomial& other) const {
  Polynomial out = *this;
  for (const auto& [m, c] : other.terms_) out.terms_[m] += c;
  return out;
}

Polynomial Polynomial::Times(const Polynomial& other) const {
  Polynomial out;
  for (const auto& [ma, ca] : terms_) {
    for (const auto& [mb, cb] : other.terms_) {
      out.terms_[ma.Times(mb)] += ca * cb;
    }
  }
  return out;
}

uint64_t Polynomial::Eval(
    const std::map<std::string, uint64_t>& assignment) const {
  uint64_t total = 0;
  for (const auto& [m, c] : terms_) {
    uint64_t term = c;
    for (const auto& [tok, exp] : m.vars()) {
      auto it = assignment.find(tok);
      uint64_t v = it == assignment.end() ? 1 : it->second;
      for (uint32_t e = 0; e < exp; ++e) term *= v;
    }
    total += term;
  }
  return total;
}

std::string Polynomial::ToString() const {
  if (terms_.empty()) return "0";
  std::vector<std::string> parts;
  for (const auto& [m, c] : terms_) {
    if (c == 1) {
      parts.push_back(m.ToString());
    } else if (m.vars().empty()) {
      parts.push_back(StrCat(c));
    } else {
      parts.push_back(StrCat(c, "*", m.ToString()));
    }
  }
  return Join(parts, " + ");
}

namespace {

std::string ExprString(const GraphSnapshot& g, NodeId id, int depth) {
  if (depth <= 0) return "...";
  NodeView n = g.node(id);
  auto join_parents = [&](const char* sep) {
    std::vector<std::string> parts;
    for (NodeId p : g.ParentsOf(id)) {
      if (g.Contains(p)) parts.push_back(ExprString(g, p, depth - 1));
    }
    return Join(parts, sep);
  };
  switch (n.label()) {
    case NodeLabel::kToken:
      return n.payload().empty() ? std::string("x?") : std::string(n.payload());
    case NodeLabel::kPlus:
      return StrCat("(", join_parents(" + "), ")");
    case NodeLabel::kTimes:
      return StrCat("(", join_parents(" * "), ")");
    case NodeLabel::kDelta:
      return StrCat("delta(", join_parents(" + "), ")");
    case NodeLabel::kTensor:
      return StrCat("(", join_parents(" (x) "), ")");
    case NodeLabel::kAggregate:
      return StrCat(n.payload(), "[", join_parents(", "), "]");
    case NodeLabel::kConstValue:
      return n.value().ToString();
    case NodeLabel::kBlackBox:
      return StrCat(n.payload(), "(", join_parents(", "), ")");
    case NodeLabel::kModuleInvocation:
      return StrCat("m<", n.payload(), ">");
    case NodeLabel::kZoomedModule:
      return StrCat("M<", n.payload(), ">(", join_parents(", "), ")");
  }
  return "?";
}

}  // namespace

std::string ProvExpressionString(const GraphSnapshot& snap, NodeId node,
                                 int max_depth) {
  if (!snap.Contains(node)) return "0";
  return ExprString(snap, node, max_depth);
}

}  // namespace lipstick
