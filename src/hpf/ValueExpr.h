//===- hpf/ValueExpr.h - Double-valued expressions of mini-HPF -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic a mini-HPF program carries: a statement's right-hand
/// side, the operand of its accumulator clause, and an array's initial
/// value. Every engine applies exactly this tree's operations in this
/// tree's order — no reassociation, no folding — so the tree oracle
/// (evalValue), the bytecode engine (a flat program built at plan
/// lowering) and the native engine (inline C) compute the same bits.
/// min and max have std::min/std::max's operand semantics, NaN included:
/// min(a, b) is b < a ? b : a, max(a, b) is a < b ? b : a.
///
/// Every front end bounds a tree by MaxValueDepth and MaxValueNodes, so no
/// input can overflow a recursive evaluator's or emitter's stack.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_HPF_VALUEEXPR_H
#define DHPF_HPF_VALUEEXPR_H

#include <cstdint>
#include <string>
#include <vector>

namespace dhpf {
namespace hpf {

struct ValueExpr {
  enum class Kind : uint8_t {
    Num,   ///< a decimal literal, Num
    Read,  ///< the statement's read number Index
    Value, ///< the value the statement just computed (accumulators only)
    Index, ///< index variable number Index of the array (init only)
    Neg,
    Add,
    Sub,
    Mul,
    Div,
    Abs,
    Min,
    Max,
    Sin, ///< init only: initial values are computed on the host
    Cos, ///< init only
  };
  Kind K = Kind::Num;
  double Num = 0;
  unsigned Index = 0;
  std::vector<ValueExpr> Ops;

  static ValueExpr num(double V) {
    ValueExpr E;
    E.Num = V;
    return E;
  }
  static ValueExpr leaf(Kind K, unsigned Index) {
    ValueExpr E;
    E.K = K;
    E.Index = Index;
    return E;
  }
  static ValueExpr op(Kind K, std::vector<ValueExpr> Ops) {
    ValueExpr E;
    E.K = K;
    E.Ops = std::move(Ops);
    return E;
  }
};

/// Deepest and largest tree any front end accepts.
constexpr unsigned MaxValueDepth = 128;
constexpr unsigned MaxValueNodes = 4096;

/// The operand count of \p K (0 for the leaves).
unsigned valueArity(ValueExpr::Kind K);

/// The spelling of a function kind ("abs", "min", ...), or null for the
/// leaves and operators.
const char *valueFnName(ValueExpr::Kind K);

/// Evaluates \p E: Read k is \p Reads[k], Value is \p Value, and Index d is
/// \p Idx[d] as a double. The tree oracle's evaluator.
double evalValue(const ValueExpr &E, const double *Reads, double Value,
                 const int64_t *Idx);

/// The shortest decimal spelling that reads back as exactly \p V (finite):
/// "0.25", "0.1", "5e-324". Shared by the .hpf printer and the C emitter.
std::string printValueNumber(double V);

} // namespace hpf
} // namespace dhpf

#endif // DHPF_HPF_VALUEEXPR_H
