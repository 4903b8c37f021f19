//===- hpf/ValueExpr.cpp - Double-valued expressions of mini-HPF ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "hpf/ValueExpr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace dhpf;
using namespace dhpf::hpf;

unsigned hpf::valueArity(ValueExpr::Kind K) {
  switch (K) {
  case ValueExpr::Kind::Num:
  case ValueExpr::Kind::Read:
  case ValueExpr::Kind::Value:
  case ValueExpr::Kind::Index:
    return 0;
  case ValueExpr::Kind::Neg:
  case ValueExpr::Kind::Abs:
  case ValueExpr::Kind::Sin:
  case ValueExpr::Kind::Cos:
    return 1;
  case ValueExpr::Kind::Add:
  case ValueExpr::Kind::Sub:
  case ValueExpr::Kind::Mul:
  case ValueExpr::Kind::Div:
  case ValueExpr::Kind::Min:
  case ValueExpr::Kind::Max:
    return 2;
  }
  return 0;
}

const char *hpf::valueFnName(ValueExpr::Kind K) {
  switch (K) {
  case ValueExpr::Kind::Abs:
    return "abs";
  case ValueExpr::Kind::Min:
    return "min";
  case ValueExpr::Kind::Max:
    return "max";
  case ValueExpr::Kind::Sin:
    return "sin";
  case ValueExpr::Kind::Cos:
    return "cos";
  default:
    return nullptr;
  }
}

double hpf::evalValue(const ValueExpr &E, const double *Reads, double Value,
                      const int64_t *Idx) {
  auto Op = [&](size_t I) { return evalValue(E.Ops[I], Reads, Value, Idx); };
  switch (E.K) {
  case ValueExpr::Kind::Num:
    return E.Num;
  case ValueExpr::Kind::Read:
    return Reads[E.Index];
  case ValueExpr::Kind::Value:
    return Value;
  case ValueExpr::Kind::Index:
    return static_cast<double>(Idx[E.Index]);
  case ValueExpr::Kind::Neg:
    return -Op(0);
  case ValueExpr::Kind::Add: {
    double A = Op(0);
    return A + Op(1);
  }
  case ValueExpr::Kind::Sub: {
    double A = Op(0);
    return A - Op(1);
  }
  case ValueExpr::Kind::Mul: {
    double A = Op(0);
    return A * Op(1);
  }
  case ValueExpr::Kind::Div: {
    double A = Op(0);
    return A / Op(1);
  }
  case ValueExpr::Kind::Abs:
    return std::fabs(Op(0));
  case ValueExpr::Kind::Min: {
    double A = Op(0);
    return std::min(A, Op(1));
  }
  case ValueExpr::Kind::Max: {
    double A = Op(0);
    return std::max(A, Op(1));
  }
  case ValueExpr::Kind::Sin:
    return std::sin(Op(0));
  case ValueExpr::Kind::Cos:
    return std::cos(Op(0));
  }
  assert(false && "unknown value kind");
  return 0;
}

std::string hpf::printValueNumber(double V) {
  char Buf[40];
  for (int Prec = 1; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}
