//===- spmd/Bytecode.cpp - Postfix bytecode for generated expressions -----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/Bytecode.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::spmd::bc;

int64_t Prog::eval(const int64_t *Regs, int64_t *Stack) const {
  int64_t *SP = Stack;
  for (const Insn &I : Code) {
    switch (I.O) {
    case Op::PushK:
      *SP++ = I.K;
      break;
    case Op::PushVar:
      *SP++ = Regs[I.A];
      break;
    case Op::PushVarK:
      *SP++ = addOv(Regs[I.A], I.K);
      break;
    case Op::Add:
      --SP;
      SP[-1] = addOv(SP[-1], *SP);
      break;
    case Op::AddK:
      SP[-1] = addOv(SP[-1], I.K);
      break;
    case Op::Mul:
      --SP;
      SP[-1] = mulOv(SP[-1], *SP);
      break;
    case Op::MulK:
      SP[-1] = mulOv(SP[-1], I.K);
      break;
    case Op::FloorDivK:
      SP[-1] = floorDiv(SP[-1], I.K);
      break;
    case Op::FloorDivPow2:
      SP[-1] >>= I.A;
      break;
    case Op::CeilDivK:
      SP[-1] = ceilDiv(SP[-1], I.K);
      break;
    case Op::CeilDivPow2:
      SP[-1] = addOv(SP[-1], I.K - 1) >> I.A;
      break;
    case Op::ModK:
      SP[-1] = floorMod(SP[-1], I.K);
      break;
    case Op::ModPow2:
      SP[-1] &= I.K - 1;
      break;
    case Op::FloorDiv:
      --SP;
      SP[-1] = floorDiv(SP[-1], *SP);
      break;
    case Op::Mod:
      --SP;
      SP[-1] = floorMod(SP[-1], *SP);
      break;
    case Op::Min:
      --SP;
      SP[-1] = std::min(SP[-1], *SP);
      break;
    case Op::Max:
      --SP;
      SP[-1] = std::max(SP[-1], *SP);
      break;
    }
  }
  assert(SP == Stack + 1 && "bytecode left an unbalanced stack");
  return SP[-1];
}

namespace {

bool isPow2(int64_t K) { return K > 0 && (K & (K - 1)) == 0; }

uint32_t log2Of(int64_t K) {
  uint32_t S = 0;
  while ((int64_t(1) << S) < K)
    ++S;
  return S;
}

class ExprCompiler {
public:
  explicit ExprCompiler(const SlotConsts &Fixed) : Fixed(Fixed) {}

  Prog take(const cg::Expr &E) {
    emit(E);
    Prog P;
    P.Code = std::move(Code);
    P.Depth = Max;
    return P;
  }

private:
  const SlotConsts &Fixed;
  std::vector<Insn> Code;
  unsigned Cur = 0, Max = 0;

  void push(Insn I) {
    Code.push_back(I);
    if (I.O == Op::PushK || I.O == Op::PushVar || I.O == Op::PushVarK) {
      if (++Cur > Max)
        Max = Cur;
    } else if (I.O == Op::Add || I.O == Op::Mul || I.O == Op::FloorDiv ||
               I.O == Op::Mod || I.O == Op::Min || I.O == Op::Max) {
      --Cur;
    }
  }

  /// Folds \p E to a constant when every leaf is a literal or a Fixed slot.
  bool constOf(const cg::Expr &E, int64_t &Out) const {
    using K = cg::Expr::Kind;
    const std::vector<cg::Expr> &Ops = E.operands();
    int64_t A, B;
    switch (E.kind()) {
    case K::Const:
      Out = E.constVal();
      return true;
    case K::Var: {
      auto It = Fixed.find(E.varSlot());
      if (It == Fixed.end())
        return false;
      Out = It->second;
      return true;
    }
    case K::Add: {
      int64_t S = 0;
      for (const cg::Expr &O : Ops) {
        if (!constOf(O, A))
          return false;
        S = addOv(S, A);
      }
      Out = S;
      return true;
    }
    case K::Mul:
      if (!constOf(Ops[0], A))
        return false;
      Out = mulOv(A, E.constVal());
      return true;
    case K::MulE:
      if (!constOf(Ops[0], A) || !constOf(Ops[1], B))
        return false;
      Out = mulOv(A, B);
      return true;
    case K::FloorDiv:
      if (!constOf(Ops[0], A))
        return false;
      Out = floorDiv(A, E.constVal());
      return true;
    case K::CeilDiv:
      if (!constOf(Ops[0], A))
        return false;
      Out = ceilDiv(A, E.constVal());
      return true;
    case K::Mod:
      if (!constOf(Ops[0], A))
        return false;
      Out = floorMod(A, E.constVal());
      return true;
    case K::FloorDivE:
      if (!constOf(Ops[0], A) || !constOf(Ops[1], B) || B == 0)
        return false;
      Out = floorDiv(A, B);
      return true;
    case K::ModE:
      if (!constOf(Ops[0], A) || !constOf(Ops[1], B) || B <= 0)
        return false;
      Out = floorMod(A, B);
      return true;
    case K::Min:
    case K::Max: {
      if (Ops.empty() || !constOf(Ops[0], A))
        return false;
      for (unsigned I = 1; I != Ops.size(); ++I) {
        if (!constOf(Ops[I], B))
          return false;
        A = E.kind() == K::Min ? std::min(A, B) : std::max(A, B);
      }
      Out = A;
      return true;
    }
    }
    return false;
  }

  void emitFloorDivK(int64_t K) {
    if (K <= 0) { // broken divisor contract: keep the checked runtime form
      push({Op::PushK, 0, K});
      push({Op::FloorDiv, 0, 0});
      return;
    }
    if (K == 1)
      return;
    if (isPow2(K))
      push({Op::FloorDivPow2, log2Of(K), K});
    else
      push({Op::FloorDivK, 0, K});
  }

  void emitCeilDivK(int64_t K) {
    assert(K > 0 && "CeilDiv requires a positive constant divisor");
    if (K == 1)
      return;
    if (isPow2(K))
      push({Op::CeilDivPow2, log2Of(K), K});
    else
      push({Op::CeilDivK, 0, K});
  }

  void emitModK(int64_t K) {
    if (K <= 0) {
      push({Op::PushK, 0, K});
      push({Op::Mod, 0, 0});
      return;
    }
    if (K == 1) { // x mod 1 == 0
      push({Op::MulK, 0, 0});
      return;
    }
    if (isPow2(K))
      push({Op::ModPow2, log2Of(K), K});
    else
      push({Op::ModK, 0, K});
  }

  void emit(const cg::Expr &E) {
    using K = cg::Expr::Kind;
    int64_t KV;
    if (constOf(E, KV)) {
      push({Op::PushK, 0, KV});
      return;
    }
    const std::vector<cg::Expr> &Ops = E.operands();
    switch (E.kind()) {
    case K::Const:
      break; // handled by constOf
    case K::Var:
      push({Op::PushVar, E.varSlot(), 0});
      break;
    case K::Add: {
      // Fold all constant terms into one immediate, fused into the first
      // variable term when possible.
      int64_t Sum = 0;
      std::vector<const cg::Expr *> Rest;
      for (const cg::Expr &O : Ops) {
        int64_t V;
        if (constOf(O, V))
          Sum = addOv(Sum, V);
        else
          Rest.push_back(&O);
      }
      assert(!Rest.empty() && "all-constant sum reached emit");
      bool Fused = false;
      if (Sum != 0 && Rest[0]->kind() == K::Var) {
        push({Op::PushVarK, Rest[0]->varSlot(), Sum});
        Fused = true;
      } else {
        emit(*Rest[0]);
      }
      for (unsigned I = 1; I != Rest.size(); ++I) {
        emit(*Rest[I]);
        push({Op::Add, 0, 0});
      }
      if (Sum != 0 && !Fused)
        push({Op::AddK, 0, Sum});
      break;
    }
    case K::Mul:
      emit(Ops[0]);
      push({Op::MulK, 0, E.constVal()});
      break;
    case K::MulE: {
      int64_t V;
      if (constOf(Ops[0], V)) {
        emit(Ops[1]);
        push({Op::MulK, 0, V});
      } else if (constOf(Ops[1], V)) {
        emit(Ops[0]);
        push({Op::MulK, 0, V});
      } else {
        emit(Ops[0]);
        emit(Ops[1]);
        push({Op::Mul, 0, 0});
      }
      break;
    }
    case K::FloorDiv:
      emit(Ops[0]);
      emitFloorDivK(E.constVal());
      break;
    case K::CeilDiv:
      emit(Ops[0]);
      emitCeilDivK(E.constVal());
      break;
    case K::Mod:
      emit(Ops[0]);
      emitModK(E.constVal());
      break;
    case K::FloorDivE: {
      int64_t V;
      emit(Ops[0]);
      if (constOf(Ops[1], V)) {
        emitFloorDivK(V);
      } else {
        emit(Ops[1]);
        push({Op::FloorDiv, 0, 0});
      }
      break;
    }
    case K::ModE: {
      int64_t V;
      emit(Ops[0]);
      if (constOf(Ops[1], V)) {
        emitModK(V);
      } else {
        emit(Ops[1]);
        push({Op::Mod, 0, 0});
      }
      break;
    }
    case K::Min:
    case K::Max: {
      assert(!Ops.empty() && "empty min/max");
      emit(Ops[0]);
      for (unsigned I = 1; I != Ops.size(); ++I) {
        emit(Ops[I]);
        push({E.kind() == K::Min ? Op::Min : Op::Max, 0, 0});
      }
      break;
    }
    }
  }
};

} // namespace

Prog bc::compileExpr(const cg::Expr &E, const SlotConsts &Fixed) {
  assert(E.isValid() && "compiling an empty expression");
  return ExprCompiler(Fixed).take(E);
}

double ValueProg::eval(const double *Reads, double Value, const int64_t *Idx,
                       double *Stack) const {
  double *SP = Stack;
  for (const VInsn &I : Code) {
    switch (I.O) {
    case VOp::PushK:
      *SP++ = I.K;
      break;
    case VOp::PushRead:
      *SP++ = Reads[I.A];
      break;
    case VOp::PushValue:
      *SP++ = Value;
      break;
    case VOp::PushIndex:
      *SP++ = static_cast<double>(Idx[I.A]);
      break;
    case VOp::Neg:
      SP[-1] = -SP[-1];
      break;
    case VOp::Add:
      --SP;
      SP[-1] = SP[-1] + *SP;
      break;
    case VOp::Sub:
      --SP;
      SP[-1] = SP[-1] - *SP;
      break;
    case VOp::Mul:
      --SP;
      SP[-1] = SP[-1] * *SP;
      break;
    case VOp::Div:
      --SP;
      SP[-1] = SP[-1] / *SP;
      break;
    case VOp::Abs:
      SP[-1] = std::fabs(SP[-1]);
      break;
    case VOp::Min:
      --SP;
      SP[-1] = std::min(SP[-1], *SP);
      break;
    case VOp::Max:
      --SP;
      SP[-1] = std::max(SP[-1], *SP);
      break;
    case VOp::Sin:
      SP[-1] = std::sin(SP[-1]);
      break;
    case VOp::Cos:
      SP[-1] = std::cos(SP[-1]);
      break;
    }
  }
  return SP[-1];
}

namespace {

/// Applies \p F at stack level \p L, which holds \p X: a scalar stays a
/// scalar in Scal[L], a vector goes to that level's buffer \p Dst.
template <typename Fn>
void unaryRun(RunVal &X, double *Scal, double *Dst, int64_t Len, Fn F) {
  if (!X.Vec) {
    *Scal = F(*X.P);
    X.P = Scal;
    return;
  }
  for (int64_t J = 0; J != Len; ++J)
    Dst[J] = F(X.P[J]);
  X.P = Dst;
}

/// Combines the two levels \p X (below) and \p Y into \p X, like unaryRun.
template <typename Fn>
void binaryRun(RunVal &X, const RunVal &Y, double *Scal, double *Dst,
               int64_t Len, Fn F) {
  if (!X.Vec && !Y.Vec) {
    *Scal = F(*X.P, *Y.P);
    X.P = Scal;
    return;
  }
  const double *A = X.P, *B = Y.P;
  if (X.Vec && Y.Vec)
    for (int64_t J = 0; J != Len; ++J)
      Dst[J] = F(A[J], B[J]);
  else if (X.Vec)
    for (int64_t J = 0; J != Len; ++J)
      Dst[J] = F(A[J], *B);
  else
    for (int64_t J = 0; J != Len; ++J)
      Dst[J] = F(*A, B[J]);
  X = {Dst, true};
}

} // namespace

void ValueProg::evalRun(const RunVal *Reads, const int64_t *Idx, int64_t Len,
                        double *Out, double *Buf) const {
  // Level L keeps a scalar in Scal[L] and a vector in Vecs(L); level 0's
  // vector is the output itself.
  double *Scal = Buf;
  auto Vecs = [&](unsigned L) {
    return L == 0 ? Out : Buf + Depth + (L - 1) * Len;
  };
  RunVal St[hpf::MaxValueDepth + 1];
  unsigned SP = 0;
  auto Un = [&](auto F) {
    unaryRun(St[SP - 1], &Scal[SP - 1], Vecs(SP - 1), Len, F);
  };
  auto Bin = [&](auto F) {
    --SP;
    binaryRun(St[SP - 1], St[SP], &Scal[SP - 1], Vecs(SP - 1), Len, F);
  };
  for (const VInsn &I : Code) {
    switch (I.O) {
    case VOp::PushK:
      St[SP++] = {&I.K, false};
      break;
    case VOp::PushRead:
      St[SP++] = Reads[I.A];
      break;
    case VOp::PushValue:
      assert(false && "an init value reads no Value");
      break;
    case VOp::PushIndex:
      if (I.A == 0) {
        double *D = Vecs(SP);
        for (int64_t J = 0; J != Len; ++J)
          D[J] = static_cast<double>(Idx[0] + J);
        St[SP] = {D, true};
      } else {
        Scal[SP] = static_cast<double>(Idx[I.A]);
        St[SP] = {&Scal[SP], false};
      }
      ++SP;
      break;
    case VOp::Neg:
      Un([](double A) { return -A; });
      break;
    case VOp::Abs:
      Un([](double A) { return std::fabs(A); });
      break;
    case VOp::Sin:
      Un([](double A) { return std::sin(A); });
      break;
    case VOp::Cos:
      Un([](double A) { return std::cos(A); });
      break;
    case VOp::Add:
      Bin([](double A, double B) { return A + B; });
      break;
    case VOp::Sub:
      Bin([](double A, double B) { return A - B; });
      break;
    case VOp::Mul:
      Bin([](double A, double B) { return A * B; });
      break;
    case VOp::Div:
      Bin([](double A, double B) { return A / B; });
      break;
    case VOp::Min:
      Bin([](double A, double B) { return std::min(A, B); });
      break;
    case VOp::Max:
      Bin([](double A, double B) { return std::max(A, B); });
      break;
    }
  }
  const RunVal &R = St[0];
  if (!R.Vec)
    std::fill_n(Out, Len, *R.P);
  else if (R.P != Out)
    std::copy_n(R.P, Len, Out);
}

namespace {

constexpr int NoIndex = -1, ManyIndices = -2;

/// The one index \p E reads, NoIndex or ManyIndices.
int indexUse(const hpf::ValueExpr &E) {
  if (E.K == hpf::ValueExpr::Kind::Index)
    return static_cast<int>(E.Index);
  int U = NoIndex;
  for (const hpf::ValueExpr &Op : E.Ops) {
    int V = indexUse(Op);
    if (V == ManyIndices || (U != NoIndex && V != NoIndex && V != U))
      return ManyIndices;
    if (V != NoIndex)
      U = V;
  }
  return U;
}

/// Appends \p E to \p P in postfix. With \p Seed, a non-leaf subtree that
/// reads at most one index becomes a term of it, and \p P reads the term.
void emitValue(const hpf::ValueExpr &E, ValueProg &P, unsigned &Live,
               SeedProg *Seed = nullptr) {
  using K = hpf::ValueExpr::Kind;
  auto Push = [&](VOp O, uint32_t A, double Kv) {
    P.Code.push_back({O, A, Kv});
    P.Depth = std::max(P.Depth, ++Live);
  };
  switch (E.K) {
  case K::Num:
    return Push(VOp::PushK, 0, E.Num);
  case K::Read:
    return Push(VOp::PushRead, E.Index, 0);
  case K::Value:
    return Push(VOp::PushValue, 0, 0);
  case K::Index:
    return Push(VOp::PushIndex, E.Index, 0);
  default:
    break;
  }
  if (Seed) {
    int U = indexUse(E);
    if (U != ManyIndices) {
      Push(VOp::PushRead, static_cast<uint32_t>(Seed->Terms.size()), 0);
      Seed->Terms.push_back({compileValue(E), U});
      return;
    }
  }
  for (const hpf::ValueExpr &Op : E.Ops)
    emitValue(Op, P, Live, Seed);
  static const std::pair<K, VOp> Ops[] = {
      {K::Neg, VOp::Neg}, {K::Add, VOp::Add}, {K::Sub, VOp::Sub},
      {K::Mul, VOp::Mul}, {K::Div, VOp::Div}, {K::Abs, VOp::Abs},
      {K::Min, VOp::Min}, {K::Max, VOp::Max}, {K::Sin, VOp::Sin},
      {K::Cos, VOp::Cos}};
  for (const auto &[Kind, O] : Ops)
    if (Kind == E.K)
      P.Code.push_back({O, 0, 0});
  Live -= static_cast<unsigned>(E.Ops.size()) - 1;
}

} // namespace

ValueProg bc::compileValue(const hpf::ValueExpr &E) {
  ValueProg P;
  unsigned Live = 0;
  emitValue(E, P, Live);
  assert(Live == 1 && P.Depth <= hpf::MaxValueDepth + 1 &&
         "malformed or unbounded value expression");
  return P;
}

SeedProg bc::compileSeed(const hpf::ValueExpr &E) {
  assert(E.K != hpf::ValueExpr::Kind::Read &&
         E.K != hpf::ValueExpr::Kind::Value && "not an init value");
  SeedProg S;
  unsigned Live = 0;
  emitValue(E, S.Residual, Live, &S);
  assert(Live == 1 && "malformed value expression");
  return S;
}
