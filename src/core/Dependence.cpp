//===- core/Dependence.cpp - Dependence relation and loop order ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Dependence.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

namespace {

/// { s -> t : Order(s) < Order(t) } over \p Order.size() loops, or
/// { s -> t : Order(t) < Order(s) } when \p Backward: one conjunct per
/// level at which the two tuples first differ.
Relation orderRelation(const std::vector<unsigned> &Order, bool Backward) {
  std::vector<std::string> S, T;
  for (unsigned K = 0; K != Order.size(); ++K) {
    S.push_back("s" + std::to_string(K));
    T.push_back("t" + std::to_string(K));
  }
  Relation R(Space::map(S, T));
  for (unsigned L = 0; L != Order.size(); ++L) {
    Conjunct &C = R.addConjunct();
    for (unsigned K = 0; K != L; ++K)
      C.addConstraint({{C.inCol(Order[K]), 1}, {C.outCol(Order[K]), -1}}, 0,
                      /*IsEq=*/true);
    unsigned Lo = C.inCol(Order[L]), Hi = C.outCol(Order[L]);
    if (Backward)
      std::swap(Lo, Hi);
    C.addConstraint({{Hi, 1}, {Lo, -1}}, -1, /*IsEq=*/false);
  }
  return R;
}

/// \p R with its output dimensions named \p Names. Names only print, but
/// distinct input and output names keep a relation's text reparsable (the
/// op cache's image stores it as text).
Relation withOutNames(const Relation &R, const std::vector<std::string> &Names) {
  Relation Out(Space::map(R.space().inNames(), Names, R.space().params()));
  for (const Conjunct &C : R.conjuncts())
    Out.addConjunct(C);
  return Out;
}

/// { s -> t : s_k = t_k for k < Outer } over \p NumLoops loops.
Relation agreeOn(unsigned NumLoops, unsigned Outer) {
  std::vector<std::string> S, T;
  for (unsigned K = 0; K != NumLoops; ++K) {
    S.push_back("s" + std::to_string(K));
    T.push_back("t" + std::to_string(K));
  }
  Relation R(Space::map(S, T));
  Conjunct &C = R.addConjunct();
  for (unsigned K = 0; K != Outer; ++K)
    C.addConstraint({{C.inCol(K), 1}, {C.outCol(K), -1}}, 0, /*IsEq=*/true);
  return R;
}

std::vector<unsigned> sourceOrder(unsigned N) {
  std::vector<unsigned> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  return Order;
}

} // namespace

Relation core::dependenceRelation(const MapBuilder &MB,
                                  const ComputeNest &Nest) {
  struct Access {
    const Reference *Ref;
    bool Write;
    Relation Map;
  };
  // Only arrays the nest writes can carry a dependence.
  std::set<std::string> Written;
  for (const Statement &St : Nest.Stmts)
    Written.insert(St.Write.Array);
  std::vector<Access> Acc;
  for (const Statement &St : Nest.Stmts) {
    Acc.push_back({&St.Write, true, MB.refMap(Nest, St.Write)});
    for (const Reference &R : St.Reads)
      if (Written.count(R.Array))
        Acc.push_back({&R, false, MB.refMap(Nest, R)});
  }
  Relation Iters = MB.loopSet(Nest);
  Relation Before = orderRelation(sourceOrder(Nest.Loops.size()), false);
  std::vector<std::string> Vars, Later;
  for (const Loop &L : Nest.Loops) {
    Vars.push_back(L.Var);
    Later.push_back(L.Var + "'");
  }
  Relation D = Relation::empty(Space::map(Vars, Later));
  // Ordered pairs: (a, b) holds the pairs where a runs first.
  for (const Access &A : Acc)
    for (const Access &B : Acc) {
      if (A.Ref->Array != B.Ref->Array || !(A.Write || B.Write))
        continue;
      Relation Pairs = A.Map.composeWith(withOutNames(B.Map.inverse(), Later))
                           .restrictDomain(Iters)
                           .restrictRange(Iters)
                           .intersect(Before)
                           .simplify();
      D = D.unionWith(Pairs);
    }
  return D.simplify().coalesce();
}

Relation core::crossProcessorFlow(const MapBuilder &MB,
                                  const ComputeNest &Nest,
                                  const std::vector<const Relation *> &Iters) {
  Relation Loops = MB.loopSet(Nest);
  Relation Before = orderRelation(sourceOrder(Nest.Loops.size()), false);
  std::vector<std::string> Vars, Later;
  for (const Loop &L : Nest.Loops) {
    Vars.push_back(L.Var);
    Later.push_back(L.Var + "'");
  }
  Relation Cross = Relation::empty(Space::map(Vars, Later));
  for (size_t A = 0; A != Nest.Stmts.size(); ++A) {
    if (!Iters[A])
      continue;
    const Reference &W = Nest.Stmts[A].Write;
    for (size_t B = 0; B != Nest.Stmts.size(); ++B) {
      if (!Iters[B])
        continue;
      for (const Reference &R : Nest.Stmts[B].Reads) {
        if (R.Array != W.Array)
          continue;
        Relation Flow =
            MB.refMap(Nest, W)
                .composeWith(withOutNames(MB.refMap(Nest, R).inverse(), Later))
                .restrictDomain(*Iters[A])
                .restrictRange(Loops)
                .intersect(Before)
                .simplify();
        if (Flow.isEmpty())
          continue;
        // The representative processor runs the source but not the sink.
        Cross = Cross.unionWith(
            Flow.restrictRange(Loops.subtract(*Iters[B])).simplify());
      }
    }
  }
  return Cross.simplify().coalesce();
}

unsigned core::placementLevelFor(const Relation &Cross, unsigned Level,
                                 unsigned NumLoops) {
  if (Cross.isEmpty())
    return Level;
  while (Level < NumLoops &&
         !Cross.intersect(agreeOn(NumLoops, Level)).isEmpty())
    ++Level;
  return Level;
}

std::vector<unsigned> core::storageOrder(const ComputeNest &Nest,
                                         unsigned Fixed) {
  std::vector<unsigned> Order = sourceOrder(Nest.Loops.size());
  if (Nest.Stmts.empty() || Fixed >= Order.size())
    return Order;
  const Reference &W = Nest.Stmts.front().Write;
  // Per loop, |coefficient| in each subscript from the highest dimension
  // down: comparing these lexicographically compares strides.
  auto Key = [&](unsigned L) {
    std::vector<int64_t> K;
    for (size_t D = W.Subs.size(); D-- != 0;) {
      int64_t C = 0;
      for (const auto &[Name, Coef] : W.Subs[D].Terms)
        if (Name == Nest.Loops[L].Var)
          C += Coef;
      K.push_back(C < 0 ? -C : C);
    }
    if (std::all_of(K.begin(), K.end(), [](int64_t X) { return X == 0; }))
      K.assign(K.size(), INT64_MAX); // not indexed: the widest stride
    return K;
  };
  std::stable_sort(Order.begin() + Fixed, Order.end(),
                   [&](unsigned A, unsigned B) { return Key(A) > Key(B); });
  return Order;
}

std::vector<unsigned> core::innermostOnly(const std::vector<unsigned> &Wanted) {
  std::vector<unsigned> Order = sourceOrder(Wanted.size());
  if (Wanted.empty())
    return Order;
  unsigned Unit = Wanted.back();
  Order.erase(std::find(Order.begin(), Order.end(), Unit));
  Order.push_back(Unit);
  return Order;
}

bool core::orderKeepsDependences(const Relation &D,
                                 const std::vector<unsigned> &Order) {
  // D holds only pairs that source order runs forwards.
  if (Order == sourceOrder(Order.size()))
    return true;
  return D.intersect(orderRelation(Order, /*Backward=*/true)).isEmpty();
}

Relation core::permuteDims(const Relation &S,
                           const std::vector<unsigned> &Order) {
  assert(S.isSet() && Order.size() == S.numOut() && "permutes a set's dims");
  if (Order == sourceOrder(Order.size()))
    return S;
  std::vector<std::string> Names;
  for (unsigned K : Order)
    Names.push_back(S.space().outNames()[K]);
  Relation R(Space::set(Names, S.space().params()));
  for (const Conjunct &C : S.conjuncts()) {
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != C.numParams(); ++P)
      Map[C.paramCol(P)] = static_cast<int>(P);
    for (unsigned K = 0; K != Order.size(); ++K)
      Map[C.outCol(Order[K])] = static_cast<int>(C.outCol(K));
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = static_cast<int>(C.existCol(E));
    R.addConjunct(Conjunct::remap(C, C.numParams(), 0, C.numOut(),
                                  C.numExists(), Map));
  }
  return R;
}

std::vector<Relation> core::disjointPieces(const Relation &S) {
  Relation Norm = S.normalizeExists().simplify().coalesce();
  std::vector<Relation> Out;
  Relation Seen = Relation::empty(Norm.space());
  for (const Conjunct &C : std::as_const(Norm).conjuncts()) {
    Relation One(Norm.space());
    One.addConjunct(C);
    // Only a conjunct that overlaps an earlier one needs the subtraction.
    Relation Fresh = One;
    if (!std::as_const(Seen).conjuncts().empty() &&
        !One.intersect(Seen).isEmpty())
      Fresh = One.subtract(Seen).simplify().coalesce();
    for (const Conjunct &F : std::as_const(Fresh).conjuncts()) {
      Relation Piece(Fresh.space());
      Piece.addConjunct(F);
      Out.push_back(std::move(Piece));
    }
    Seen = Seen.unionWith(One);
  }
  return Out;
}
