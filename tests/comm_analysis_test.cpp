//===- tests/comm_analysis_test.cpp - Figure 3/4/5 analyses --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Validates the communication-set equations (Figure 3), loop splitting
// (Figure 4), and computation partitioning on a 1-D block-distributed
// stencil:
//
//   processors P(4); template T(16); A, B identity-aligned; BLOCK
//   do i = 2, 15 : A(i) = B(i-1) + B(i+1)   (owner-computes)
//
// Processor p owns [4p+1, 4p+4]; it must send its boundary elements to its
// neighbors and receive theirs. The send/receive duality is also checked
// on the same stencil under CYCLIC(2), on a (BLOCK, BLOCK) five-point
// stencil and on a non-owner (ON_HOME) write.
//
//===----------------------------------------------------------------------===//

#include "core/Comm.h"
#include "core/LoopSplit.h"
#include "core/Partition.h"

#include <gtest/gtest.h>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

namespace {

struct Stencil1D {
  Program P{"stencil1d"};
  ComputeNest Nest;
  MapBuilder MB{P};

  explicit Stencil1D(DistSpec Dist = distBlock()) {
    P.addProcs("P", {Program::procDim(4)});
    P.addTemplate("T", {range(1, 16)});
    P.addArray("A", {range(1, 16)});
    P.addArray("B", {range(1, 16)});
    P.addAlign({"A", "T", {alignDim(0)}});
    P.addAlign({"B", "T", {alignDim(0)}});
    P.addDistribute({"T", "P", {Dist}});
    Nest.Name = "stencil";
    Nest.Loops = {loop("i", 2, 15)};
    Statement S;
    S.Write = ref("A", {"i"});
    S.Reads = {ref("B", {AffineExpr("i") - 1}),
               ref("B", {AffineExpr("i") + 1})};
    Nest.Stmts = {S};
  }
};

/// The five-point stencil A(i,j) = B(i,j) + B(i+-1,j) + B(i,j+-1) on a
/// fixed 2x2 grid, (BLOCK, BLOCK): processor (p,q) owns the 4x4 tile
/// [4p+1, 4p+4] x [4q+1, 4q+4].
struct Stencil2D {
  Program P{"stencil2d"};
  ComputeNest Nest;
  MapBuilder MB{P};

  Stencil2D() {
    P.addProcs("P", {Program::procDim(2), Program::procDim(2)});
    P.addTemplate("T", {range(1, 8), range(1, 8)});
    P.addArray("A", {range(1, 8), range(1, 8)});
    P.addArray("B", {range(1, 8), range(1, 8)});
    P.addAlign({"A", "T", {alignDim(0), alignDim(1)}});
    P.addAlign({"B", "T", {alignDim(0), alignDim(1)}});
    P.addDistribute({"T", "P", {distBlock(), distBlock()}});
    Nest.Name = "stencil";
    Nest.Loops = {loop("i", 2, 7), loop("j", 2, 7)};
    Statement S;
    S.Write = ref("A", {"i", "j"});
    S.Reads = {ref("B", {"i", "j"}), ref("B", {AffineExpr("i") - 1, "j"}),
               ref("B", {AffineExpr("i") + 1, "j"}),
               ref("B", {"i", AffineExpr("j") - 1}),
               ref("B", {"i", AffineExpr("j") + 1})};
    Nest.Stmts = {S};
  }
};

using Points = std::vector<std::vector<int64_t>>;

/// Every integer point of the box [Lo, Hi] (inclusive per dimension).
Points box(const std::vector<int64_t> &Lo, const std::vector<int64_t> &Hi) {
  Points Out = {{}};
  for (size_t D = 0; D != Lo.size(); ++D) {
    Points Next;
    for (const std::vector<int64_t> &Prefix : Out)
      for (int64_t V = Lo[D]; V <= Hi[D]; ++V) {
        Next.push_back(Prefix);
        Next.back().push_back(V);
      }
    Out = std::move(Next);
  }
  return Out;
}

std::string str(const std::vector<int64_t> &V) {
  std::string S = "(";
  for (size_t I = 0; I != V.size(); ++I)
    S += (I ? "," : "") + std::to_string(V[I]);
  return S + ")";
}

/// Evaluates membership of a parameterized set/map whose only parameters
/// are the representative processor's coordinates mv* = M.
bool containsAt(const Relation &R, const std::vector<int64_t> &M,
                const std::vector<int64_t> &Out,
                const std::vector<int64_t> &In = {}) {
  std::vector<int64_t> Params;
  for (const std::string &P : R.space().params()) {
    size_t D = 0;
    while (D != M.size() && P != myDimParam(D))
      ++D;
    if (D == M.size()) {
      ADD_FAILURE() << "unexpected parameter " << P;
      return false;
    }
    Params.push_back(M[D]);
  }
  return R.contains(Out, Params, In);
}

bool containsWithM(const Relation &R, int64_t M, std::vector<int64_t> Out,
                   std::vector<int64_t> In = {}) {
  return containsAt(R, {M}, Out, In);
}

/// Checks pointwise that m sends q element a exactly when q receives a
/// from m, over every (m, q) in \p Procs and a in \p Elems. Returns the
/// number of (m, q, a) messages found.
unsigned expectDuals(const CommSets &CS, const Points &Procs,
                     const Points &Elems) {
  unsigned Sent = 0;
  for (const std::vector<int64_t> &M : Procs)
    for (const std::vector<int64_t> &Q : Procs)
      for (const std::vector<int64_t> &A : Elems) {
        bool Send = containsAt(CS.SendCommMap, M, A, Q);
        EXPECT_EQ(Send, containsAt(CS.RecvCommMap, Q, A, M))
            << "m=" << str(M) << " q=" << str(Q) << " a=" << str(A);
        Sent += Send;
      }
  return Sent;
}

TEST(Partition, OwnerComputesCPMap) {
  Stencil1D T;
  CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  EXPECT_FALSE(CP.Replicated);
  EXPECT_EQ(CP.ProcName, "P");
  // Processor 1 owns A[5..8] and executes exactly those iterations.
  for (int64_t I = 2; I <= 15; ++I)
    EXPECT_EQ(CP.CPMap.contains({I}, {}, {1}), I >= 5 && I <= 8) << I;
  // Processor 0 executes i in [2,4] only (i=1 is outside the loop).
  EXPECT_TRUE(CP.CPMap.contains({2}, {}, {0}));
  EXPECT_FALSE(CP.CPMap.contains({1}, {}, {0}));
}

TEST(Partition, CpIterSet) {
  Stencil1D T;
  CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  Relation Iters = cpIterSet(T.MB, T.Nest, CP);
  EXPECT_TRUE(containsWithM(Iters, 1, {5}));
  EXPECT_TRUE(containsWithM(Iters, 1, {8}));
  EXPECT_FALSE(containsWithM(Iters, 1, {9}));
  EXPECT_FALSE(containsWithM(Iters, 0, {1}));
  EXPECT_TRUE(containsWithM(Iters, 3, {15}));
}

TEST(Partition, GroupStatements) {
  Stencil1D T;
  CPInfo CP1 = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  CPInfo CP2 = CP1;
  std::vector<CPInfo> CPs = {CP1, CP2};
  auto G = groupStatements(CPs);
  EXPECT_EQ(G[0], G[1]);
  CPInfo Rep;
  Rep.Replicated = true;
  CPs.push_back(Rep);
  G = groupStatements(CPs);
  EXPECT_NE(G[1], G[2]);
}

template <class Fixture>
CommEventInput stencilEvent(Fixture &T, const CPInfo &CP) {
  CommEventInput E;
  E.Array = "B";
  E.PlacementLevel = 0; // fully vectorized out of the i loop
  for (const Reference &R : T.Nest.Stmts[0].Reads) {
    CommRef CR;
    CR.CPMap = CP.CPMap;
    CR.RefMap = T.MB.refMap(T.Nest, R);
    CR.IsWrite = false;
    E.Refs.push_back(std::move(CR));
  }
  return E;
}

TEST(CommAnalysis, StencilSendRecvSets) {
  Stencil1D T;
  CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  CommSets CS = computeCommSets(T.MB, stencilEvent(T, CP));

  // m = 1 owns B[5..8]. It must send B(5) to p0 (which reads it at i=4 via
  // B(i+1)) and B(8) to p2 (read at i=9 via B(i-1)).
  EXPECT_TRUE(containsWithM(CS.SendCommMap, 1, {5}, {0}));
  EXPECT_TRUE(containsWithM(CS.SendCommMap, 1, {8}, {2}));
  EXPECT_FALSE(containsWithM(CS.SendCommMap, 1, {6}, {0}));
  EXPECT_FALSE(containsWithM(CS.SendCommMap, 1, {5}, {2}));
  // No self-communication.
  EXPECT_FALSE(containsWithM(CS.SendCommMap, 1, {5}, {1}));
  // m = 1 receives B(4) from p0 and B(9) from p2.
  EXPECT_TRUE(containsWithM(CS.RecvCommMap, 1, {4}, {0}));
  EXPECT_TRUE(containsWithM(CS.RecvCommMap, 1, {9}, {2}));
  EXPECT_FALSE(containsWithM(CS.RecvCommMap, 1, {4}, {2}));
  EXPECT_FALSE(containsWithM(CS.RecvCommMap, 1, {8}, {0}));
  // Edge processors: p0 receives only from p1; p3 sends only to p2.
  EXPECT_TRUE(containsWithM(CS.RecvCommMap, 0, {5}, {1}));
  EXPECT_FALSE(containsWithM(CS.RecvCommMap, 0, {1}, {3}));
  EXPECT_TRUE(containsWithM(CS.SendCommMap, 3, {13}, {2}));
}

/// The write event of a non-owner CP: ON_HOME B(i-1) runs iteration i on
/// the owner of B(i-1), so the write A(i) is non-local at block boundaries.
CommEventInput onHomeWriteEvent(Stencil1D &T) {
  Statement &S = T.Nest.Stmts[0];
  S.OnHome = {ref("B", {AffineExpr("i") - 1})};
  CPInfo CP = computeCP(T.MB, T.Nest, S);
  CommEventInput E;
  E.Array = "A";
  CommRef CR;
  CR.CPMap = CP.CPMap;
  CR.RefMap = T.MB.refMap(T.Nest, S.Write);
  CR.IsWrite = true;
  E.Refs.push_back(CR);
  return E;
}

TEST(CommAnalysis, SendRecvAreDuals) {
  // Send(m -> q, a) must equal Recv(q <- m, a): swap roles via parameter
  // renaming is awkward, so check pointwise over all pairs.
  Points Procs4 = box({0}, {3}), Elems16 = box({1}, {16});
  {
    SCOPED_TRACE("1-D BLOCK stencil");
    Stencil1D T;
    CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
    CommSets CS = computeCommSets(T.MB, stencilEvent(T, CP));
    EXPECT_EQ(expectDuals(CS, Procs4, Elems16), 6u);
  }
  {
    // Processor p owns {2p+1, 2p+2, 2p+9, 2p+10}: the eight blocks of two
    // alternate owners, so each of the 7 block boundaries carries one
    // element each way.
    SCOPED_TRACE("1-D CYCLIC(2) stencil");
    Stencil1D T(distCyclicK(2));
    CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
    CommSets CS = computeCommSets(T.MB, stencilEvent(T, CP));
    EXPECT_EQ(expectDuals(CS, Procs4, Elems16), 14u);
  }
  {
    SCOPED_TRACE("(BLOCK, BLOCK) five-point stencil on 2x2");
    Stencil2D T;
    CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
    CommSets CS = computeCommSets(T.MB, stencilEvent(T, CP));
    // Each of the four tile edges carries 3 elements each way (the loop
    // range 2..7 clipped to a tile); the stencil reads no corners.
    EXPECT_EQ(expectDuals(CS, box({0, 0}, {1, 1}), box({1, 1}, {8, 8})),
              24u);
  }
  {
    SCOPED_TRACE("ON_HOME write");
    Stencil1D T;
    CommSets CS = computeCommSets(T.MB, onHomeWriteEvent(T));
    EXPECT_EQ(expectDuals(CS, Procs4, Elems16), 3u);
  }
}

TEST(CommAnalysis, VectorizationPlacement) {
  // Placing communication inside the i loop (PlacementLevel = 1) yields
  // per-iteration sets parameterized by J0.
  Stencil1D T;
  CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  CommEventInput E = stencilEvent(T, CP);
  E.PlacementLevel = 1;
  CommSets CS = computeCommSets(T.MB, E);
  // At iteration J0 = 9 (executed by p2), p1 must send B(8).
  const Relation &S = CS.SendCommMap;
  std::vector<int64_t> Params;
  for (const std::string &P : S.space().params()) {
    if (P == myDimParam(0))
      Params.push_back(1);
    else if (P == placementParam(0))
      Params.push_back(9);
    else
      FAIL() << "unexpected parameter " << P;
  }
  EXPECT_TRUE(S.contains({8}, Params, {2}));
  EXPECT_FALSE(S.contains({5}, Params, {0}));
}

TEST(CommAnalysis, WriteCommunication) {
  // Non-owner-computes: ON_HOME B(i-1) makes the write A(i) non-local at
  // block boundaries; the writer must send the value to A's owner.
  Stencil1D T;
  CommSets CS = computeCommSets(T.MB, onHomeWriteEvent(T));
  // With ON_HOME B(i-1), iteration i runs on the owner of B(i-1); i = 4p+5
  // (the first iteration of p+1's block... actually i-1 = 4p+4 boundary):
  // p executes i = 4p+5 whose write A(4p+5) is owned by p+1.
  EXPECT_TRUE(containsWithM(CS.SendCommMap, 0, {5}, {1}));
  EXPECT_TRUE(containsWithM(CS.RecvCommMap, 1, {5}, {0}));
  EXPECT_FALSE(containsWithM(CS.SendCommMap, 0, {4}, {1}));
}

TEST(LoopSplitTest, StencilSections) {
  Stencil1D T;
  CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  Relation Iters = cpIterSet(T.MB, T.Nest, CP);
  Relation LayoutMine = [&] {
    LayoutResult L = T.MB.layout("B");
    return L.Map.bindDomainToParams({myDimParam(0)});
  }();
  std::vector<SplitRef> Refs;
  for (const Reference &R : T.Nest.Stmts[0].Reads)
    Refs.push_back({T.MB.refMap(T.Nest, R), LayoutMine, /*IsWrite=*/false});
  SplitSets SS = computeLoopSplit(Iters, Refs);
  // m = 1 executes [5,8]; i=5 reads B(4) (p0's), i=8 reads B(9) (p2's).
  EXPECT_TRUE(containsWithM(SS.LocalIters, 1, {6}));
  EXPECT_TRUE(containsWithM(SS.LocalIters, 1, {7}));
  EXPECT_FALSE(containsWithM(SS.LocalIters, 1, {5}));
  EXPECT_TRUE(containsWithM(SS.NLROIters, 1, {5}));
  EXPECT_TRUE(containsWithM(SS.NLROIters, 1, {8}));
  EXPECT_TRUE(SS.NLWOIters.isEmpty());
  EXPECT_TRUE(SS.NLRWIters.isEmpty());
  EXPECT_TRUE(SS.NLRWEmpty);
  // Sections partition cpIterSet.
  Relation All = SS.LocalIters.unionWith(SS.NLROIters)
                     .unionWith(SS.NLWOIters)
                     .unionWith(SS.NLRWIters);
  EXPECT_TRUE(All.isEqualTo(Iters));
  EXPECT_TRUE(SS.LocalIters.intersect(SS.NLROIters).isEmpty());
}

TEST(ActiveVP, StencilBusySet) {
  Stencil1D T;
  CPInfo CP = computeCP(T.MB, T.Nest, T.Nest.Stmts[0]);
  CommSets CS = computeCommSets(T.MB, stencilEvent(T, CP));
  // All four processors are busy and active (stencil reaches everyone).
  for (int64_t P = 0; P < 4; ++P) {
    EXPECT_TRUE(CS.BusyVPSet.contains({P}));
    EXPECT_TRUE(CS.ActiveSendVPSet.contains({P}));
    EXPECT_TRUE(CS.ActiveRecvVPSet.contains({P}));
  }
}

} // namespace
