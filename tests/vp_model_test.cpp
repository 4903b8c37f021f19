//===- tests/vp_model_test.cpp - Figure 5 active virtual processors ------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Reproduces Figure 5: the Gaussian-elimination loop on a (CYCLIC,CYCLIC)
// distribution over a symbolic P1 x P2 processor array. Virtual processors
// are template cells; the equations must find that only the VPs owning the
// pivot row need to send, while every busy VP receives.
//
//   do i = PIVOT+1, 100 ; do j = PIVOT+1, 100   ! ON_HOME A(i,j)
//     A(i,j) = ... + A(PIVOT, j)
//
//===----------------------------------------------------------------------===//

#include "core/Comm.h"
#include "core/Partition.h"

#include <gtest/gtest.h>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

namespace {

struct Gauss {
  Program P{"gauss"};
  ComputeNest Nest;
  MapBuilder MB{P};

  Gauss() {
    P.addParam("PIVOT");
    P.addProcs("PA", {Program::procDimSym("P1"), Program::procDimSym("P2")});
    P.addTemplate("T", {range(1, 100), range(1, 100)});
    P.addArray("A", {range(1, 100), range(1, 100)});
    P.addAlign({"A", "T", {alignDim(0), alignDim(1)}});
    P.addDistribute({"T", "PA", {distCyclic(), distCyclic()}});
    Nest.Name = "update";
    Nest.Loops = {loop("i", AffineExpr("PIVOT") + 1, 100),
                  loop("j", AffineExpr("PIVOT") + 1, 100)};
    Statement S;
    S.Write = ref("A", {"i", "j"});
    S.Reads = {ref("A", {"PIVOT", "j"})};
    Nest.Stmts = {S};
  }
};

/// Membership helper: binds PIVOT and ignores other params (none expected).
bool containsPivot(const Relation &R, int64_t Pivot,
                   std::vector<int64_t> Out) {
  std::vector<int64_t> Params;
  for (const std::string &P : R.space().params()) {
    EXPECT_EQ(P, "PIVOT") << "unexpected parameter " << P;
    Params.push_back(Pivot);
  }
  return R.contains(Out, Params);
}

TEST(Figure5, LayoutIsVirtual) {
  Gauss G;
  LayoutResult L = G.MB.layout("A");
  EXPECT_TRUE(L.anyVirtual());
  ASSERT_EQ(L.Dims.size(), 2u);
  EXPECT_TRUE(L.Dims[0].Virtualized);
  EXPECT_TRUE(L.Dims[1].Virtualized);
  // VP (v1,v2) owns exactly element (v1,v2).
  EXPECT_TRUE(L.Map.contains({7, 9}, {}, {7, 9}));
  EXPECT_FALSE(L.Map.contains({7, 9}, {}, {7, 8}));
}

TEST(Figure5, CPMapOnVirtualProcessors) {
  Gauss G;
  CPInfo CP = computeCP(G.MB, G.Nest, G.Nest.Stmts[0]);
  EXPECT_FALSE(CP.Replicated);
  // CPMap = {[v1,v2] -> [i,j] : i = v1, j = v2, PIVOT < v1,v2 <= 100}
  // (plus the template bounds 1 <= v, which Figure 5 leaves implicit).
  Relation Expect = parseRelation(
      "[PIVOT] -> { [v1,v2] -> [i,j] : i = v1 && j = v2 && "
      "PIVOT + 1 <= v1 <= 100 && PIVOT + 1 <= v2 <= 100 && "
      "1 <= v1 && 1 <= v2 }");
  EXPECT_TRUE(CP.CPMap.isEqualTo(Expect))
      << "got " << CP.CPMap.simplify().toString();
}

TEST(Figure5, ActiveVPSets) {
  Gauss G;
  CPInfo CP = computeCP(G.MB, G.Nest, G.Nest.Stmts[0]);
  CommEventInput E;
  E.Array = "A";
  CommRef CR;
  CR.CPMap = CP.CPMap;
  CR.RefMap = G.MB.refMap(G.Nest, G.Nest.Stmts[0].Reads[0]);
  CR.IsWrite = false;
  E.Refs.push_back(CR);
  CommSets CS = computeCommSets(G.MB, E);

  // busyVPSet = {[v1,v2] : PIVOT < v1,v2 <= 100} (Figure 5(c), plus the
  // implicit template bounds 1 <= v).
  Relation BusyExpect = parseRelation(
      "[PIVOT] -> { [v1,v2] : PIVOT + 1 <= v1 <= 100 && "
      "PIVOT + 1 <= v2 <= 100 && 1 <= v1 && 1 <= v2 }");
  EXPECT_TRUE(CS.BusyVPSet.isEqualTo(BusyExpect))
      << "got " << CS.BusyVPSet.toString();

  // activeSendVPSet = {[v1,v2] : v1 = PIVOT && PIVOT < v2 <= 100}: only
  // the VPs owning pivot-row elements send.
  Relation SendExpect = parseRelation(
      "[PIVOT] -> { [v1,v2] : v1 = PIVOT && 1 <= v1 && "
      "PIVOT + 1 <= v2 <= 100 && 1 <= v2 }");
  EXPECT_TRUE(CS.ActiveSendVPSet.isEqualTo(SendExpect))
      << "got " << CS.ActiveSendVPSet.toString();

  // activeRecvVPSet = busyVPSet.
  EXPECT_TRUE(CS.ActiveRecvVPSet.isEqualTo(CS.BusyVPSet))
      << "got " << CS.ActiveRecvVPSet.toString();

  // Spot checks with PIVOT = 10.
  EXPECT_TRUE(containsPivot(CS.ActiveSendVPSet, 10, {10, 42}));
  EXPECT_FALSE(containsPivot(CS.ActiveSendVPSet, 10, {11, 42}));
  EXPECT_TRUE(containsPivot(CS.ActiveRecvVPSet, 10, {11, 42}));
  EXPECT_FALSE(containsPivot(CS.ActiveRecvVPSet, 10, {10, 42}));
}

TEST(Figure5, NLDataAccessed) {
  Gauss G;
  CPInfo CP = computeCP(G.MB, G.Nest, G.Nest.Stmts[0]);
  CommEventInput E;
  E.Array = "A";
  E.Refs.push_back({CP.CPMap, false,
                    G.MB.refMap(G.Nest, G.Nest.Stmts[0].Reads[0]), false});
  CommSets CS = computeCommSets(G.MB, E);
  // NLDataAccessed_read = {[v1,v2] -> [PIVOT, v2] : PIVOT < v1,v2 <= 100}
  // (plus the implicit template bounds on the VPs; the accessed element
  // itself is not re-bounded — RefMap carries no array bounds, as in the
  // paper's Figure 2).
  Relation Expect = parseRelation(
      "[PIVOT] -> { [v1,v2] -> [a1,a2] : a1 = PIVOT && a2 = v2 && "
      "PIVOT + 1 <= v1 <= 100 && 1 <= v1 && "
      "PIVOT + 1 <= v2 <= 100 && 1 <= v2 }");
  EXPECT_TRUE(CS.NLDataAccessedRead.isEqualTo(Expect))
      << "got " << CS.NLDataAccessedRead.simplify().toString();
}

} // namespace
