//===- tests/pset_basic_test.cpp - Core Presburger engine tests ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Validates the set engine against a brute-force membership oracle: every
// operation result is compared pointwise over a bounding box, so these tests
// check exact integer semantics (including dark-shadow/splinter projection).
//
//===----------------------------------------------------------------------===//

#include "pset/Relation.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace dhpf;

namespace {

using Point = std::vector<int64_t>;

/// Enumerates the points of a (parameter-free or bound) set over the box
/// [Lo, Hi]^rank by membership queries.
std::set<Point> pointsOf(const Relation &S, int64_t Lo, int64_t Hi,
                         const std::vector<int64_t> &ParamVals = {}) {
  EXPECT_TRUE(S.isSet());
  unsigned K = S.numOut();
  std::set<Point> Pts;
  Point P(K, Lo);
  for (;;) {
    if (S.contains(P, ParamVals))
      Pts.insert(P);
    unsigned D = 0;
    while (D < K && ++P[D] > Hi) {
      P[D] = Lo;
      ++D;
    }
    if (D == K)
      break;
  }
  return Pts;
}

TEST(PsetParse, SimpleInterval) {
  Relation S = parseRelation("{ [i] : 1 <= i <= 5 }");
  EXPECT_EQ(S.numOut(), 1u);
  EXPECT_FALSE(S.isEmpty());
  auto Pts = pointsOf(S, -10, 10);
  EXPECT_EQ(Pts.size(), 5u);
  EXPECT_TRUE(Pts.count({1}));
  EXPECT_TRUE(Pts.count({5}));
  EXPECT_FALSE(Pts.count({0}));
  EXPECT_FALSE(Pts.count({6}));
}

TEST(PsetParse, ChainAndCoefficients) {
  Relation S = parseRelation("{ [i,j] : 0 <= 2i < j && j <= 6 }");
  auto Pts = pointsOf(S, -8, 8);
  std::set<Point> Expect;
  for (int64_t I = -8; I <= 8; ++I)
    for (int64_t J = -8; J <= 8; ++J)
      if (0 <= 2 * I && 2 * I < J && J <= 6)
        Expect.insert({I, J});
  EXPECT_EQ(Pts, Expect);
}

TEST(PsetParse, Universe) {
  Relation S = parseRelation("{ [i] }");
  EXPECT_FALSE(S.isEmpty());
  EXPECT_TRUE(S.contains({1234}));
}

TEST(PsetParse, FalseIsEmpty) {
  Relation S = parseRelation("{ [i] : false }");
  EXPECT_TRUE(S.isEmpty());
}

TEST(PsetParse, Disjunction) {
  Relation S = parseRelation("{ [i] : 1 <= i <= 3 or 7 <= i <= 8 }");
  auto Pts = pointsOf(S, 0, 10);
  EXPECT_EQ(Pts.size(), 5u);
  EXPECT_TRUE(S.contains({7}));
  EXPECT_FALSE(S.contains({5}));
}

TEST(PsetParse, ExistsStride) {
  // Even numbers in [0, 10].
  Relation S = parseRelation("{ [i] : 0 <= i <= 10 && exists(a : i = 2a) }");
  auto Pts = pointsOf(S, -2, 12);
  EXPECT_EQ(Pts.size(), 6u);
  for (auto &P : Pts)
    EXPECT_EQ(P[0] % 2, 0);
}

TEST(PsetParse, Parameters) {
  Relation S = parseRelation("[N] -> { [i] : 1 <= i <= N }");
  EXPECT_EQ(S.numParams(), 1u);
  EXPECT_TRUE(S.contains({3}, {5}));
  EXPECT_FALSE(S.contains({6}, {5}));
  // Auto-registered parameter without prefix.
  Relation T = parseRelation("{ [i] : 1 <= i <= M }");
  EXPECT_EQ(T.numParams(), 1u);
}

TEST(PsetEmptiness, GcdInfeasible) {
  // 2i = 2j + 1 has no integer solution.
  Relation S = parseRelation("{ [i,j] : 2i = 2j + 1 }");
  EXPECT_TRUE(S.isEmpty());
  // One variable whose coefficient does not divide the constant.
  EXPECT_TRUE(parseRelation("{ [i] : 2*i = 5 }").isEmpty());
}

TEST(PsetEmptiness, Contradiction) {
  Relation S = parseRelation("{ [i] : i >= 5 && i <= 4 }");
  EXPECT_TRUE(S.isEmpty());
  EXPECT_TRUE(parseRelation("{ [i] : 4 <= i and i <= 2 }").isEmpty());
}

TEST(PsetEmptiness, TightIntegerGap) {
  // 2 <= 3i <= 4 forces i = 1 (3i = 3). Satisfiable.
  Relation S = parseRelation("{ [i] : 2 <= 3i && 3i <= 4 }");
  EXPECT_FALSE(S.isEmpty());
  EXPECT_TRUE(S.contains({1}));
  // 4 <= 3i <= 5 has no integer solution (omega dark shadow case).
  Relation T = parseRelation("{ [i] : 4 <= 3i && 3i <= 5 }");
  EXPECT_TRUE(T.isEmpty());
}

TEST(PsetEmptiness, StrideConflict) {
  // i even and i odd simultaneously.
  Relation S = parseRelation(
      "{ [i] : exists(a : i = 2a) && exists(b : i = 2b + 1) }");
  EXPECT_TRUE(S.isEmpty());
}

TEST(PsetOps, IntersectMatchesOracle) {
  Relation A = parseRelation("{ [i,j] : 0 <= i <= 6 && 0 <= j <= 6 }");
  Relation B = parseRelation("{ [i,j] : i <= j && 2 <= j <= 9 }");
  Relation C = A.intersect(B);
  auto Pts = pointsOf(C, -2, 11);
  std::set<Point> Expect;
  for (auto &P : pointsOf(A, -2, 11))
    if (B.contains(P))
      Expect.insert(P);
  EXPECT_EQ(Pts, Expect);
}

TEST(PsetOps, UnionMatchesOracle) {
  Relation A = parseRelation("{ [i] : 0 <= i <= 3 }");
  Relation B = parseRelation("{ [i] : 2 <= i <= 8 }");
  auto Pts = pointsOf(A.unionWith(B), -3, 12);
  EXPECT_EQ(Pts.size(), 9u);
}

TEST(PsetOps, SubtractMatchesOracle) {
  Relation A = parseRelation("{ [i,j] : 0 <= i <= 5 && 0 <= j <= 5 }");
  Relation B = parseRelation("{ [i,j] : 1 <= i <= 4 && 2 <= j <= 3 }");
  Relation C = A.subtract(B);
  auto Pts = pointsOf(C, -2, 7);
  std::set<Point> Expect;
  for (auto &P : pointsOf(A, -2, 7))
    if (!B.contains(P))
      Expect.insert(P);
  EXPECT_EQ(Pts, Expect);
}

TEST(PsetOps, SubtractStride) {
  // Box minus evens = odds.
  Relation A = parseRelation("{ [i] : 0 <= i <= 10 }");
  Relation B = parseRelation("{ [i] : exists(a : i = 2a) }");
  Relation C = A.subtract(B);
  auto Pts = pointsOf(C, -2, 12);
  EXPECT_EQ(Pts.size(), 5u);
  for (auto &P : Pts)
    EXPECT_EQ((P[0] % 2 + 2) % 2, 1);
}

TEST(PsetOps, SubtractStrideFromStride) {
  // Evens minus multiples of four: i ≡ 2 (mod 4).
  Relation A = parseRelation(
      "{ [i] : 0 <= i <= 20 && exists(a : i = 2a) }");
  Relation B = parseRelation("{ [i] : exists(b : i = 4b) }");
  Relation C = A.subtract(B);
  for (int64_t I = -2; I <= 22; ++I) {
    bool Expect = I >= 0 && I <= 20 && I % 2 == 0 && I % 4 != 0;
    EXPECT_EQ(C.contains({I}), Expect) << "i=" << I;
  }
}

TEST(PsetOps, SubtractFromStride) {
  // Multiples of three minus a middle box.
  Relation A = parseRelation(
      "{ [i] : 0 <= i <= 30 && exists(a : i = 3a) }");
  Relation B = parseRelation("{ [i] : 7 <= i <= 14 }");
  Relation C = A.subtract(B);
  for (int64_t I = -2; I <= 32; ++I) {
    bool Expect = I >= 0 && I <= 30 && I % 3 == 0 && !(I >= 7 && I <= 14);
    EXPECT_EQ(C.contains({I}), Expect) << "i=" << I;
  }
}

TEST(PsetOps, SubtractWithEqualities) {
  Relation A = parseRelation("{ [i,j] : 0 <= i <= 4 && 0 <= j <= 4 }");
  Relation B = parseRelation("{ [i,j] : i = j }");
  Relation C = A.subtract(B);
  auto Pts = pointsOf(C, -1, 5);
  EXPECT_EQ(Pts.size(), 20u);
  EXPECT_FALSE(C.contains({2, 2}));
  EXPECT_TRUE(C.contains({2, 3}));
}

TEST(PsetOps, SubsetAndEquality) {
  Relation A = parseRelation("{ [i] : 2 <= i <= 4 }");
  Relation B = parseRelation("{ [i] : 0 <= i <= 9 }");
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  Relation B2 = parseRelation("{ [i] : 0 <= i <= 4 or 4 <= i <= 9 }");
  EXPECT_TRUE(B.isEqualTo(B2));
}

TEST(PsetOps, ProjectionExactness) {
  // { i : exists a : 3a <= i <= 3a + 1 } - integers whose residue mod 3 is
  // 0 or 1. Projection of a must be exact (splinter case: coefficients > 1
  // on both sides after rewriting). Check pointwise.
  Relation S = parseRelation(
      "{ [i] : 0 <= i <= 20 && exists(a : 3a <= i && i <= 3a + 1) }");
  Relation Flat = S.normalizeExists();
  for (int64_t I = 0; I <= 20; ++I) {
    bool Expect = (I % 3) != 2;
    EXPECT_EQ(S.contains({I}), Expect) << "i=" << I;
    EXPECT_EQ(Flat.contains({I}), Expect) << "flat i=" << I;
  }
}

TEST(PsetMaps, ComposeAndApply) {
  // F: i -> i+1 on [0,9]; G: j -> 2j. (F;G): i -> 2(i+1).
  Relation F = parseRelation("{ [i] -> [j] : j = i + 1 && 0 <= i <= 9 }");
  Relation G = parseRelation("{ [j] -> [k] : k = 2j }");
  Relation FG = F.composeWith(G);
  EXPECT_TRUE(FG.contains(/*Out=*/{8}, {}, /*In=*/{3}));
  EXPECT_FALSE(FG.contains({9}, {}, {3}));
  Relation S = parseRelation("{ [i] : 2 <= i <= 4 }");
  Relation Img = FG.apply(S);
  auto Pts = pointsOf(Img, 0, 30);
  std::set<Point> Expect = {{6}, {8}, {10}};
  EXPECT_EQ(Pts, Expect);
}

TEST(PsetMaps, DomainRangeInverse) {
  Relation F = parseRelation(
      "{ [i] -> [j] : j = i + 2 && 0 <= i <= 5 && j <= 6 }");
  auto D = pointsOf(F.domain(), -3, 10);
  auto R = pointsOf(F.range(), -3, 10);
  std::set<Point> ExpD = {{0}, {1}, {2}, {3}, {4}};
  std::set<Point> ExpR = {{2}, {3}, {4}, {5}, {6}};
  EXPECT_EQ(D, ExpD);
  EXPECT_EQ(R, ExpR);
  Relation Inv = F.inverse();
  EXPECT_TRUE(Inv.contains(/*Out=*/{1}, {}, /*In=*/{3}));
}

TEST(PsetMaps, RestrictDomainRange) {
  Relation F = parseRelation("{ [i] -> [j] : j = i && 0 <= i <= 9 }");
  Relation S = parseRelation("{ [i] : 3 <= i <= 4 }");
  Relation T = parseRelation("{ [j] : 4 <= j <= 9 }");
  Relation RD = F.restrictDomain(S);
  Relation RR = F.restrictRange(T);
  EXPECT_TRUE(RD.contains({3}, {}, {3}));
  EXPECT_FALSE(RD.contains({5}, {}, {5}));
  EXPECT_TRUE(RR.contains({5}, {}, {5}));
  EXPECT_FALSE(RR.contains({3}, {}, {3}));
}

TEST(PsetMaps, ParametricCompose) {
  // Block layout: proc p owns [25p+1, 25p+25]; ref map i -> i-1.
  Relation Layout = parseRelation(
      "{ [p] -> [a] : 25p + 1 <= a <= 25p + 25 && 0 <= p <= 3 }");
  Relation S = parseRelation("{ [p] : p = 2 }");
  auto Owned = pointsOf(Layout.apply(S), 0, 120);
  EXPECT_EQ(Owned.size(), 25u);
  EXPECT_TRUE(Owned.count({51}));
  EXPECT_TRUE(Owned.count({75}));
  EXPECT_FALSE(Owned.count({76}));
}

TEST(PsetStructure, BindParams) {
  Relation S = parseRelation("[N] -> { [i] : 1 <= i <= N }");
  Relation S5 = S.bindParams({{"N", 5}});
  EXPECT_EQ(S5.numParams(), 0u);
  EXPECT_EQ(pointsOf(S5, -2, 10).size(), 5u);
}

TEST(PsetStructure, BindDomainToParams) {
  Relation Layout = parseRelation(
      "{ [p] -> [a] : 10p + 1 <= a <= 10p + 10 }");
  Relation Mine = Layout.bindDomainToParams({"m"});
  EXPECT_TRUE(Mine.isSet());
  EXPECT_EQ(Mine.numParams(), 1u);
  // With m = 2 the owned section is [21, 30].
  EXPECT_TRUE(Mine.contains({21}, {2}));
  EXPECT_TRUE(Mine.contains({30}, {2}));
  EXPECT_FALSE(Mine.contains({31}, {2}));
}

TEST(PsetStructure, ProjectOntoDim) {
  Relation S = parseRelation("{ [i,j] : 1 <= i <= 3 && 5 <= j <= 9 }");
  auto P0 = pointsOf(S.projectOntoDim(0), 0, 12);
  auto P1 = pointsOf(S.projectOntoDim(1), 0, 12);
  EXPECT_EQ(P0.size(), 3u);
  EXPECT_EQ(P1.size(), 5u);
  EXPECT_TRUE(P1.count({7}));
}

TEST(PsetHull, ConvexAndNot) {
  Relation Convex = parseRelation("{ [i] : 0 <= i <= 9 }");
  EXPECT_TRUE(Convex.isConvexProven());
  Relation Gap = parseRelation("{ [i] : 0 <= i <= 3 or 6 <= i <= 9 }");
  EXPECT_FALSE(Gap.isConvexProven());
  Relation Overlap = parseRelation("{ [i] : 0 <= i <= 5 or 3 <= i <= 9 }");
  EXPECT_TRUE(Overlap.isConvexProven());
}

TEST(PsetHull, SimpleHullContainsUnion) {
  Relation S = parseRelation("{ [i,j] : 0 <= i <= 2 && 0 <= j <= 2 or "
                             "4 <= i <= 6 && 0 <= j <= 2 }");
  Relation H = S.simpleHull();
  EXPECT_TRUE(S.isSubsetOf(H));
  // j bounds are common to both conjuncts and must survive in the hull.
  EXPECT_FALSE(H.contains({1, 3}));
}

TEST(PsetSingleton, Tests) {
  EXPECT_TRUE(parseRelation("{ [i] : i = 7 }").isSingletonProven());
  EXPECT_FALSE(parseRelation("{ [i] : 0 <= i <= 1 }").isSingletonProven());
  EXPECT_TRUE(parseRelation("{ [i] : false }").isSingletonProven());
  // Parametric singleton: one point per m.
  EXPECT_TRUE(
      parseRelation("[m] -> { [i] : i = m + 3 }").isSingletonProven());
  // Parametric non-singleton.
  EXPECT_FALSE(
      parseRelation("[m] -> { [i] : m <= i <= m + 1 }").isSingletonProven());
}

TEST(PsetPrint, RoundTrip) {
  const char *Cases[] = {
      "{ [i] : 1 <= i <= 5 }",
      "[N] -> { [i,j] : 1 <= i <= N && 0 <= 2j <= i }",
      "{ [i] -> [j] : j = i + 1 && 0 <= i <= 9 }",
      "{ [i] : 0 <= i <= 10 && exists(a : i = 2a) }",
      "{ [i] : 1 <= i <= 3 or 7 <= i <= 8 }",
  };
  for (const char *Text : Cases) {
    Relation A = parseRelation(Text);
    Relation B = parseRelation(A.toString());
    EXPECT_TRUE(A.isEqualTo(B)) << Text << " vs " << A.toString();
  }
}

TEST(PsetSimplify, RemovesRedundancy) {
  Relation S = parseRelation(
      "{ [i] : 0 <= i <= 9 && i <= 20 && 2i <= 40 && i >= -5 }");
  Relation Simp = S.simplify();
  ASSERT_EQ(Simp.conjuncts().size(), 1u);
  EXPECT_EQ(Simp.conjuncts()[0].rows().size(), 2u);
  EXPECT_TRUE(Simp.isEqualTo(S));
}

TEST(PsetSimplify, CoalesceSubsumed) {
  Relation S = parseRelation("{ [i] : 0 <= i <= 9 or 2 <= i <= 5 }");
  Relation C = S.coalesce();
  EXPECT_EQ(C.conjuncts().size(), 1u);
  EXPECT_TRUE(C.isEqualTo(S));
}

} // namespace
