//===- pset/OmegaTest.cpp - Exact integer projection and satisfiability --===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "pset/OmegaTest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace dhpf;

namespace {

/// Symmetric modulus: the representative of A mod M in (-M/2, M/2].
int64_t symMod(int64_t A, int64_t M) {
  int64_t R = floorMod(A, M);
  if (2 * R > M)
    R -= M;
  return R;
}

/// Picks the cheapest variable of the existential region to eliminate:
/// prefer one with a unit equality coefficient (free substitution), then
/// one unbounded on a side (constraints just drop), then the smallest
/// Fourier-Motzkin pair count, penalizing inexact (splintering) pairs.
int pickExist(const Conjunct &C) {
  if (C.numExists() == 0)
    return -1;
  int Best = -1;
  int64_t BestCost = std::numeric_limits<int64_t>::max();
  for (unsigned E = 0, NE = C.numExists(); E != NE; ++E) {
    unsigned Col = C.existCol(E);
    unsigned NumL = 0, NumU = 0;
    bool HasUnitEq = false, HasEq = false;
    bool AllUnitL = true, AllUnitU = true;
    for (const Row &R : C.rows()) {
      int64_t A = R.Coef[Col];
      if (A == 0)
        continue;
      if (R.IsEq) {
        HasEq = true;
        if (A == 1 || A == -1)
          HasUnitEq = true;
        continue;
      }
      if (A > 0) {
        ++NumL;
        if (A != 1)
          AllUnitL = false;
      } else {
        ++NumU;
        if (A != -1)
          AllUnitU = false;
      }
    }
    int64_t Cost;
    if (HasUnitEq)
      Cost = 0;
    else if (HasEq)
      Cost = 1;
    else if (NumL == 0 || NumU == 0)
      Cost = 2;
    else {
      Cost = 3 + static_cast<int64_t>(NumL) * NumU;
      if (!AllUnitL && !AllUnitU)
        Cost += 1000; // splintering likely; defer
    }
    if (Cost < BestCost) {
      BestCost = Cost;
      Best = static_cast<int>(E);
    }
    if (BestCost == 0)
      break;
  }
  return Best;
}

bool satisfiableRec(Conjunct C, unsigned Depth);

} // namespace

std::vector<Conjunct> omega::eliminateExist(Conjunct C, unsigned ExistIdx) {
  assert(ExistIdx < C.numExists() && "not an existential variable");
  if (!C.normalize())
    return {};
  unsigned Col = C.existCol(ExistIdx);

  // Equality path: reduce the target coefficient to a unit, substitute.
  for (;;) {
    int EqIdx = -1;
    int64_t MinA = 0;
    for (unsigned I = 0, E = C.rows().size(); I != E; ++I) {
      const Row &R = C.rows()[I];
      if (!R.IsEq || R.Coef[Col] == 0)
        continue;
      int64_t A = R.Coef[Col] < 0 ? -R.Coef[Col] : R.Coef[Col];
      if (EqIdx < 0 || A < MinA) {
        EqIdx = static_cast<int>(I);
        MinA = A;
      }
    }
    if (EqIdx < 0)
      break;
    if (MinA == 1) {
      C.substituteUsingEq(EqIdx, Col);
      return {std::move(C)};
    }
    // Pugh's modular reduction: from  sum(a_i v_i) + c = 0  derive the
    // implied equality  sum(symMod(a_i, m) v_i) + symMod(c, m) = m * sigma
    // with m = a_col + 1, so the target column gets coefficient -1.
    Row Eq = C.rows()[EqIdx];
    if (Eq.Coef[Col] < 0)
      for (int64_t &X : Eq.Coef)
        X = -X;
    int64_t M = Eq.Coef[Col] + 1;
    unsigned SigmaCol = C.addExistVar(); // appended after Col; Col unchanged
    Row N;
    N.IsEq = true;
    N.Coef.assign(C.width(), 0);
    for (unsigned I = 0, E = Eq.Coef.size() - 1; I != E; ++I)
      N.Coef[I] = symMod(Eq.Coef[I], M);
    N.constant() = symMod(Eq.constant(), M);
    N.Coef[SigmaCol] = -M;
    assert(N.Coef[Col] == -1 && "modular reduction must yield a unit");
    C.rows().push_back(std::move(N));
    C.substituteUsingEq(C.rows().size() - 1, Col);
    return {std::move(C)};
  }

  // Fourier-Motzkin path over inequalities.
  std::vector<unsigned> Lower, Upper;
  std::vector<Row> Unrelated;
  for (unsigned I = 0, E = C.rows().size(); I != E; ++I) {
    const Row &R = C.rows()[I];
    int64_t A = R.Coef[Col];
    if (A == 0) {
      Unrelated.push_back(R);
      continue;
    }
    assert(!R.IsEq && "equalities were eliminated above");
    (A > 0 ? Lower : Upper).push_back(I);
  }
  if (Lower.empty() || Upper.empty()) {
    // Unbounded on one side: the projection simply drops the constraints.
    Conjunct Res(C.numParams(), C.numIn(), C.numOut(), C.numExists());
    Res.rows() = std::move(Unrelated);
    Res.removeCol(Col);
    return {std::move(Res)};
  }

  bool Exact = true;
  for (unsigned LI : Lower) {
    int64_t A = C.rows()[LI].Coef[Col];
    if (A == 1)
      continue;
    for (unsigned UI : Upper) {
      int64_t B = -C.rows()[UI].Coef[Col];
      if (B != 1) {
        Exact = false;
        break;
      }
    }
    if (!Exact)
      break;
  }

  // Combines lower row L (coeff a > 0) and upper row U (coeff -b < 0) into
  // b*L + a*U - Slack >= 0; the target column cancels.
  auto makeShadow = [&](bool Dark) {
    Conjunct Res(C.numParams(), C.numIn(), C.numOut(), C.numExists());
    Res.rows() = Unrelated;
    for (unsigned LI : Lower) {
      const Row &L = C.rows()[LI];
      int64_t A = L.Coef[Col];
      for (unsigned UI : Upper) {
        const Row &U = C.rows()[UI];
        int64_t B = -U.Coef[Col];
        Row NR;
        NR.IsEq = false;
        NR.Coef.resize(C.width());
        for (unsigned I = 0, E = C.width(); I != E; ++I)
          NR.Coef[I] = addOv(mulOv(B, L.Coef[I]), mulOv(A, U.Coef[I]));
        assert(NR.Coef[Col] == 0 && "column failed to cancel");
        if (Dark)
          NR.constant() = subOv(NR.constant(), mulOv(A - 1, B - 1));
        Res.rows().push_back(std::move(NR));
      }
    }
    Res.removeCol(Col);
    return Res;
  };

  if (Exact)
    return {makeShadow(/*Dark=*/false)};

  // Inexact: dark shadow plus splinters (Pugh 1992). A solution outside the
  // dark shadow must sit within (a*bhat - a - bhat)/bhat of some lower
  // bound a*x >= alpha, so we enumerate a*x = alpha + i for those i.
  std::vector<Conjunct> Results;
  Results.push_back(makeShadow(/*Dark=*/true));

  int64_t BHat = 0;
  for (unsigned UI : Upper)
    BHat = std::max(BHat, -C.rows()[UI].Coef[Col]);
  for (unsigned LI : Lower) {
    int64_t A = C.rows()[LI].Coef[Col];
    if (A <= 1)
      continue;
    int64_t MaxI = floorDiv(mulOv(A, BHat) - A - BHat, BHat);
    assert(MaxI < 4096 && "splinter explosion; coefficients too large");
    for (int64_t I = 0; I <= MaxI; ++I) {
      Conjunct S = C;
      Row EqR = S.rows()[LI]; // rest + a*x >= 0  ==>  rest + a*x - i = 0
      EqR.IsEq = true;
      EqR.constant() = subOv(EqR.constant(), I);
      S.rows().push_back(std::move(EqR));
      std::vector<Conjunct> Sub = eliminateExist(std::move(S), ExistIdx);
      for (Conjunct &SC : Sub)
        Results.push_back(std::move(SC));
    }
  }
  return Results;
}

namespace {

/// Occurrence summary for one existential column.
struct ExistInfo {
  unsigned EqCount = 0;   // equalities mentioning it
  unsigned IneqCount = 0; // inequalities mentioning it
  int OnlyEqRow = -1;     // the row index when EqCount == 1
  int64_t MinEqCoef = 0;  // min |coefficient| over equalities
};

ExistInfo summarizeExist(const Conjunct &C, unsigned Col) {
  ExistInfo Info;
  for (unsigned I = 0, E = C.rows().size(); I != E; ++I) {
    const Row &R = C.rows()[I];
    int64_t A = R.Coef[Col];
    if (A == 0)
      continue;
    if (A < 0)
      A = -A;
    if (R.IsEq) {
      ++Info.EqCount;
      Info.OnlyEqRow = static_cast<int>(I);
      if (Info.MinEqCoef == 0 || A < Info.MinEqCoef)
        Info.MinEqCoef = A;
    } else {
      ++Info.IneqCount;
    }
  }
  return Info;
}

/// True if existential \p Col is a lonely divisibility witness: it occurs in
/// exactly one constraint, an equality, and no *other* existential of that
/// equality occurs elsewhere ambiguously (other lonely witnesses in the same
/// equality are merged by normalizeExists before this is final).
bool isLonelyWitness(const Conjunct &C, unsigned Col, const ExistInfo &Info) {
  (void)C;
  (void)Col;
  return Info.EqCount == 1 && Info.IneqCount == 0;
}

} // namespace

std::vector<Conjunct> omega::normalizeExists(const Conjunct &C) {
  std::vector<Conjunct> Work = {C}, Done;
  unsigned Fuel = 0;
  while (!Work.empty()) {
    Conjunct W = std::move(Work.back());
    Work.pop_back();
    // A bound in every build, not an assert: an NDEBUG build would
    // otherwise loop without end.
    if (++Fuel >= 100000) {
      std::fputs("pset: existential normalization diverged\n", stderr);
      std::abort();
    }
    if (!W.normalize())
      continue;

    // Merge lonely witnesses sharing one equality:  a*e1 + b*e2  takes
    // exactly the values of gcd(a,b)*Z, so keep a single witness.
    bool Restart = false;
    for (unsigned RI = 0, RE = W.rows().size(); RI != RE && !Restart; ++RI) {
      Row &R = W.rows()[RI];
      if (!R.IsEq)
        continue;
      std::vector<unsigned> Witnesses;
      for (unsigned EI = 0; EI != W.numExists(); ++EI) {
        unsigned Col = W.existCol(EI);
        if (R.Coef[Col] == 0)
          continue;
        ExistInfo Info = summarizeExist(W, Col);
        if (Info.EqCount == 1 && Info.IneqCount == 0)
          Witnesses.push_back(Col);
      }
      if (Witnesses.size() < 2)
        continue;
      int64_t G = 0;
      for (unsigned Col : Witnesses)
        G = gcd64(G, R.Coef[Col]);
      for (unsigned I = 1; I != Witnesses.size(); ++I)
        R.Coef[Witnesses[I]] = 0;
      R.Coef[Witnesses[0]] = G;
      Restart = true; // unused columns are dropped below
    }
    if (Restart) {
      Work.push_back(std::move(W));
      continue;
    }

    // Find an action for some non-final existential, in a strict priority
    // order chosen for termination:
    //   0 drop an unused column;
    //   1 substitute a variable with a unit equality coefficient;
    //   (lonely witnesses are final: divisibility normal form)
    //   2 make lonely by scaling, only when its equality contains no other
    //     existential (otherwise occurrences ping-pong between the two);
    //   3 mod-trick elimination (creates a unit coefficient next round);
    //   4 exact Fourier-Motzkin for inequality-only variables.
    int Action = -1;
    unsigned Target = 0; // exist index (actions 1-4) or column (action 0)
    int EqRow = -1;
    auto ConsiderAction = [&](int NewAction, unsigned NewTarget, int NewEq) {
      if (Action < 0 || NewAction < Action) {
        Action = NewAction;
        Target = NewTarget;
        EqRow = NewEq;
      }
    };
    for (unsigned EI = 0; EI != W.numExists() && Action != 0; ++EI) {
      unsigned Col = W.existCol(EI);
      ExistInfo Info = summarizeExist(W, Col);
      if (Info.EqCount == 0 && Info.IneqCount == 0) {
        ConsiderAction(0, Col, -1);
        continue;
      }
      if (Info.EqCount > 0 && Info.MinEqCoef == 1) {
        int Eq = -1;
        for (unsigned RI = 0, RE = W.rows().size(); RI != RE; ++RI) {
          const Row &R = W.rows()[RI];
          if (R.IsEq && (R.Coef[Col] == 1 || R.Coef[Col] == -1)) {
            Eq = static_cast<int>(RI);
            break;
          }
        }
        ConsiderAction(1, EI, Eq);
        continue;
      }
      if (isLonelyWitness(W, Col, Info))
        continue; // final: divisibility normal form (expr ≡ 0 mod a)
      if (Info.EqCount > 0) {
        // Find the minimum-coefficient equality for Col; if it has no other
        // existential, cancel Col from every other row by exact positive
        // scaling (action 2); otherwise fall back to mod-trick elimination.
        int BestEq = -1;
        int64_t Best = 0;
        for (unsigned RI = 0, RE = W.rows().size(); RI != RE; ++RI) {
          const Row &R = W.rows()[RI];
          if (!R.IsEq || R.Coef[Col] == 0)
            continue;
          int64_t A = R.Coef[Col] < 0 ? -R.Coef[Col] : R.Coef[Col];
          if (BestEq < 0 || A < Best) {
            BestEq = static_cast<int>(RI);
            Best = A;
          }
        }
        bool OtherExist = false;
        for (unsigned EJ = 0; EJ != W.numExists(); ++EJ)
          if (EJ != EI && W.rows()[BestEq].Coef[W.existCol(EJ)] != 0)
            OtherExist = true;
        if (!OtherExist)
          ConsiderAction(2, EI, BestEq);
        else
          ConsiderAction(3, EI, BestEq);
        continue;
      }
      ConsiderAction(4, EI, -1);
    }
    if (Action < 0) {
      Done.push_back(std::move(W));
      continue;
    }
    switch (Action) {
    case 0:
      W.removeCol(Target);
      Work.push_back(std::move(W));
      break;
    case 1:
      W.substituteUsingEq(EqRow, W.existCol(Target));
      Work.push_back(std::move(W));
      break;
    case 2: {
      unsigned Col = W.existCol(Target);
      const Row Eq = W.rows()[EqRow]; // copy: rows vector is edited below
      int64_t A = Eq.Coef[Col];
      for (unsigned RI = 0, RE = W.rows().size(); RI != RE; ++RI) {
        if (static_cast<int>(RI) == EqRow)
          continue;
        Row &R = W.rows()[RI];
        int64_t C = R.Coef[Col];
        if (C == 0)
          continue;
        // Scale R by s = |A|/g > 0 (exact for both eq and ineq rows), then
        // subtract (s*C/A) * Eq to cancel the column.
        int64_t G = gcd64(A, C);
        int64_t S = (A < 0 ? -A : A) / G;
        int64_t F = mulOv(S, C) / A;
        for (unsigned K = 0, KE = W.width(); K != KE; ++K)
          R.Coef[K] = subOv(mulOv(S, R.Coef[K]), mulOv(F, Eq.Coef[K]));
        assert(R.Coef[Col] == 0 && "scaling failed to cancel the column");
      }
      Work.push_back(std::move(W));
      break;
    }
    default:
      // Mod-trick elimination (action 3) or exact Fourier-Motzkin with
      // splinters (action 4); both are eliminateExist on this variable.
      // Fresh existentials introduced along the way are re-processed.
      for (Conjunct &R : eliminateExist(std::move(W), Target))
        Work.push_back(std::move(R));
      break;
    }
  }
  return Done;
}

namespace {

bool satisfiableRec(Conjunct C, unsigned Depth) {
  assert(Depth < 10000 && "omega test diverged");
  if (!C.normalize())
    return false;
  if (C.rows().empty())
    return true;
  int E = pickExist(C);
  if (E < 0)
    return true; // no variables left; normalize() validated constants
  for (Conjunct &R : omega::eliminateExist(std::move(C), E))
    if (satisfiableRec(std::move(R), Depth + 1))
      return true;
  return false;
}

} // namespace

bool omega::isSatisfiable(const Conjunct &C) {
  return satisfiableRec(C.allVarsExistential(), 0);
}

bool omega::impliesRow(const Conjunct &C, const Row &R) {
  assert(R.Coef.size() == C.width() && "row width mismatch");
  if (R.IsEq) {
    Row A = R, B = R;
    A.IsEq = B.IsEq = false;
    for (int64_t &X : B.Coef)
      X = -X;
    return impliesRow(C, A) && impliesRow(C, B);
  }
  // C implies (R >= 0) iff C && (R <= -1) is unsatisfiable.
  Conjunct S = C;
  Row Neg = R;
  for (int64_t &X : Neg.Coef)
    X = -X;
  Neg.constant() = subOv(Neg.constant(), 1);
  S.rows().push_back(std::move(Neg));
  return !isSatisfiable(S);
}

void omega::removeRedundantRows(Conjunct &C) {
  for (unsigned I = 0; I < C.rows().size();) {
    if (C.rows()[I].IsEq) {
      ++I;
      continue;
    }
    Conjunct Rest(C.numParams(), C.numIn(), C.numOut(), C.numExists());
    Row Target = C.rows()[I];
    for (unsigned J = 0, E = C.rows().size(); J != E; ++J)
      if (J != I)
        Rest.rows().push_back(C.rows()[J]);
    if (impliesRow(Rest, Target))
      C.rows().erase(C.rows().begin() + I);
    else
      ++I;
  }
}
