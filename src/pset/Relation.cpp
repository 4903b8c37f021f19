//===- pset/Relation.cpp - Presburger sets and mappings ------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "pset/Relation.h"

#include "pset/Fingerprint.h"
#include "pset/OmegaTest.h"
#include "pset/OpCache.h"

#include <algorithm>
#include <sstream>

using namespace dhpf;

//===----------------------------------------------------------------------===//
// Operation-cache plumbing
//===----------------------------------------------------------------------===//

namespace {

template <typename Fn>
Relation cachedBinaryOp(pset::Op O, const Relation &A, const Relation &B,
                        Fn Compute) {
  pset::OpCache &C = pset::OpCache::global();
  if (!C.enabled())
    return Compute();
  // Memoized keys: O(1) after each operand's first use.
  uint64_t FA = A.fingerprint(), FB = B.fingerprint();
  Relation R;
  if (C.lookup(O, FA, FB, R))
    return R;
  R = Compute();
  // Validate the result's memo before inserting, so every future cache hit
  // hands back a relation that already knows its own fingerprint.
  R.fingerprint();
  C.insert(O, FA, FB, R);
  return R;
}

template <typename Fn>
Relation cachedUnaryOp(pset::Op O, const Relation &A, Fn Compute) {
  pset::OpCache &C = pset::OpCache::global();
  if (!C.enabled())
    return Compute();
  uint64_t FA = A.fingerprint();
  Relation R;
  if (C.lookup(O, FA, 0, R))
    return R;
  R = Compute();
  R.fingerprint();
  C.insert(O, FA, 0, R);
  return R;
}

/// True when the performance layer's fast paths are active (tied to the
/// cache's global switch so DHPF_PSET_CACHE=0 restores the seed engine
/// exactly).
bool fastPathsOn() { return pset::OpCache::global().enabled(); }

/// Drops rows that are exact syntactic duplicates (same kind, same
/// coefficients); returns the number removed. Sound for any conjunct.
unsigned dedupRowsSyntactic(Conjunct &C) {
  std::vector<Row> &Rows = C.rows();
  unsigned Removed = 0;
  for (size_t I = 0; I < Rows.size(); ++I)
    for (size_t J = Rows.size(); J-- > I + 1;)
      if (Rows[J].IsEq == Rows[I].IsEq && Rows[J].Coef == Rows[I].Coef) {
        Rows.erase(Rows.begin() + J);
        ++Removed;
      }
  return Removed;
}

} // namespace

Relation Relation::universe(Space S) {
  Relation R(std::move(S));
  R.addConjunct();
  return R;
}

Conjunct &Relation::addConjunct() {
  invalidateFP();
  Conjs.emplace_back(Sp.numParams(), Sp.numIn(), Sp.numOut());
  return Conjs.back();
}

void Relation::addConjunct(Conjunct C) {
  assert(C.numParams() == Sp.numParams() && C.numIn() == Sp.numIn() &&
         C.numOut() == Sp.numOut() && "conjunct shape mismatch");
  invalidateFP();
  Conjs.push_back(std::move(C));
}

uint64_t Relation::fingerprint() const {
  uint64_t H = FPCache.load(std::memory_order_relaxed);
  if (H != 0)
    return H;
  H = pset::fingerprint(*this);
  if (H == 0)
    H = 0x9e3779b97f4a7c15ULL; // 0 is reserved as the "invalid" sentinel
  FPCache.store(H, std::memory_order_relaxed);
  return H;
}

//===----------------------------------------------------------------------===//
// Parameter alignment
//===----------------------------------------------------------------------===//

Relation Relation::alignParams(const std::vector<std::string> &NewParams) const {
  Space NS = Space::map(Sp.inNames(), Sp.outNames(), NewParams);
  Relation R(NS);
  unsigned NP = NewParams.size(), NI = Sp.numIn(), NO = Sp.numOut();
  // Positions of the old parameters within the new list.
  std::vector<int> ParamPos(Sp.numParams());
  for (unsigned P = 0; P != Sp.numParams(); ++P) {
    ParamPos[P] = NS.paramIndex(Sp.paramName(P));
    assert(ParamPos[P] >= 0 && "alignParams must keep existing parameters");
  }
  for (const Conjunct &C : Conjs) {
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != Sp.numParams(); ++P)
      Map[C.paramCol(P)] = ParamPos[P];
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = NP + I;
    for (unsigned O = 0; O != NO; ++O)
      Map[C.outCol(O)] = NP + NI + O;
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NI + NO + E;
    R.Conjs.push_back(Conjunct::remap(C, NP, NI, NO, C.numExists(), Map));
  }
  return R;
}

void Relation::alignPair(Relation &A, Relation &B) {
  if (A.Sp.params() == B.Sp.params())
    return;
  std::vector<std::string> Merged = A.Sp.params();
  for (const std::string &P : B.Sp.params())
    if (std::find(Merged.begin(), Merged.end(), P) == Merged.end())
      Merged.push_back(P);
  A = A.alignParams(Merged);
  B = B.alignParams(Merged);
}

//===----------------------------------------------------------------------===//
// Core operations
//===----------------------------------------------------------------------===//

Relation Relation::intersect(const Relation &O) const {
  return cachedBinaryOp(pset::Op::Intersect, *this, O,
                        [&] { return intersectImpl(O); });
}

Relation Relation::intersectImpl(const Relation &O) const {
  // Deep-copy the operands only when parameter alignment actually has to
  // rewrite them; identical parameter lists (the common case inside the
  // comm-set chains) read straight from the originals.
  Relation StoreA, StoreB;
  const Relation *PA = this, *PB = &O;
  if (Sp.params() != O.Sp.params()) {
    StoreA = *this;
    StoreB = O;
    alignPair(StoreA, StoreB);
    PA = &StoreA;
    PB = &StoreB;
  }
  const Relation &A = *PA, &B = *PB;
  assert(A.Sp.sameDims(B.Sp) && "intersect requires matching dimensions");
  bool Fast = fastPathsOn();
  Relation R(A.Sp);
  R.Conjs.reserve(A.Conjs.size() * B.Conjs.size());
  unsigned Dups = 0;
  for (unsigned I = 0; I != A.Conjs.size(); ++I)
    for (unsigned J = 0; J != B.Conjs.size(); ++J) {
      // §5 guard factoring: conjoining with an unconstrained conjunct (a
      // loop-invariant guard that imposes nothing) reproduces the other
      // operand exactly — skip the per-row renumbering walk.
      const bool SkipA =
          Fast && A.Conjs[I].isUniverse() && A.Conjs[I].numExists() == 0;
      const bool SkipB = !SkipA && Fast && B.Conjs[J].isUniverse() &&
                         B.Conjs[J].numExists() == 0;
      Conjunct C = SkipA ? B.Conjs[J] : A.Conjs[I];
      if (!SkipA && !SkipB)
        C.conjoin(B.Conjs[J]);
      if (Fast)
        Dups += dedupRowsSyntactic(C);
      R.Conjs.push_back(std::move(C));
    }
  if (Dups)
    pset::OpCache::global().noteDupRows(Dups);
  return R;
}

Relation Relation::unionWith(const Relation &O) const {
  if (Sp.params() == O.Sp.params()) {
    Relation A = *this;
    A.invalidateFP();
    A.Conjs.insert(A.Conjs.end(), O.Conjs.begin(), O.Conjs.end());
    return A;
  }
  Relation A = *this, B = O;
  alignPair(A, B);
  assert(A.Sp.sameDims(B.Sp) && "union requires matching dimensions");
  A.invalidateFP();
  for (Conjunct &C : B.Conjs)
    A.Conjs.push_back(std::move(C));
  return A;
}

namespace {

/// One atom of a conjunct being negated: either an ordinary inequality
/// (expr >= 0) over the visible columns, or a divisibility constraint
/// (expr ≡ 0 mod M). Rows are stored over width P+I+O+1.
struct NegAtom {
  Row R;
  int64_t Mod = 0; // 0: ordinary inequality; else divisibility modulus
};

/// Appends atom \p A (positively) to conjunct \p C, padding existentials;
/// divisibility atoms get a fresh witness with residue \p Residue (0 for
/// the positive form, 1..M-1 for the negated branches).
void addAtom(Conjunct &C, const NegAtom &A, int64_t Residue, bool Negated) {
  unsigned Base = C.numParams() + C.numIn() + C.numOut();
  assert(A.R.Coef.size() == Base + 1 && "unexpected atom width");
  if (A.Mod == 0) {
    Row NR;
    NR.IsEq = false;
    NR.Coef.assign(C.width(), 0);
    for (unsigned I = 0; I != Base; ++I)
      NR.Coef[I] = Negated ? -A.R.Coef[I] : A.R.Coef[I];
    NR.Coef[C.width() - 1] =
        Negated ? subOv(-A.R.constant(), 1) : A.R.constant();
    C.rows().push_back(std::move(NR));
    return;
  }
  // expr ≡ Residue (mod M): exists e . expr - Residue - M*e = 0.
  unsigned ECol = C.addExistVar();
  Row NR;
  NR.IsEq = true;
  NR.Coef.assign(C.width(), 0);
  for (unsigned I = 0; I != Base; ++I)
    NR.Coef[I] = A.R.Coef[I];
  NR.Coef[ECol] = -A.Mod;
  NR.constant() = subOv(A.R.constant(), Residue);
  C.rows().push_back(std::move(NR));
}

/// True when conjunct \p C syntactically implies the ordinary-inequality
/// atom (existential-free, width Base+1): some existential-free row of C
/// with the same visible coefficients forces the atom. Used to prune
/// subtract branches whose negated atom the Omega test would reject anyway.
bool impliedAtomSyntactically(const Conjunct &C, const Row &Atom) {
  const unsigned Base = C.numParams() + C.numIn() + C.numOut();
  assert(Atom.Coef.size() == Base + 1 && "unexpected atom width");
  for (const Row &R : C.rows()) {
    bool UsesExist = false;
    for (unsigned E = 0; E != C.numExists(); ++E)
      if (R.Coef[C.existCol(E)] != 0) {
        UsesExist = true;
        break;
      }
    if (UsesExist)
      continue;
    bool SameCoef = true, NegCoef = true;
    for (unsigned I = 0; I != Base && (SameCoef || NegCoef); ++I) {
      SameCoef &= R.Coef[I] == Atom.Coef[I];
      NegCoef &= R.Coef[I] == -Atom.Coef[I];
    }
    const int64_t K = R.Coef[C.width() - 1];
    if (R.IsEq) {
      // expr + K = 0 forces expr = -K; the atom expr + k >= 0 holds iff
      // -K >= -k, i.e. K <= k (mirrored for the negated orientation).
      if ((SameCoef && K <= Atom.constant()) ||
          (NegCoef && K >= -Atom.constant()))
        return true;
    } else if (SameCoef && K <= Atom.constant()) {
      // expr + K >= 0 with K <= k implies expr + k >= 0.
      return true;
    }
  }
  return false;
}

} // namespace

Relation Relation::subtract(const Relation &O) const {
  return cachedBinaryOp(pset::Op::Subtract, *this, O,
                        [&] { return subtractImpl(O); });
}

Relation Relation::subtractImpl(const Relation &O) const {
  Relation StoreA, StoreB;
  const Relation *PA = this, *PB = &O;
  if (Sp.params() != O.Sp.params()) {
    StoreA = *this;
    StoreB = O;
    alignPair(StoreA, StoreB);
    PA = &StoreA;
    PB = &StoreB;
  }
  const Relation &A = *PA, &B = *PB;
  assert(A.Sp.sameDims(B.Sp) && "subtract requires matching dimensions");
  bool Fast = fastPathsOn();

  // Pre-expand each conjunct of B into atom lists: ordinary inequalities
  // (equalities become two) plus divisibility constraints from the
  // normalized existential witnesses.
  std::vector<std::vector<NegAtom>> NegForms;
  for (const Conjunct &CB : B.Conjs) {
    for (Conjunct &Flat : omega::normalizeExists(CB)) {
      if (!Flat.normalize())
        continue; // unsatisfiable: subtracting nothing
      unsigned Base = Flat.numParams() + Flat.numIn() + Flat.numOut();
      std::vector<NegAtom> Atoms;
      for (const Row &R : Flat.rows()) {
        // Detect the divisibility witness, if any.
        int WitCol = -1;
        for (unsigned E = 0; E != Flat.numExists(); ++E)
          if (R.Coef[Flat.existCol(E)] != 0) {
            assert(WitCol < 0 && "two witnesses in one normalized row");
            WitCol = static_cast<int>(Flat.existCol(E));
          }
        if (WitCol >= 0) {
          assert(R.IsEq && "witness in an inequality after normalization");
          NegAtom A2;
          A2.Mod = R.Coef[WitCol] < 0 ? -R.Coef[WitCol] : R.Coef[WitCol];
          A2.R.IsEq = true;
          A2.R.Coef.assign(Base + 1, 0);
          for (unsigned I = 0; I != Base; ++I)
            A2.R.Coef[I] = R.Coef[I];
          A2.R.constant() = R.constant();
          Atoms.push_back(std::move(A2));
          continue;
        }
        Row Visible;
        Visible.IsEq = false;
        Visible.Coef.assign(Base + 1, 0);
        for (unsigned I = 0; I != Base; ++I)
          Visible.Coef[I] = R.Coef[I];
        Visible.constant() = R.constant();
        if (!R.IsEq) {
          Atoms.push_back({std::move(Visible), 0});
          continue;
        }
        Row NegR = Visible;
        for (int64_t &X : NegR.Coef)
          X = -X;
        Atoms.push_back({std::move(Visible), 0});
        Atoms.push_back({std::move(NegR), 0});
      }
      NegForms.push_back(std::move(Atoms));
    }
  }

  // §5 disjunct-combination ordering: process subtrahend conjuncts with the
  // fewest atoms first. Each form multiplies the working list by up to its
  // branch count, so putting the narrow forms first keeps every
  // intermediate list (and the Omega tests run on it) as small as possible;
  // atom-free forms (subtracting the universe) empty the list immediately.
  if (Fast)
    std::stable_sort(NegForms.begin(), NegForms.end(),
                     [](const std::vector<NegAtom> &X,
                        const std::vector<NegAtom> &Y) {
                       return X.size() < Y.size();
                     });

  Relation Res(A.Sp);
  for (const Conjunct &CA : A.Conjs) {
    std::vector<Conjunct> List = {CA};
    for (const std::vector<NegAtom> &Atoms : NegForms) {
      std::vector<Conjunct> Next;
      for (const Conjunct &C : List) {
        // C - conj(atoms) = union over j of (C && a_0..a_{j-1} && !a_j),
        // where !a_j for a divisibility atom branches over residues.
        for (unsigned J = 0, E = Atoms.size(); J != E; ++J) {
          // §5 implied-guard pruning: when C syntactically implies an
          // ordinary atom, C && !atom is unsatisfiable — the Omega test
          // below would reject the branch, so skip building it.
          if (Fast && Atoms[J].Mod == 0 &&
              impliedAtomSyntactically(C, Atoms[J].R)) {
            pset::OpCache::global().noteImpliedAtom();
            continue;
          }
          int64_t NumBranches = Atoms[J].Mod == 0 ? 1 : Atoms[J].Mod - 1;
          for (int64_t Br = 1; Br <= NumBranches; ++Br) {
            Conjunct CJ = C;
            for (unsigned K = 0; K != J; ++K)
              addAtom(CJ, Atoms[K], 0, /*Negated=*/false);
            if (Atoms[J].Mod == 0)
              addAtom(CJ, Atoms[J], 0, /*Negated=*/true);
            else
              addAtom(CJ, Atoms[J], Br, /*Negated=*/false);
            if (!CJ.normalize())
              continue;
            if (!omega::isSatisfiable(CJ))
              continue;
            Next.push_back(std::move(CJ));
          }
        }
      }
      List = std::move(Next);
      if (List.empty())
        break;
    }
    for (Conjunct &C : List)
      Res.Conjs.push_back(std::move(C));
  }
  return Res;
}

Relation Relation::composeWith(const Relation &Next) const {
  return cachedBinaryOp(pset::Op::Compose, *this, Next,
                        [&] { return composeImpl(Next); });
}

Relation Relation::composeImpl(const Relation &Next) const {
  Relation StoreA, StoreB;
  const Relation *PA = this, *PB = &Next;
  if (Sp.params() != Next.Sp.params()) {
    StoreA = *this;
    StoreB = Next;
    alignPair(StoreA, StoreB);
    PA = &StoreA;
    PB = &StoreB;
  }
  const Relation &A = *PA, &B = *PB;
  assert(A.numOut() == B.numIn() && "compose: intermediate dims must match");
  unsigned NP = A.numParams(), NI = A.numIn(), NM = A.numOut(),
           NO = B.numOut();
  Space RS = Space::map(A.Sp.inNames(), B.Sp.outNames(), A.Sp.params());
  Relation R(RS);
  for (const Conjunct &CA : A.Conjs)
    for (const Conjunct &CB : B.Conjs) {
      unsigned EA = CA.numExists(), EB = CB.numExists();
      unsigned NE = EA + EB + NM;     // exist layout: [EA][EB][mid dims]
      unsigned Base = NP + NI + NO;   // result's existential base column
      // Map CA's columns.
      std::vector<int> MapA(CA.numVars());
      for (unsigned P = 0; P != NP; ++P)
        MapA[CA.paramCol(P)] = P;
      for (unsigned I = 0; I != NI; ++I)
        MapA[CA.inCol(I)] = NP + I;
      for (unsigned M = 0; M != NM; ++M)
        MapA[CA.outCol(M)] = Base + EA + EB + M;
      for (unsigned E = 0; E != EA; ++E)
        MapA[CA.existCol(E)] = Base + E;
      Conjunct RA = Conjunct::remap(CA, NP, NI, NO, NE, MapA);
      // Map CB's columns into the same shape.
      std::vector<int> MapB(CB.numVars());
      for (unsigned P = 0; P != NP; ++P)
        MapB[CB.paramCol(P)] = P;
      for (unsigned M = 0; M != NM; ++M)
        MapB[CB.inCol(M)] = Base + EA + EB + M;
      for (unsigned O = 0; O != NO; ++O)
        MapB[CB.outCol(O)] = NP + NI + O;
      for (unsigned E = 0; E != EB; ++E)
        MapB[CB.existCol(E)] = Base + EA + E;
      Conjunct RB = Conjunct::remap(CB, NP, NI, NO, NE, MapB);
      for (Row &Rw : RB.rows())
        RA.rows().push_back(std::move(Rw));
      R.Conjs.push_back(std::move(RA));
    }
  return R;
}

Relation Relation::apply(const Relation &S) const {
  assert(S.isSet() && S.numOut() == numIn() &&
         "apply expects a set over the input space");
  return S.composeWith(*this);
}

Relation Relation::inverse() const {
  Space NS = Space::map(Sp.outNames(), Sp.inNames(), Sp.params());
  Relation R(NS);
  unsigned NP = numParams(), NI = numIn(), NO = numOut();
  for (const Conjunct &C : Conjs) {
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != NP; ++P)
      Map[C.paramCol(P)] = P;
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = NP + NO + I; // old in -> new out
    for (unsigned O = 0; O != NO; ++O)
      Map[C.outCol(O)] = NP + O; // old out -> new in
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NI + NO + E;
    R.Conjs.push_back(Conjunct::remap(C, NP, NO, NI, C.numExists(), Map));
  }
  return R;
}

Relation Relation::domain() const {
  Space NS = Space::set(Sp.inNames(), Sp.params());
  Relation R(NS);
  unsigned NP = numParams(), NI = numIn(), NO = numOut();
  for (const Conjunct &C : Conjs) {
    unsigned NE = C.numExists() + NO;
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != NP; ++P)
      Map[C.paramCol(P)] = P;
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = NP + I; // becomes a set (output) dim
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NI + E;
    for (unsigned O = 0; O != NO; ++O)
      Map[C.outCol(O)] = NP + NI + C.numExists() + O;
    R.Conjs.push_back(Conjunct::remap(C, NP, 0, NI, NE, Map));
  }
  return R;
}

Relation Relation::range() const {
  Space NS = Space::set(Sp.outNames(), Sp.params());
  Relation R(NS);
  unsigned NP = numParams(), NI = numIn(), NO = numOut();
  for (const Conjunct &C : Conjs) {
    unsigned NE = C.numExists() + NI;
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != NP; ++P)
      Map[C.paramCol(P)] = P;
    for (unsigned O = 0; O != NO; ++O)
      Map[C.outCol(O)] = NP + O;
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NO + E;
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = NP + NO + C.numExists() + I;
    R.Conjs.push_back(Conjunct::remap(C, NP, 0, NO, NE, Map));
  }
  return R;
}

Relation Relation::restrictDomain(const Relation &S) const {
  assert(S.isSet() && S.numOut() == numIn() &&
         "restrictDomain expects a set over the input space");
  Relation StoreA, StoreB;
  const Relation *PA = this, *PB = &S;
  if (Sp.params() != S.Sp.params()) {
    StoreA = *this;
    StoreB = S;
    alignPair(StoreA, StoreB);
    PA = &StoreA;
    PB = &StoreB;
  }
  const Relation &A = *PA, &B = *PB;
  unsigned NP = A.numParams(), NI = A.numIn(), NO = A.numOut();
  Relation R(A.Sp);
  for (const Conjunct &CA : A.Conjs)
    for (const Conjunct &CB : B.Conjs) {
      // Embed CB (set over the in dims) into A's shape, then conjoin.
      std::vector<int> Map(CB.numVars());
      for (unsigned P = 0; P != NP; ++P)
        Map[CB.paramCol(P)] = P;
      for (unsigned I = 0; I != NI; ++I)
        Map[CB.outCol(I)] = NP + I; // set dim -> relation in dim
      for (unsigned E = 0; E != CB.numExists(); ++E)
        Map[CB.existCol(E)] = NP + NI + NO + E;
      Conjunct Emb = Conjunct::remap(CB, NP, NI, NO, CB.numExists(), Map);
      Conjunct C = CA;
      C.conjoin(Emb);
      R.Conjs.push_back(std::move(C));
    }
  return R;
}

Relation Relation::restrictRange(const Relation &S) const {
  assert(S.isSet() && S.numOut() == numOut() &&
         "restrictRange expects a set over the output space");
  Relation StoreA, StoreB;
  const Relation *PA = this, *PB = &S;
  if (Sp.params() != S.Sp.params()) {
    StoreA = *this;
    StoreB = S;
    alignPair(StoreA, StoreB);
    PA = &StoreA;
    PB = &StoreB;
  }
  const Relation &A = *PA, &B = *PB;
  unsigned NP = A.numParams(), NI = A.numIn(), NO = A.numOut();
  Relation R(A.Sp);
  for (const Conjunct &CA : A.Conjs)
    for (const Conjunct &CB : B.Conjs) {
      std::vector<int> Map(CB.numVars());
      for (unsigned P = 0; P != NP; ++P)
        Map[CB.paramCol(P)] = P;
      for (unsigned O = 0; O != NO; ++O)
        Map[CB.outCol(O)] = NP + NI + O;
      for (unsigned E = 0; E != CB.numExists(); ++E)
        Map[CB.existCol(E)] = NP + NI + NO + E;
      Conjunct Emb = Conjunct::remap(CB, NP, NI, NO, CB.numExists(), Map);
      Conjunct C = CA;
      C.conjoin(Emb);
      R.Conjs.push_back(std::move(C));
    }
  return R;
}

Relation Relation::projectOutDims(unsigned First, unsigned Count) const {
  assert(First + Count <= numOut() && "projected dims out of range");
  std::vector<std::string> NewOut;
  for (unsigned O = 0; O != numOut(); ++O)
    if (O < First || O >= First + Count)
      NewOut.push_back(Sp.outNames()[O]);
  Space NS = Space::map(Sp.inNames(), NewOut, Sp.params());
  Relation R(NS);
  unsigned NP = numParams(), NI = numIn(), NO = numOut() - Count;
  for (const Conjunct &C : Conjs) {
    unsigned NE = C.numExists() + Count;
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != NP; ++P)
      Map[C.paramCol(P)] = P;
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = NP + I;
    unsigned Kept = 0, Dropped = 0;
    for (unsigned O = 0; O != numOut(); ++O) {
      if (O < First || O >= First + Count)
        Map[C.outCol(O)] = NP + NI + Kept++;
      else
        Map[C.outCol(O)] = NP + NI + NO + C.numExists() + Dropped++;
    }
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NI + NO + E;
    R.Conjs.push_back(Conjunct::remap(C, NP, NI, NO, NE, Map));
  }
  return R;
}

Relation Relation::projectOntoDim(unsigned Dim) const {
  assert(isSet() && Dim < numOut() && "projectOntoDim expects a set");
  Relation R = *this;
  if (Dim + 1 < numOut())
    R = R.projectOutDims(Dim + 1, numOut() - Dim - 1);
  if (Dim > 0)
    R = R.projectOutDims(0, Dim);
  return R;
}

Relation Relation::asSet() const {
  if (isSet())
    return *this;
  std::vector<std::string> Dims = Sp.inNames();
  Dims.insert(Dims.end(), Sp.outNames().begin(), Sp.outNames().end());
  Space NS = Space::set(Dims, Sp.params());
  Relation R(NS);
  unsigned NP = numParams(), NI = numIn(), NO = numOut();
  for (const Conjunct &C : Conjs) {
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != NP; ++P)
      Map[C.paramCol(P)] = P;
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = NP + I;
    for (unsigned O = 0; O != NO; ++O)
      Map[C.outCol(O)] = NP + NI + O;
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NI + NO + E;
    R.Conjs.push_back(Conjunct::remap(C, NP, 0, NI + NO, C.numExists(), Map));
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool Relation::isEmpty() const {
  if (Conjs.empty())
    return true;
  pset::OpCache &C = pset::OpCache::global();
  if (!C.enabled())
    return isEmptyImpl();
  uint64_t F = fingerprint();
  bool V;
  if (C.lookupBool(pset::Op::IsEmpty, F, V))
    return V;
  V = isEmptyImpl();
  C.insertBool(pset::Op::IsEmpty, F, V);
  return V;
}

bool Relation::isEmptyImpl() const {
  for (const Conjunct &C : Conjs)
    if (omega::isSatisfiable(C))
      return false;
  return true;
}

bool Relation::isSubsetOf(const Relation &O) const {
  pset::OpCache &C = pset::OpCache::global();
  if (C.enabled() && fingerprint() == O.fingerprint()) {
    C.noteFastSubset();
    return true;
  }
  return subtract(O).isEmpty();
}

bool Relation::isEqualTo(const Relation &O) const {
  pset::OpCache &C = pset::OpCache::global();
  if (C.enabled() && fingerprint() == O.fingerprint()) {
    C.noteFastSubset();
    return true;
  }
  if (Sp.params() == O.Sp.params())
    return subtract(O).isEmpty() && O.subtract(*this).isEmpty();
  // Align the parameter lists once; subtract() sees identical parameter
  // lists on both calls and skips its own re-alignment.
  Relation A = *this, B = O;
  alignPair(A, B);
  return A.subtract(B).isEmpty() && B.subtract(A).isEmpty();
}

bool Relation::contains(const std::vector<int64_t> &Out,
                        const std::vector<int64_t> &ParamVals,
                        const std::vector<int64_t> &In) const {
  assert(Out.size() == numOut() && ParamVals.size() == numParams() &&
         In.size() == numIn() && "point arity mismatch");
  for (const Conjunct &C : Conjs) {
    if (C.numExists() == 0) {
      // Existential-free conjuncts evaluate directly — no per-probe
      // Conjunct materialization inside the comm loop.
      bool Holds = true;
      for (const Row &R : C.rows()) {
        __int128 V = R.constant();
        for (unsigned P = 0; P != numParams(); ++P)
          V += static_cast<__int128>(R.Coef[C.paramCol(P)]) * ParamVals[P];
        for (unsigned I = 0; I != numIn(); ++I)
          V += static_cast<__int128>(R.Coef[C.inCol(I)]) * In[I];
        for (unsigned O = 0; O != numOut(); ++O)
          V += static_cast<__int128>(R.Coef[C.outCol(O)]) * Out[O];
        if (R.IsEq ? V != 0 : V < 0) {
          Holds = false;
          break;
        }
      }
      if (Holds)
        return true;
      continue;
    }
    if (omega::isSatisfiable(C.bindAllDims(ParamVals, In, Out)))
      return true;
  }
  return false;
}

Relation Relation::simpleHull() const {
  // Work on witness-normalized conjuncts so ordinary constraints carry no
  // existential columns; candidate constraints come from those rows only
  // (divisibility witnesses cannot appear in a single-conjunct hull).
  Relation Flat = normalizeExists().simplify();
  if (Flat.Conjs.empty())
    return Flat;
  if (Flat.Conjs.size() == 1)
    return Flat;
  unsigned Base = numParams() + numIn() + numOut();
  // Candidates are stored existential-free (width Base+1).
  std::vector<Row> Candidates;
  auto PushVisible = [&](const Conjunct &C, const Row &R) {
    for (unsigned E = 0; E != C.numExists(); ++E)
      if (R.Coef[C.existCol(E)] != 0)
        return; // witnessed divisibility: not a hull candidate
    Row V;
    V.IsEq = false;
    V.Coef.assign(Base + 1, 0);
    for (unsigned I = 0; I != Base; ++I)
      V.Coef[I] = R.Coef[I];
    V.constant() = R.constant();
    if (R.IsEq) {
      Row Neg = V;
      for (int64_t &X : Neg.Coef)
        X = -X;
      Candidates.push_back(std::move(Neg));
    }
    Candidates.push_back(std::move(V));
  };
  for (const Conjunct &C : Flat.Conjs)
    for (const Row &R : C.rows())
      PushVisible(C, R);
  Conjunct Hull(numParams(), numIn(), numOut());
  for (const Row &Cand : Candidates) {
    bool ValidForAll = true;
    for (const Conjunct &C : Flat.Conjs) {
      // Pad the candidate to C's width for the implication test.
      Row Padded;
      Padded.IsEq = false;
      Padded.Coef.assign(C.width(), 0);
      for (unsigned I = 0; I != Base; ++I)
        Padded.Coef[I] = Cand.Coef[I];
      Padded.Coef[C.width() - 1] = Cand.constant();
      if (!omega::impliesRow(C, Padded)) {
        ValidForAll = false;
        break;
      }
    }
    if (ValidForAll)
      Hull.rows().push_back(Cand);
  }
  Hull.normalize();
  Relation R(Sp);
  R.Conjs.push_back(std::move(Hull));
  return R;
}

bool Relation::isConvexProven() const {
  return simpleHull().subtract(*this).isEmpty();
}

bool Relation::isSingletonProven() const {
  assert(isSet() && "isSingleton expects a set");
  unsigned K = numOut(), NP = numParams();
  if (Conjs.empty())
    return true;
  // Build { [x, x'] : S(x) && S(x') } and test whether any dimension can
  // differ (one direction suffices by symmetry).
  std::vector<std::string> Dims;
  for (unsigned I = 0; I != K; ++I)
    Dims.push_back("a" + std::to_string(I));
  for (unsigned I = 0; I != K; ++I)
    Dims.push_back("b" + std::to_string(I));
  Relation Cross(Space::set(Dims, Sp.params()));
  for (const Conjunct &C1 : Conjs)
    for (const Conjunct &C2 : Conjs) {
      unsigned E1 = C1.numExists(), E2 = C2.numExists();
      std::vector<int> Map1(C1.numVars());
      for (unsigned P = 0; P != NP; ++P)
        Map1[C1.paramCol(P)] = P;
      for (unsigned O = 0; O != K; ++O)
        Map1[C1.outCol(O)] = NP + O;
      for (unsigned E = 0; E != E1; ++E)
        Map1[C1.existCol(E)] = NP + 2 * K + E;
      Conjunct R1 = Conjunct::remap(C1, NP, 0, 2 * K, E1 + E2, Map1);
      std::vector<int> Map2(C2.numVars());
      for (unsigned P = 0; P != NP; ++P)
        Map2[C2.paramCol(P)] = P;
      for (unsigned O = 0; O != K; ++O)
        Map2[C2.outCol(O)] = NP + K + O;
      for (unsigned E = 0; E != E2; ++E)
        Map2[C2.existCol(E)] = NP + 2 * K + E1 + E;
      Conjunct R2 = Conjunct::remap(C2, NP, 0, 2 * K, E1 + E2, Map2);
      for (Row &Rw : R2.rows())
        R1.rows().push_back(std::move(Rw));
      Cross.Conjs.push_back(std::move(R1));
    }
  for (unsigned D = 0; D != K; ++D) {
    for (const Conjunct &C : Cross.Conjs) {
      Conjunct Test = C;
      Row &R = Test.addZeroRow(/*IsEq=*/false); // a_D - b_D - 1 >= 0
      R.Coef[Test.outCol(D)] = 1;
      R.Coef[Test.outCol(K + D)] = -1;
      R.constant() = -1;
      if (omega::isSatisfiable(Test))
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Structure and parameters
//===----------------------------------------------------------------------===//

Relation Relation::bindParams(const std::map<std::string, int64_t> &Values) const {
  // Keep parameters not being bound.
  std::vector<std::string> Kept;
  for (const std::string &P : Sp.params())
    if (!Values.count(P))
      Kept.push_back(P);
  Space NS = Space::map(Sp.inNames(), Sp.outNames(), Kept);
  Relation R(NS);
  unsigned NP = Kept.size(), NI = numIn(), NO = numOut();
  for (const Conjunct &C : Conjs) {
    Conjunct NC(NP, NI, NO, C.numExists());
    for (const Row &Rw : C.rows()) {
      Row NR;
      NR.IsEq = Rw.IsEq;
      NR.Coef.assign(NC.width(), 0);
      __int128 K = Rw.constant();
      unsigned KeptIdx = 0;
      for (unsigned P = 0; P != numParams(); ++P) {
        auto It = Values.find(Sp.paramName(P));
        if (It != Values.end())
          K += static_cast<__int128>(Rw.Coef[C.paramCol(P)]) * It->second;
        else
          NR.Coef[KeptIdx++] = Rw.Coef[C.paramCol(P)];
      }
      assert(K >= INT64_MIN && K <= INT64_MAX && "overflow binding params");
      for (unsigned I = 0; I != NI; ++I)
        NR.Coef[NP + I] = Rw.Coef[C.inCol(I)];
      for (unsigned O = 0; O != NO; ++O)
        NR.Coef[NP + NI + O] = Rw.Coef[C.outCol(O)];
      for (unsigned E = 0; E != C.numExists(); ++E)
        NR.Coef[NP + NI + NO + E] = Rw.Coef[C.existCol(E)];
      NR.constant() = static_cast<int64_t>(K);
      NC.rows().push_back(std::move(NR));
    }
    R.Conjs.push_back(std::move(NC));
  }
  return R;
}

Relation Relation::bindDomainToParams(const std::vector<std::string> &Names) const {
  assert(Names.size() == numIn() && "one parameter per input dimension");
  std::vector<std::string> NewParams = Sp.params();
  for (const std::string &N : Names) {
    assert(Sp.paramIndex(N) < 0 && "parameter already exists");
    NewParams.push_back(N);
  }
  Space NS = Space::set(Sp.outNames(), NewParams);
  Relation R(NS);
  unsigned OldNP = numParams(), NI = numIn(), NO = numOut();
  unsigned NP = NewParams.size();
  for (const Conjunct &C : Conjs) {
    std::vector<int> Map(C.numVars());
    for (unsigned P = 0; P != OldNP; ++P)
      Map[C.paramCol(P)] = P;
    for (unsigned I = 0; I != NI; ++I)
      Map[C.inCol(I)] = OldNP + I; // in dim -> new parameter
    for (unsigned O = 0; O != NO; ++O)
      Map[C.outCol(O)] = NP + O;
    for (unsigned E = 0; E != C.numExists(); ++E)
      Map[C.existCol(E)] = NP + NO + E;
    R.Conjs.push_back(Conjunct::remap(C, NP, 0, NO, C.numExists(), Map));
  }
  return R;
}

Relation Relation::fixOutDim(unsigned Dim, int64_t V) const {
  assert(Dim < numOut());
  Relation R = *this;
  R.invalidateFP();
  for (Conjunct &C : R.Conjs) {
    Row &Rw = C.addZeroRow(/*IsEq=*/true);
    Rw.Coef[C.outCol(Dim)] = 1;
    Rw.constant() = -V;
  }
  return R;
}

Relation Relation::equateOutDimToParam(unsigned Dim,
                                       const std::string &Name) const {
  Relation R = *this;
  if (Sp.paramIndex(Name) < 0) {
    std::vector<std::string> NewParams = Sp.params();
    NewParams.push_back(Name);
    R = R.alignParams(NewParams);
  }
  unsigned P = R.Sp.paramIndex(Name);
  R.invalidateFP();
  for (Conjunct &C : R.Conjs) {
    Row &Rw = C.addZeroRow(/*IsEq=*/true);
    Rw.Coef[C.outCol(Dim)] = 1;
    Rw.Coef[C.paramCol(P)] = -1;
  }
  return R;
}

Relation Relation::simplify() const {
  return cachedUnaryOp(pset::Op::Simplify, *this,
                       [&] { return simplifyImpl(); });
}

Relation Relation::simplifyImpl() const {
  Relation R(Sp);
  for (Conjunct C : Conjs) {
    if (!C.normalize())
      continue;
    if (!omega::isSatisfiable(C))
      continue;
    omega::removeRedundantRows(C);
    C.normalize();
    // Drop duplicates (rows are sorted by normalize()).
    bool Dup = false;
    for (const Conjunct &Prev : R.Conjs)
      if (Prev.numExists() == C.numExists() && Prev.rows().size() == C.rows().size()) {
        bool Same = true;
        for (unsigned I = 0, E = C.rows().size(); I != E; ++I)
          if (C.rows()[I].IsEq != Prev.rows()[I].IsEq ||
              C.rows()[I].Coef != Prev.rows()[I].Coef) {
            Same = false;
            break;
          }
        if (Same) {
          Dup = true;
          break;
        }
      }
    if (!Dup)
      R.Conjs.push_back(std::move(C));
  }
  return R;
}

Relation Relation::coalesce() const {
  return cachedUnaryOp(pset::Op::Coalesce, *this,
                       [&] { return coalesceImpl(); });
}

Relation Relation::coalesceImpl() const {
  Relation R = simplify();
  // Remove conjuncts subsumed by another conjunct.
  std::vector<bool> Dead(R.Conjs.size(), false);
  for (unsigned I = 0; I != R.Conjs.size(); ++I) {
    if (Dead[I])
      continue;
    for (unsigned J = 0; J != R.Conjs.size(); ++J) {
      if (I == J || Dead[J])
        continue;
      Relation A(R.Sp), B(R.Sp);
      A.Conjs.push_back(R.Conjs[I]);
      B.Conjs.push_back(R.Conjs[J]);
      if (A.isSubsetOf(B)) {
        Dead[I] = true;
        break;
      }
    }
  }
  Relation Out(R.Sp);
  for (unsigned I = 0; I != R.Conjs.size(); ++I)
    if (!Dead[I])
      Out.Conjs.push_back(std::move(R.Conjs[I]));
  return Out;
}

Relation Relation::normalizeExists() const {
  Relation R(Sp);
  for (const Conjunct &C : Conjs)
    for (Conjunct &F : omega::normalizeExists(C))
      R.Conjs.push_back(std::move(F));
  return R;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

void appendTerm(std::ostringstream &OS, bool &First, int64_t C,
                const std::string &Name) {
  if (C == 0)
    return;
  if (First) {
    if (C == -1)
      OS << '-';
    else if (C != 1)
      OS << C << '*';
  } else {
    OS << (C > 0 ? " + " : " - ");
    int64_t A = C > 0 ? C : -C;
    if (A != 1)
      OS << A << '*';
  }
  OS << Name;
  First = false;
}

std::string rowToString(const Row &R, const std::vector<std::string> &Names) {
  // Split into LHS (positive) and RHS (negated negative) for readability.
  std::ostringstream L, Rh;
  bool FL = true, FR = true;
  for (unsigned I = 0, E = Names.size(); I != E; ++I) {
    int64_t C = R.Coef[I];
    if (C > 0)
      appendTerm(L, FL, C, Names[I]);
    else if (C < 0)
      appendTerm(Rh, FR, -C, Names[I]);
  }
  int64_t K = R.constant();
  if (K > 0) {
    if (!FL)
      L << " + ";
    L << K;
    FL = false;
  }
  if (K < 0) {
    if (!FR)
      Rh << " + ";
    Rh << -K;
    FR = false;
  }
  if (FL)
    L << 0;
  if (FR)
    Rh << 0;
  return L.str() + (R.IsEq ? " = " : " >= ") + Rh.str();
}

} // namespace

std::string Relation::toString() const {
  std::ostringstream OS;
  if (numParams()) {
    OS << '[';
    for (unsigned P = 0; P != numParams(); ++P)
      OS << (P ? "," : "") << Sp.paramName(P);
    OS << "] -> ";
  }
  OS << "{ ";
  auto PrintTuple = [&](const std::vector<std::string> &Names) {
    OS << '[';
    for (unsigned I = 0; I != Names.size(); ++I)
      OS << (I ? "," : "") << Names[I];
    OS << ']';
  };
  if (!isSet()) {
    PrintTuple(Sp.inNames());
    OS << " -> ";
  }
  PrintTuple(Sp.outNames());
  if (Conjs.empty()) {
    OS << " : false }";
    return OS.str();
  }
  bool NeedsColon = false;
  for (const Conjunct &C : Conjs)
    if (!C.rows().empty())
      NeedsColon = true;
  if (!NeedsColon) {
    OS << " }";
    return OS.str();
  }
  OS << " : ";
  for (unsigned CI = 0; CI != Conjs.size(); ++CI) {
    const Conjunct &C = Conjs[CI];
    if (CI)
      OS << " or ";
    std::vector<std::string> Names;
    for (const std::string &P : Sp.params())
      Names.push_back(P);
    for (const std::string &N : Sp.inNames())
      Names.push_back(N);
    for (const std::string &N : Sp.outNames())
      Names.push_back(N);
    for (unsigned E = 0; E != C.numExists(); ++E)
      Names.push_back("e" + std::to_string(E));
    if (C.numExists()) {
      OS << "exists(";
      for (unsigned E = 0; E != C.numExists(); ++E)
        OS << (E ? "," : "") << "e" << E;
      OS << " : ";
    }
    if (C.rows().empty())
      OS << "true";
    for (unsigned RI = 0; RI != C.rows().size(); ++RI) {
      if (RI)
        OS << " && ";
      OS << rowToString(C.rows()[RI], Names);
    }
    if (C.numExists())
      OS << ')';
  }
  OS << " }";
  return OS.str();
}
