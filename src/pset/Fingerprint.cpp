//===- pset/Fingerprint.cpp - Structural hashing -------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "pset/Fingerprint.h"

#include "pset/Relation.h"

#include <algorithm>
#include <vector>

using namespace dhpf;
using namespace dhpf::pset;

namespace {

/// splitmix64: a fast, well-distributed 64-bit mixer.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

inline uint64_t combine(uint64_t Seed, uint64_t V) {
  return mix64(Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                       (Seed >> 2)));
}

uint64_t hashString(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL; // FNV-1a
  for (char C : S)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return H;
}

/// Hash of one row after GCD normalization (on a scratch copy; the caller's
/// row is untouched). Mirrors Conjunct::normalize: equalities divide
/// through only when the gcd divides the constant and flip so the first
/// nonzero coefficient is positive; inequalities divide and floor the
/// constant.
uint64_t hashRow(const Row &R, unsigned NumVars) {
  int64_t G = 0;
  for (unsigned I = 0; I != NumVars; ++I)
    G = gcd64(G, R.Coef[I]);
  CoefVec C = R.Coef;
  if (G > 1) {
    if (R.IsEq) {
      if (C.back() % G == 0)
        for (int64_t &X : C)
          X /= G;
    } else {
      for (unsigned I = 0; I != NumVars; ++I)
        C[I] /= G;
      C.back() = floorDiv(C.back(), G);
    }
  }
  if (R.IsEq)
    for (unsigned I = 0; I != NumVars; ++I) {
      if (C[I] == 0)
        continue;
      if (C[I] < 0)
        for (int64_t &X : C)
          X = -X;
      break;
    }
  uint64_t H = R.IsEq ? 0x51ed270b90a6c2f3ULL : 0x2545f4914f6cdd1dULL;
  for (int64_t X : C)
    H = combine(H, static_cast<uint64_t>(X));
  return H;
}

} // namespace

uint64_t pset::fingerprint(const Conjunct &C) {
  uint64_t H = combine(combine(C.numParams(), C.numIn()),
                       combine(C.numOut(), C.numExists()));
  // Row order must not matter: hash rows individually, sort the hashes.
  std::vector<uint64_t> RowHashes;
  RowHashes.reserve(C.rows().size());
  for (const Row &R : C.rows())
    RowHashes.push_back(hashRow(R, C.numVars()));
  std::sort(RowHashes.begin(), RowHashes.end());
  for (uint64_t RH : RowHashes)
    H = combine(H, RH);
  return H;
}

uint64_t pset::fingerprint(const Relation &R) {
  const Space &S = R.space();
  uint64_t H = 0x6a09e667f3bcc908ULL;
  for (const std::string &P : S.params())
    H = combine(H, hashString(P));
  H = combine(H, 0x3c6ef372fe94f82bULL);
  for (const std::string &N : S.inNames())
    H = combine(H, hashString(N));
  H = combine(H, 0xa54ff53a5f1d36f1ULL);
  for (const std::string &N : S.outNames())
    H = combine(H, hashString(N));
  H = combine(H, R.conjuncts().size());
  for (const Conjunct &C : R.conjuncts())
    H = combine(H, fingerprint(C));
  return H;
}
