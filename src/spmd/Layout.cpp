//===- spmd/Layout.cpp - Rank-independent run setup -----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/Layout.h"

#include "hpf/Maps.h"
#include "support/MathExtras.h"

#include <unistd.h>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::hpf;

namespace {

/// Evaluates \p E under \p Bind with overflow checks that stay in every
/// build; \p What names the bound in the FootprintError thrown on
/// overflow.
int64_t evalBound(const AffineExpr &E,
                  const std::map<std::string, int64_t> &Bind,
                  const std::string &What) {
  int64_t V = E.K;
  for (auto &[Name, Coef] : E.Terms) {
    auto It = Bind.find(Name);
    assert(It != Bind.end() && "unbound parameter in affine expression");
    int64_t T = 0;
    if (__builtin_mul_overflow(Coef, It->second, &T) ||
        __builtin_add_overflow(V, T, &V))
      throw FootprintError(What + ": a bound overflows 64 bits");
  }
  return V;
}

uint64_t physicalMemoryBytes() {
  long Pages = ::sysconf(_SC_PHYS_PAGES), Page = ::sysconf(_SC_PAGESIZE);
  return Pages > 0 && Page > 0 ? uint64_t(Pages) * uint64_t(Page) : 0;
}

struct ArrayShape {
  std::vector<int64_t> Lo, Extent;
};

/// Every array's bounds, admitted before anything is allocated: element
/// counts and bytes (a double per element, plus an int32 owner for
/// aligned arrays) are computed with overflow checks that stay in every
/// build, and their total must fit in physical memory.
std::map<std::string, ArrayShape> admitShapes(const SpmdProgram &Prog,
                                              const ProgramLayout &L) {
  static const uint64_t Phys = physicalMemoryBytes();
  const Program &P = *Prog.Source;
  std::map<std::string, ArrayShape> Shapes;
  uint64_t Total = 0;
  for (const auto &[Name, Decl] : P.arrays()) {
    ArrayShape &S = Shapes[Name];
    std::string What = "array '" + Name + "'";
    std::string Dims;
    for (const DimRange &R : Decl.Dims) {
      int64_t Lo = evalBound(R.Lo, L.AllBindings, What);
      int64_t Hi = evalBound(R.Hi, L.AllBindings, What), E = 0;
      if (__builtin_sub_overflow(Hi, Lo, &E) ||
          __builtin_add_overflow(E, 1, &E))
        throw FootprintError(What + ": an extent overflows 64 bits");
      Dims += (Dims.empty() ? "" : ", ") + std::to_string(Lo) + ":" +
              std::to_string(Hi);
      S.Lo.push_back(Lo);
      S.Extent.push_back(E);
    }
    What += "(" + Dims + ")";
    int64_t N = 1;
    for (int64_t E : S.Extent) {
      if (E < 0)
        throw FootprintError(What + " has a negative extent");
      if (__builtin_mul_overflow(N, E, &N))
        throw FootprintError(What +
                             " has more elements than 64 bits can count");
    }
    uint64_t Bytes = 0;
    if (__builtin_mul_overflow(uint64_t(N), P.alignOf(Name) ? 12u : 8u,
                               &Bytes) ||
        __builtin_add_overflow(Total, Bytes, &Total) ||
        (Phys && Total > Phys))
      throw FootprintError(What + " takes the program's arrays past the " +
                           std::to_string(Phys) +
                           " bytes of physical memory");
  }
  return Shapes;
}

} // namespace

void spmd::admitFootprint(const SpmdProgram &Prog, const ProgramLayout &L) {
  admitShapes(Prog, L);
}

ProgramLayout spmd::resolveLayout(const SpmdProgram &Prog,
                                  const RunConfig &Config) {
  assert(Prog.Source && "compiled program lost its source");
  ProgramLayout L;
  if (!Prog.ProcName.empty()) {
    const ProcArray &PA = Prog.Source->procArray(Prog.ProcName);
    auto It = Config.ProcExtents.find(Prog.ProcName);
    for (unsigned D = 0; D != PA.rank(); ++D) {
      if (PA.Dims[D].isSymbolic()) {
        assert(It != Config.ProcExtents.end() &&
               "symbolic processor array needs extents at run time");
        L.ProcShape.push_back(It->second[D]);
      } else {
        L.ProcShape.push_back(PA.Dims[D].Fixed);
        if (It != Config.ProcExtents.end())
          assert(It->second[D] == PA.Dims[D].Fixed &&
                 "fixed extent overridden inconsistently");
      }
    }
  }
  L.NumProcs = 1;
  for (int64_t E : L.ProcShape)
    L.NumProcs *= E;
  L.AllBindings = MapBuilder(*Prog.Source)
                      .layoutBindings(Config.Params, Config.ProcExtents);
  return L;
}

std::map<std::string, ArrayStore>
spmd::buildArrayStores(const SpmdProgram &Prog, const RunConfig &Config,
                       const ProgramLayout &L) {
  const Program &P = *Prog.Source;
  const std::map<std::string, int64_t> &All = L.AllBindings;
  std::map<std::string, ArrayShape> Shapes = admitShapes(Prog, L);
  std::map<std::string, ArrayStore> Arrays;

  for (const auto &[Name, Decl] : P.arrays()) {
    const std::vector<int64_t> &Lo = Shapes[Name].Lo;
    const std::vector<int64_t> &Extent = Shapes[Name].Extent;
    ArrayStore Store(Lo, Extent, Decl.ElemBytes);

    // Ownership, computed independently of the set framework (direct
    // block/cyclic formulas) so it cross-checks the compiled sets.
    const Align *Al = P.alignOf(Name);
    if (Al && Store.size() != 0) {
      const TemplateDecl &T = P.templateDecl(Al->TemplateName);
      const Distribute &D = P.distributeOf(Al->TemplateName);
      auto ExtIt = Config.ProcExtents.find(D.ProcName);
      const ProcArray &PA = P.procArray(D.ProcName);
      std::vector<int64_t> PExt;
      for (unsigned I = 0; I != PA.rank(); ++I)
        PExt.push_back(PA.Dims[I].isSymbolic() ? ExtIt->second[I]
                                               : PA.Dims[I].Fixed);
      // Template bounds per dimension, evaluated once.
      std::vector<int64_t> TLo, TExt;
      for (const DimRange &R : T.Dims) {
        std::string What = "template '" + Al->TemplateName + "'";
        TLo.push_back(evalBound(R.Lo, All, What));
        TExt.push_back(evalBound(R.Hi, All, What) - TLo.back() + 1);
      }
      Store.Owner.assign(Store.size(), -1);
      std::vector<int64_t> Idx(Decl.rank());
      for (unsigned DD = 0; DD != Decl.rank(); ++DD)
        Idx[DD] = Lo[DD];
      for (;;) {
        // Owner coordinates along each distributed template dimension.
        int64_t Rank = 0, Mult = 1;
        unsigned PDim = 0;
        for (unsigned TD = 0; TD != T.rank(); ++TD) {
          const DistSpec &Spec = D.Specs[TD];
          if (Spec.K == DistSpec::Kind::Star)
            continue;
          const AlignTerm &AT = Al->Terms[TD];
          assert(AT.K != AlignTerm::Kind::Replicated &&
                 "replicated alignment on a distributed dimension");
          int64_t Tpos = AT.K == AlignTerm::Kind::Constant
                             ? AT.Constant
                             : AT.Stride * Idx[AT.ArrayDim] + AT.Offset;
          int64_t PN = PExt[PDim];
          int64_t Coord = 0;
          switch (Spec.K) {
          case DistSpec::Kind::Block:
            Coord = (Tpos - TLo[TD]) / ceilDiv(TExt[TD], PN);
            break;
          case DistSpec::Kind::Cyclic:
            Coord = floorMod(Tpos - TLo[TD], PN);
            break;
          case DistSpec::Kind::CyclicK:
            Coord = floorMod((Tpos - TLo[TD]) / Spec.BlockK, PN);
            break;
          case DistSpec::Kind::Star:
            break;
          }
          Rank += Coord * Mult;
          Mult *= PN;
          ++PDim;
        }
        Store.Owner[Store.flatten(Idx)] = static_cast<int32_t>(Rank);
        unsigned DD = 0;
        while (DD < Decl.rank() && ++Idx[DD] >= Lo[DD] + Extent[DD]) {
          Idx[DD] = Lo[DD];
          ++DD;
        }
        if (DD == Decl.rank())
          break;
      }
    }
    Arrays.emplace(Name, std::move(Store));
  }
  return Arrays;
}

std::vector<int64_t> spmd::initialEnv(const SpmdProgram &Prog,
                                      const ProgramLayout &L, unsigned P) {
  const std::map<std::string, int64_t> &All = L.AllBindings;
  std::vector<int64_t> Env(Prog.Vars.size(), 0);
  // Parameters by name.
  for (unsigned S = 0; S != Prog.Vars.size(); ++S) {
    auto It = All.find(Prog.Vars.name(S));
    if (It != All.end())
      Env[S] = It->second;
  }
  // Representative-processor slots (mv*).
  std::vector<int64_t> Coords(L.ProcShape.size());
  unsigned R = P;
  for (unsigned D = 0; D != L.ProcShape.size(); ++D) {
    Coords[D] = R % L.ProcShape[D];
    R /= L.ProcShape[D];
  }
  for (unsigned D = 0; D != Prog.MySlots.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    int64_t V = Coords[D];
    if (Info.Virtualized) {
      switch (Info.Kind) {
      case DistSpec::Kind::Block:
        V = All.at(Info.BlockParam) * Coords[D] + Info.TmplLo;
        break;
      case DistSpec::Kind::Cyclic:
        V = Info.TmplLo + Coords[D]; // initial VP; VP loops re-bind
        break;
      case DistSpec::Kind::CyclicK:
        V = Info.TmplLo + Info.CyclicK * Coords[D];
        break;
      case DistSpec::Kind::Star:
        break;
      }
    }
    Env[Prog.MySlots[D]] = V;
  }
  for (unsigned D = 0; D != Prog.CoordSlots.size(); ++D)
    Env[Prog.CoordSlots[D]] = Coords[D];
  return Env;
}

unsigned spmd::linearRank(const std::vector<int64_t> &ProcShape,
                          const std::vector<int64_t> &Coords) {
  int64_t R = 0, M = 1;
  for (unsigned D = 0; D != Coords.size(); ++D) {
    assert(Coords[D] >= 0 && Coords[D] < ProcShape[D]);
    R += Coords[D] * M;
    M *= ProcShape[D];
  }
  return static_cast<unsigned>(R);
}

unsigned spmd::vpPartnerRank(const SpmdProgram &Prog,
                             const std::vector<int64_t> &ProcShape,
                             const std::map<std::string, int64_t> &AllBindings,
                             const std::vector<int64_t> &Partner) {
  std::vector<int64_t> Coords(Partner.size());
  for (unsigned D = 0; D != Partner.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    if (!Info.Virtualized) {
      Coords[D] = Partner[D];
      continue;
    }
    switch (Info.Kind) {
    case DistSpec::Kind::Block: {
      int64_t B = AllBindings.at(Info.BlockParam);
      Coords[D] = (Partner[D] - Info.TmplLo) / B;
      break;
    }
    case DistSpec::Kind::Cyclic:
      Coords[D] = floorMod(Partner[D] - Info.TmplLo, ProcShape[D]);
      break;
    case DistSpec::Kind::CyclicK:
      Coords[D] =
          floorMod((Partner[D] - Info.TmplLo) / Info.CyclicK, ProcShape[D]);
      break;
    case DistSpec::Kind::Star:
      break;
    }
  }
  return linearRank(ProcShape, Coords);
}

bool spmd::vpIsReal(const SpmdProgram &Prog,
                    const std::vector<int64_t> &ProcShape,
                    const std::map<std::string, int64_t> &AllBindings,
                    const std::vector<int64_t> &Partner) {
  for (unsigned D = 0; D != Partner.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    if (!Info.Virtualized)
      continue;
    int64_t Off = Partner[D] - Info.TmplLo;
    switch (Info.Kind) {
    case DistSpec::Kind::Block: {
      int64_t B = AllBindings.at(Info.BlockParam);
      if (floorMod(Off, B) != 0 || Off / B >= ProcShape[D])
        return false; // fictitious: not a block start, or past the array
      break;
    }
    case DistSpec::Kind::Cyclic:
      break; // every template cell is a real VP
    case DistSpec::Kind::CyclicK:
      if (floorMod(Off, Info.CyclicK) != 0)
        return false; // not a block start
      break;
    case DistSpec::Kind::Star:
      break;
    }
  }
  return true;
}

std::vector<char> spmd::resolveEventInPlace(const SpmdProgram &Prog,
                                            const ProgramLayout &L,
                                            unsigned &Upgrades) {
  std::vector<char> Flags(Prog.Events.size(), 0);
  for (unsigned EI = 0; EI != Prog.Events.size(); ++EI) {
    const CommEvent &Ev = Prog.Events[EI];
    bool InPlace = Ev.InPlaceProven;
    // The synthesized Section 3.3 runtime check: an undecided compile-time
    // verdict may become contiguous under this run's concrete bindings.
    // Every engine consults the same flags, so pack costs agree.
    if (!InPlace && Prog.InPlaceRuntimeCheck &&
        Ev.InPlace.Verdict == core::InPlaceVerdict::RuntimeCheck &&
        Prog.InPlaceRuntimeCheck(Ev.InPlace, L.AllBindings)) {
      InPlace = true;
      ++Upgrades;
    }
    Flags[EI] = InPlace ? 1 : 0;
  }
  return Flags;
}
