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

/// "(e0, e1, ...)".
std::string shapeText(const std::vector<int64_t> &Shape) {
  std::string Text;
  for (int64_t E : Shape)
    Text += (Text.empty() ? "" : ", ") + std::to_string(E);
  return "(" + Text + ")";
}

struct ArrayShape {
  std::vector<int64_t> Lo, Extent;
  /// An aligned array's template bounds, per template dimension.
  std::vector<int64_t> TLo, TExt;
};

/// Evaluates \p Dims under \p Bind into lower bounds and extents, with
/// overflow checks that stay in every build. \p What names the object in
/// any FootprintError and gains its evaluated bounds, "(lo:hi, ...)".
void evalDims(const std::vector<DimRange> &Dims,
              const std::map<std::string, int64_t> &Bind, std::string &What,
              std::vector<int64_t> &Lo, std::vector<int64_t> &Extent) {
  std::string Text;
  for (const DimRange &R : Dims) {
    int64_t L = evalBound(R.Lo, Bind, What);
    int64_t H = evalBound(R.Hi, Bind, What), E = 0;
    if (__builtin_sub_overflow(H, L, &E) || __builtin_add_overflow(E, 1, &E))
      throw FootprintError(What + ": an extent overflows 64 bits");
    Text += (Text.empty() ? "" : ", ") + std::to_string(L) + ":" +
            std::to_string(H);
    Lo.push_back(L);
    Extent.push_back(E);
  }
  What += "(" + Text + ")";
}

/// Every array's bounds, admitted before anything is allocated: element
/// counts and bytes (a double per element, plus an int32 owner for
/// aligned arrays) are computed with overflow checks that stay in every
/// build, and their total must fit in physical memory. The template of
/// every aligned array must hold a cell in each dimension, since
/// ownership divides by its extents.
std::map<std::string, ArrayShape> admitShapes(const SpmdProgram &Prog,
                                              const ProgramLayout &L) {
  static const uint64_t Phys = physicalMemoryBytes();
  const Program &P = *Prog.Source;
  std::map<std::string, ArrayShape> Shapes;
  uint64_t Total = 0;
  for (const auto &[Name, Decl] : P.arrays()) {
    ArrayShape &S = Shapes[Name];
    std::string What = "array '" + Name + "'";
    evalDims(Decl.Dims, L.AllBindings, What, S.Lo, S.Extent);
    int64_t N = 1;
    for (int64_t E : S.Extent) {
      if (E < 0)
        throw FootprintError(What + " has a negative extent");
      if (__builtin_mul_overflow(N, E, &N))
        throw FootprintError(What +
                             " has more elements than 64 bits can count");
    }
    const Align *Al = P.alignOf(Name);
    if (Al) {
      std::string TWhat = "template '" + Al->TemplateName + "'";
      evalDims(P.templateDecl(Al->TemplateName).Dims, L.AllBindings, TWhat,
               S.TLo, S.TExt);
      for (int64_t E : S.TExt)
        if (E < 1)
          throw FootprintError(TWhat + ", which array '" + Name +
                               "' aligns to, holds no cell");
    }
    uint64_t Bytes = 0;
    if (__builtin_mul_overflow(uint64_t(N), Al ? 12u : 8u, &Bytes) ||
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
    bool Given = It != Config.ProcExtents.end();
    // A symbolic extent takes the run's value; a fixed one admits only
    // itself.
    bool Fits = !Given || It->second.size() == PA.rank();
    std::string Declared;
    for (unsigned D = 0; D != PA.rank(); ++D) {
      const ProcArray::Dim &PD = PA.Dims[D];
      Declared += (D ? ", " : "") + (PD.isSymbolic()
                                         ? "*" + PD.Symbol
                                         : std::to_string(PD.Fixed));
      Fits = Fits && (Given ? PD.isSymbolic() || It->second[D] == PD.Fixed
                            : !PD.isSymbolic());
      L.ProcShape.push_back(PD.Fixed);
    }
    std::string What = "processor array '" + PA.Name + "'";
    if (!Fits)
      throw FootprintError(What + " is declared (" + Declared + "); the run " +
                           (Given ? "asked for " + shapeText(It->second)
                                  : std::string("gave no extents")));
    if (Given)
      L.ProcShape = It->second;
    // Owner maps store int32 ranks and a kernel's DhpfCtx::Me is an
    // int32, so the count must fit one.
    int64_t N = 1;
    for (int64_t E : L.ProcShape)
      if (E < 1 || __builtin_mul_overflow(N, E, &N) || N > INT32_MAX)
        throw FootprintError(What + shapeText(L.ProcShape) +
                             " needs extents >= 1 and at most " +
                             std::to_string(INT32_MAX) + " processors");
    L.NumProcs = static_cast<unsigned>(N);
  }
  L.AllBindings = MapBuilder(*Prog.Source)
                      .layoutBindings(Config.Params, Config.ProcExtents);
  return L;
}

std::map<std::string, ArrayStore>
spmd::buildArrayStores(const SpmdProgram &Prog, const RunConfig &Config,
                       const ProgramLayout &L) {
  const Program &P = *Prog.Source;
  std::map<std::string, ArrayShape> Shapes = admitShapes(Prog, L);
  std::map<std::string, ArrayStore> Arrays;

  for (const auto &[Name, Decl] : P.arrays()) {
    const ArrayShape &S = Shapes[Name];
    const std::vector<int64_t> &Lo = S.Lo;
    const std::vector<int64_t> &Extent = S.Extent;
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
      const std::vector<int64_t> &TLo = S.TLo, &TExt = S.TExt;
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
