//===- spmd/Layout.cpp - Rank-independent run setup -----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/Layout.h"

#include "hpf/Maps.h"
#include "support/MathExtras.h"

#include <algorithm>
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

//===----------------------------------------------------------------------===//
// Interval hull of a rank's accesses
//===----------------------------------------------------------------------===//

/// A closed integer interval; Lo > Hi is empty. Unbounded when a bound
/// could not be computed (an overflow, a division by a range that may
/// hold 0): the hull then falls back to the array's full extent.
struct Iv {
  int64_t Lo = 1, Hi = 0;
  bool Unbounded = false;

  static Iv point(int64_t V) { return {V, V, false}; }
  static Iv all() { return {0, 0, true}; }
  bool empty() const { return !Unbounded && Lo > Hi; }
  void join(const Iv &O) {
    if (O.empty() || Unbounded)
      return;
    if (O.Unbounded || empty()) {
      *this = O;
      return;
    }
    Lo = std::min(Lo, O.Lo);
    Hi = std::max(Hi, O.Hi);
  }
};

/// [A, B] from 128-bit bounds; unbounded unless both fit 64 bits.
Iv fromWide(__int128 A, __int128 B) {
  if (A > B)
    std::swap(A, B);
  if (A < INT64_MIN || B > INT64_MAX)
    return Iv::all();
  return {static_cast<int64_t>(A), static_cast<int64_t>(B), false};
}

/// Interval evaluation of a generated expression: a range holding every
/// value \p E takes while each slot S stays inside Env[S].
Iv evalIv(const cg::Expr &E, const std::vector<Iv> &Env) {
  using K = cg::Expr::Kind;
  const std::vector<cg::Expr> &Ops = E.operands();
  auto Sub = [&](size_t I) { return evalIv(Ops[I], Env); };
  switch (E.kind()) {
  case K::Const:
    return Iv::point(E.constVal());
  case K::Var:
    return Env[E.varSlot()];
  case K::Add: {
    __int128 Lo = 0, Hi = 0;
    for (size_t I = 0; I != Ops.size(); ++I) {
      Iv V = Sub(I);
      if (V.Unbounded || V.empty())
        return V;
      Lo += V.Lo;
      Hi += V.Hi;
    }
    return fromWide(Lo, Hi);
  }
  case K::Mul: {
    Iv V = Sub(0);
    if (V.Unbounded || V.empty())
      return V;
    __int128 C = E.constVal();
    return fromWide(C * V.Lo, C * V.Hi);
  }
  case K::MulE: {
    Iv A = Sub(0), B = Sub(1);
    if (A.Unbounded || B.Unbounded || A.empty() || B.empty())
      return A.empty() || B.empty() ? Iv() : Iv::all();
    __int128 P[4] = {__int128(A.Lo) * B.Lo, __int128(A.Lo) * B.Hi,
                     __int128(A.Hi) * B.Lo, __int128(A.Hi) * B.Hi};
    return fromWide(*std::min_element(P, P + 4), *std::max_element(P, P + 4));
  }
  case K::FloorDiv:
  case K::CeilDiv: {
    Iv V = Sub(0);
    if (V.Unbounded || V.empty())
      return V;
    auto Div = E.kind() == K::FloorDiv ? floorDiv : ceilDiv;
    return {Div(V.Lo, E.constVal()), Div(V.Hi, E.constVal()), false};
  }
  case K::Mod: {
    int64_t M = E.constVal();
    Iv V = Sub(0);
    if (V.empty())
      return V;
    if (!V.Unbounded && static_cast<__int128>(V.Hi) - V.Lo < M) {
      int64_t A = floorMod(V.Lo, M), B = floorMod(V.Hi, M);
      if (A <= B)
        return {A, B, false};
    }
    return {0, M - 1, false};
  }
  case K::FloorDivE: {
    Iv N = Sub(0), D = Sub(1);
    if (N.empty() || D.empty())
      return Iv();
    if (N.Unbounded || D.Unbounded || D.Lo <= 0)
      return Iv::all();
    // floor(n / d) over d > 0 is monotone in each argument: the corners
    // bound it.
    int64_t C[4] = {floorDiv(N.Lo, D.Lo), floorDiv(N.Lo, D.Hi),
                    floorDiv(N.Hi, D.Lo), floorDiv(N.Hi, D.Hi)};
    return {*std::min_element(C, C + 4), *std::max_element(C, C + 4), false};
  }
  case K::ModE: {
    Iv D = Sub(1);
    if (D.empty())
      return D;
    if (D.Unbounded || D.Lo <= 0)
      return Iv::all();
    return {0, D.Hi - 1, false};
  }
  case K::Min:
  case K::Max: {
    bool IsMin = E.kind() == K::Min;
    Iv R;
    for (size_t I = 0; I != Ops.size(); ++I) {
      Iv V = Sub(I);
      if (V.Unbounded || V.empty())
        return V;
      if (I == 0) {
        R = V;
        continue;
      }
      R.Lo = IsMin ? std::min(R.Lo, V.Lo) : std::max(R.Lo, V.Lo);
      R.Hi = IsMin ? std::min(R.Hi, V.Hi) : std::max(R.Hi, V.Hi);
    }
    return R;
  }
  }
  return Iv::all();
}

/// Walks every loop nest of the program for one rank, joining the hull of
/// every subscript into Hull[array][dimension].
class HullWalk {
public:
  HullWalk(const SpmdProgram &Prog, const std::map<std::string, size_t> &Ids,
           std::vector<Iv> Env, std::vector<std::vector<Iv>> &Hull)
      : Prog(Prog), Ids(Ids), Env(std::move(Env)), Hull(Hull) {}

  void node(const SpmdNode &N) {
    switch (N.K) {
    case SpmdNode::Kind::TimeLoop: {
      Iv Saved = Env[N.SeqSlot];
      if (!bind(N.SeqSlot, evalIv(N.SeqLo, Env), evalIv(N.SeqHi, Env)))
        return;
      for (const auto &C : N.Children)
        node(*C);
      Env[N.SeqSlot] = Saved;
      return;
    }
    case SpmdNode::Kind::Compute:
      if (N.Loops)
        ast(*N.Loops, [&](int Leaf) {
          const CompiledStmt &S = Prog.Stmts[Leaf];
          note(S.WriteArray, S.WriteSubs);
          for (const CompiledStmt::Read &R : S.Reads)
            note(R.Array, R.Subs);
        });
      break;
    case SpmdNode::Kind::Send:
    case SpmdNode::Kind::Recv: {
      const CommEvent &Ev = Prog.Events[N.EventId];
      const cg::AstPtr &Loops =
          N.K == SpmdNode::Kind::Send ? Ev.SendLoops : Ev.RecvLoops;
      if (Loops)
        ast(*Loops, [&](int) {
          std::vector<Iv> &H = Hull[Ids.at(Ev.Array)];
          for (size_t D = 0; D != Ev.ElemSlots.size(); ++D)
            H[D].join(Env[Ev.ElemSlots[D]]);
        });
      break;
    }
    case SpmdNode::Kind::Seq:
    case SpmdNode::Kind::Reduce:
      break;
    }
    for (const auto &C : N.Children)
      node(*C);
  }

private:
  const SpmdProgram &Prog;
  const std::map<std::string, size_t> &Ids;
  std::vector<Iv> Env;
  std::vector<std::vector<Iv>> &Hull;

  /// Binds \p Slot to the hull of a loop from \p Lo to \p Hi; false when
  /// the loop never runs.
  bool bind(unsigned Slot, const Iv &Lo, const Iv &Hi) {
    if (Lo.empty() || Hi.empty())
      return false;
    if (Lo.Unbounded || Hi.Unbounded) {
      Env[Slot] = Iv::all();
      return true;
    }
    if (Lo.Lo > Hi.Hi)
      return false;
    Env[Slot] = {Lo.Lo, Hi.Hi, false};
    return true;
  }

  template <typename LeafFn> void ast(const cg::AstNode &N, LeafFn &&Leaf) {
    switch (N.K) {
    case cg::AstNode::Kind::Loop: {
      Iv Saved = Env[N.VarSlot];
      if (!bind(N.VarSlot, evalIv(N.LB, Env), evalIv(N.UB, Env)))
        return;
      for (const cg::AstPtr &C : N.Children)
        ast(*C, Leaf);
      Env[N.VarSlot] = Saved;
      return;
    }
    case cg::AstNode::Kind::Leaf:
      Leaf(N.LeafId);
      return;
    case cg::AstNode::Kind::Block:
    case cg::AstNode::Kind::If: // guards only narrow: ignoring them is safe
      for (const cg::AstPtr &C : N.Children)
        ast(*C, Leaf);
      return;
    }
  }

  void note(const std::string &Array, const std::vector<cg::Expr> &Subs) {
    std::vector<Iv> &H = Hull[Ids.at(Array)];
    for (size_t D = 0; D != Subs.size(); ++D)
      H[D].join(evalIv(Subs[D], Env));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Ownership by formula
//===----------------------------------------------------------------------===//

int64_t ArrayLayout::Term::coordAt(int64_t T) const {
  switch (Kind) {
  case DistSpec::Kind::Block:
    return floorDiv(T - TLo, Block);
  case DistSpec::Kind::Cyclic:
    return floorMod(T - TLo, Procs);
  case DistSpec::Kind::CyclicK:
    return floorMod(floorDiv(T - TLo, Block), Procs);
  case DistSpec::Kind::Star:
    break;
  }
  return 0;
}

int64_t ArrayLayout::elements() const {
  int64_t N = 1;
  for (int64_t E : Extent)
    N *= E; // admitted by resolveArrays
  return N;
}

bool ArrayLayout::blockDim(unsigned D) const {
  bool Any = false;
  for (const Term &T : Terms)
    if (T.ArrayDim == static_cast<int>(D)) {
      if (T.Kind != DistSpec::Kind::Block)
        return false;
      Any = true;
    }
  return Any;
}

unsigned ArrayLayout::ownerOf(const std::vector<int64_t> &Idx,
                              const std::vector<int64_t> &Shape) const {
  assert(!Replicated && "a replicated array has no single owner");
  int64_t Rank = 0;
  for (const Term &T : Terms) {
    int64_t C = T.ArrayDim < 0
                    ? T.Coord
                    : T.coordAt(T.Stride * Idx[T.ArrayDim] + T.Offset);
    int64_t Mult = 1;
    for (unsigned D = 0; D != T.PDim; ++D)
      Mult *= Shape[D];
    Rank += C * Mult;
  }
  return static_cast<unsigned>(Rank);
}

bool ArrayLayout::blockRange(unsigned D, const std::vector<int64_t> &Coords,
                             int64_t &First, int64_t &Last) const {
  First = Lo[D];
  Last = Lo[D] + Extent[D] - 1;
  for (const Term &T : Terms) {
    int64_t C = Coords[T.PDim];
    if (T.ArrayDim < 0 && T.Coord != C)
      return false;
    if (T.ArrayDim != static_cast<int>(D) || T.Kind != DistSpec::Kind::Block)
      continue;
    // TLo + C * Block <= Stride * i + Offset <= TLo + C * Block + Block - 1
    int64_t P0 = T.TLo + C * T.Block - T.Offset, P1 = P0 + T.Block - 1;
    First = std::max(First, T.Stride > 0 ? ceilDiv(P0, T.Stride)
                                         : ceilDiv(P1, T.Stride));
    Last = std::min(Last, T.Stride > 0 ? floorDiv(P1, T.Stride)
                                       : floorDiv(P0, T.Stride));
  }
  return First <= Last;
}

std::vector<std::vector<int64_t>>
ArrayLayout::owned(const std::vector<int64_t> &Coords) const {
  const size_t R = Lo.size();
  std::vector<std::vector<int64_t>> Lists(R);
  for (size_t D = 0; D != R; ++D) {
    int64_t First = 0, Last = -1;
    if (!blockRange(static_cast<unsigned>(D), Coords, First, Last))
      return std::vector<std::vector<int64_t>>(R);
    for (int64_t I = First; I <= Last; ++I) {
      bool Mine = true;
      for (const Term &T : Terms)
        if (T.ArrayDim == static_cast<int>(D) &&
            T.Kind != DistSpec::Kind::Block &&
            T.coordAt(T.Stride * I + T.Offset) != Coords[T.PDim])
          Mine = false;
      if (Mine)
        Lists[D].push_back(I);
    }
    if (Lists[D].empty())
      return std::vector<std::vector<int64_t>>(R);
  }
  return Lists;
}

int64_t StorageLayout::boxElements(size_t A) const {
  int64_t N = 1;
  for (int64_t E : BoxExtent[A])
    N *= E; // admitted by resolveStorage
  return N;
}

std::vector<ArrayLayout> spmd::resolveArrays(const SpmdProgram &Prog,
                                             const ProgramLayout &L) {
  const Program &P = *Prog.Source;
  std::vector<ArrayLayout> Out;
  for (const auto &[Name, Decl] : P.arrays()) {
    ArrayLayout &A = Out.emplace_back();
    A.Name = Name;
    A.ElemBytes = Decl.ElemBytes;
    A.Desc = "array '" + Name + "'";
    evalDims(Decl.Dims, L.AllBindings, A.Desc, A.Lo, A.Extent);
    int64_t N = 1;
    for (int64_t E : A.Extent) {
      if (E < 0)
        throw FootprintError(A.Desc + " has a negative extent");
      if (__builtin_mul_overflow(N, E, &N))
        throw FootprintError(A.Desc +
                             " has more elements than 64 bits can count");
    }
    const Align *Al = P.alignOf(Name);
    A.Replicated = !Al;
    if (!Al)
      continue;
    std::string TWhat = "template '" + Al->TemplateName + "'";
    std::vector<int64_t> TLo, TExt;
    evalDims(P.templateDecl(Al->TemplateName).Dims, L.AllBindings, TWhat, TLo,
             TExt);
    for (int64_t E : TExt)
      if (E < 1)
        throw FootprintError(TWhat + ", which array '" + Name +
                             "' aligns to, holds no cell");
    const Distribute &D = P.distributeOf(Al->TemplateName);
    const ProcArray &PA = P.procArray(D.ProcName);
    unsigned PDim = 0;
    for (unsigned TD = 0; TD != TExt.size(); ++TD) {
      const DistSpec &Spec = D.Specs[TD];
      if (Spec.K == DistSpec::Kind::Star)
        continue;
      const AlignTerm &AT = Al->Terms[TD];
      if (AT.K == AlignTerm::Kind::Replicated)
        throw FootprintError(A.Desc + " is replicated along distributed "
                                      "template dimension " +
                             std::to_string(TD + 1) +
                             ", which runs do not support");
      ArrayLayout::Term T;
      T.PDim = PDim;
      T.Kind = Spec.K;
      T.TLo = TLo[TD];
      const ProcArray::Dim &PD = PA.Dims[PDim];
      T.Procs = PD.isSymbolic() ? L.AllBindings.at(PD.Symbol) : PD.Fixed;
      T.Block = Spec.K == DistSpec::Kind::Block ? ceilDiv(TExt[TD], T.Procs)
                                                : Spec.BlockK;
      if (AT.K == AlignTerm::Kind::Constant) {
        T.Coord = T.coordAt(AT.Constant);
      } else {
        T.ArrayDim = static_cast<int>(AT.ArrayDim);
        T.Stride = AT.Stride;
        T.Offset = AT.Offset;
      }
      A.Terms.push_back(T);
      ++PDim;
    }
  }
  return Out;
}

std::vector<int64_t> spmd::columnStrides(const std::vector<int64_t> &Extent) {
  std::vector<int64_t> St;
  int64_t M = 1;
  for (int64_t E : Extent) {
    St.push_back(M);
    M *= E;
  }
  return St;
}

std::vector<int64_t> spmd::rankCoords(const ProgramLayout &L, unsigned P) {
  std::vector<int64_t> C(L.ProcShape.size());
  for (size_t D = 0; D != C.size(); ++D) {
    C[D] = P % L.ProcShape[D];
    P /= static_cast<unsigned>(L.ProcShape[D]);
  }
  return C;
}

std::vector<int64_t> spmd::rankEnv(const SpmdProgram &Prog,
                                   const ProgramLayout &L, unsigned P) {
  // Every processor starts from the parameters by name, then binds its
  // representative-processor slots (mv*) and physical coordinates (mc*).
  std::vector<int64_t> Env(Prog.Vars.size(), 0);
  for (unsigned S = 0; S != Prog.Vars.size(); ++S) {
    auto It = L.AllBindings.find(Prog.Vars.name(S));
    if (It != L.AllBindings.end())
      Env[S] = It->second;
  }
  std::vector<int64_t> Coords = rankCoords(L, P);
  for (unsigned D = 0; D != Prog.MySlots.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    int64_t V = Coords[D];
    if (Info.Virtualized) {
      switch (Info.Kind) {
      case DistSpec::Kind::Block:
        V = L.AllBindings.at(Info.BlockParam) * Coords[D] + Info.TmplLo;
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

StorageLayout spmd::resolveStorage(const SpmdProgram &Prog,
                                   const ProgramLayout &L) {
  StorageLayout S;
  S.Arrays = resolveArrays(Prog, L);
  const size_t NA = S.Arrays.size();
  std::map<std::string, size_t> Ids;
  for (size_t A = 0; A != NA; ++A)
    Ids[S.Arrays[A].Name] = A;
  S.BoxExtent.resize(NA);
  for (size_t A = 0; A != NA; ++A)
    S.BoxExtent[A].assign(S.Arrays[A].Lo.size(), 0);
  S.BoxLo.resize(L.NumProcs);
  for (unsigned P = 0; P != L.NumProcs; ++P) {
    std::vector<std::vector<Iv>> Hull(NA);
    for (size_t A = 0; A != NA; ++A)
      Hull[A].resize(S.Arrays[A].Lo.size());
    std::vector<Iv> Env;
    for (int64_t V : rankEnv(Prog, L, P))
      Env.push_back(Iv::point(V));
    if (Prog.Root)
      HullWalk(Prog, Ids, std::move(Env), Hull).node(*Prog.Root);
    std::vector<int64_t> Coords = rankCoords(L, P);
    S.BoxLo[P].resize(NA);
    for (size_t A = 0; A != NA; ++A) {
      const ArrayLayout &AL = S.Arrays[A];
      std::vector<int64_t> &BLo = S.BoxLo[P][A];
      for (size_t D = 0; D != AL.Lo.size(); ++D) {
        Iv Box = Hull[A][D];
        int64_t First = 0, Last = -1;
        if (AL.blockDim(D) && !Box.Unbounded) {
          if (AL.blockRange(static_cast<unsigned>(D), Coords, First, Last))
            Box.join({First, Last, false});
        } else {
          Box = {AL.Lo[D], AL.Lo[D] + AL.Extent[D] - 1, false};
        }
        int64_t Ext = 0;
        if (!Box.empty() &&
            (__builtin_sub_overflow(Box.Hi, Box.Lo, &Ext) ||
             __builtin_add_overflow(Ext, 1, &Ext)))
          throw FootprintError(AL.Desc + ": a storage box overflows 64 bits");
        BLo.push_back(Box.empty() ? AL.Lo[D] : Box.Lo);
        S.BoxExtent[A][D] = std::max(S.BoxExtent[A][D], Ext);
      }
    }
  }
  for (size_t A = 0; A != NA; ++A) {
    int64_t N = 1;
    for (int64_t E : S.BoxExtent[A])
      if (__builtin_mul_overflow(N, E, &N))
        throw FootprintError(S.Arrays[A].Desc +
                             ": a storage box has more elements than 64 bits "
                             "can count");
  }
  return S;
}

void spmd::admitFootprint(const StorageLayout &S, Footprint F) {
  static const uint64_t Phys = physicalMemoryBytes();
  const uint64_t NP = S.BoxLo.size();
  // A box costs a value and a validity byte per element, a whole array
  // (merged, or the tree's) a value.
  const uint64_t Boxes = F == Footprint::AllRanks  ? NP
                         : F == Footprint::OneRank ? 1
                                                   : 0;
  uint64_t Total = 0;
  for (size_t A = 0; A != S.Arrays.size(); ++A) {
    const ArrayLayout &AL = S.Arrays[A];
    const uint64_t Wholes = F == Footprint::AllRanks  ? 1
                            : F == Footprint::OneRank ? 0
                            : AL.Replicated           ? NP
                                                      : 1;
    uint64_t BoxBytes = 0, WholeBytes = 0;
    bool Over = __builtin_mul_overflow(uint64_t(S.boxElements(A)),
                                       9 * Boxes, &BoxBytes) ||
                __builtin_mul_overflow(uint64_t(AL.elements()), 8 * Wholes,
                                       &WholeBytes) ||
                __builtin_add_overflow(Total, BoxBytes, &Total) ||
                __builtin_add_overflow(Total, WholeBytes, &Total);
    if (Over || (Phys && Total > Phys))
      throw FootprintError(AL.Desc + " takes the program's arrays past the " +
                           std::to_string(Phys) +
                           " bytes of physical memory");
  }
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
    // A kernel's DhpfCtx::Me is an int32, so the count must fit one.
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
