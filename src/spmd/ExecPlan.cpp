//===- spmd/ExecPlan.cpp - Lowered SPMD execution plan --------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/ExecPlan.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "spmd/KernelABI.h"
#include "spmd/KernelCache.h"
#include "spmd/NativeGen.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::hpf;

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

namespace {

/// Collects every loop-variable slot of a generated AST.
void collectLoopSlots(const cg::AstNode &N, std::set<unsigned> &Out) {
  if (N.K == cg::AstNode::Kind::Loop)
    Out.insert(N.VarSlot);
  for (const cg::AstPtr &C : N.Children)
    collectLoopSlots(*C, Out);
}

/// Collects the TimeLoop sequence slots and loop slots of the whole
/// program (the slots rebound between event executions).
void collectRebound(const SpmdNode &N, std::set<unsigned> &Time,
                    std::set<unsigned> &Loops) {
  if (N.K == SpmdNode::Kind::TimeLoop)
    Time.insert(N.SeqSlot);
  if (N.K == SpmdNode::Kind::Compute && N.Loops)
    collectLoopSlots(*N.Loops, Loops);
  for (const auto &C : N.Children)
    collectRebound(*C, Time, Loops);
}

void addUsedSlots(const bc::Prog &P, std::set<unsigned> &Out) {
  for (const bc::Insn &In : P.code())
    if (In.O == bc::Op::PushVar || In.O == bc::Op::PushVarK)
      Out.insert(In.A);
}

void addUsedSlots(const PlanAst &A, std::set<unsigned> &Out) {
  for (const bc::Prog &P : A.Exprs)
    addUsedSlots(P, Out);
  for (const PlanGuard &G : A.Guards)
    for (const auto &Conj : G.AnyOf)
      for (const PlanAtom &At : Conj)
        addUsedSlots(At.E, Out);
}

bool atomHolds(int64_t V, cg::GuardAtom::Kind K, int64_t Mod) {
  switch (K) {
  case cg::GuardAtom::Kind::NonNeg:
    return V >= 0;
  case cg::GuardAtom::Kind::Zero:
    return V == 0;
  case cg::GuardAtom::Kind::ModZero:
    return floorMod(V, Mod) == 0;
  }
  return false;
}

} // namespace

namespace {

/// Lowers one SpmdProgram into an ExecPlan. Stateless beyond the output.
class PlanLowering {
public:
  PlanLowering(const SpmdProgram &Prog, const StorageLayout &Storage,
               const std::map<std::string, int64_t> &AllBindings,
               const std::vector<int64_t> &ProcShape, ExecPlan &Out)
      : Prog(Prog), Storage(Storage), AllBindings(AllBindings),
        ProcShape(ProcShape), Plan(Out) {}

  void run();

private:
  const SpmdProgram &Prog;
  const StorageLayout &Storage;
  const std::map<std::string, int64_t> &AllBindings;
  const std::vector<int64_t> &ProcShape;
  ExecPlan &Plan;
  std::map<std::string, uint32_t> ArrayIds;
  int32_t NextComputeId = 0;

  void noteDepth(const bc::Prog &P);
  /// The unbased box flat of array \p A (see StmtPlan), compiled.
  bc::Prog boxFlat(const std::vector<cg::Expr> &Subs, uint32_t A,
                   const bc::SlotConsts &Fixed);
  void lowerInto(PlanAst &Out, const cg::AstNode &N,
                 const bc::SlotConsts &Fixed);
  PlanNode lowerNode(const SpmdNode &N, const bc::SlotConsts &Fixed);
};

void PlanLowering::noteDepth(const bc::Prog &P) {
  if (P.depth() > Plan.StackDepth)
    Plan.StackDepth = P.depth();
}

bc::Prog PlanLowering::boxFlat(const std::vector<cg::Expr> &Subs, uint32_t A,
                               const bc::SlotConsts &Fixed) {
  const std::vector<int64_t> &Extent = Storage.BoxExtent[A];
  assert(Subs.size() == Extent.size() && "subscript arity mismatch");
  cg::Expr E = cg::Expr::constant(0);
  int64_t Stride = 1;
  for (unsigned D = 0; D != Extent.size(); ++D) {
    E = cg::Expr::add(E, cg::Expr::mul(Subs[D], Stride));
    Stride = mulOv(Stride, Extent[D]);
  }
  bc::Prog P = bc::compileExpr(E, Fixed);
  noteDepth(P);
  return P;
}

void PlanLowering::lowerInto(PlanAst &Out, const cg::AstNode &N,
                             const bc::SlotConsts &Fixed) {
  switch (N.K) {
  case cg::AstNode::Kind::Block:
    for (const cg::AstPtr &C : N.Children)
      lowerInto(Out, *C, Fixed);
    return;
  case cg::AstNode::Kind::Loop: {
    bc::Prog LB = bc::compileExpr(N.LB, Fixed);
    bc::Prog UB = bc::compileExpr(N.UB, Fixed);
    if (LB.isConst() && UB.isConst() && LB.constVal() > UB.constVal())
      return; // statically empty
    bc::Prog Step = bc::compileExpr(N.Step, Fixed);
    noteDepth(LB);
    noteDepth(UB);
    noteDepth(Step);
    PlanAst::Node Nd;
    Nd.K = PlanAst::Node::Kind::Loop;
    Nd.VarSlot = N.VarSlot;
    Nd.LB = static_cast<int32_t>(Out.Exprs.size());
    Out.Exprs.push_back(std::move(LB));
    Nd.UB = static_cast<int32_t>(Out.Exprs.size());
    Out.Exprs.push_back(std::move(UB));
    if (Step.isConst() && Step.constVal() == 1) {
      Nd.Step = -1;
    } else {
      Nd.Step = static_cast<int32_t>(Out.Exprs.size());
      Out.Exprs.push_back(std::move(Step));
    }
    size_t Me = Out.Nodes.size();
    Out.Nodes.push_back(Nd);
    for (const cg::AstPtr &C : N.Children)
      lowerInto(Out, *C, Fixed);
    if (Out.Nodes.size() == Me + 1) {
      Out.Nodes.pop_back(); // body folded away entirely
      return;
    }
    Out.Nodes[Me].SubtreeEnd = static_cast<uint32_t>(Out.Nodes.size());
    return;
  }
  case cg::AstNode::Kind::If: {
    std::vector<PlanGuard> Kept;
    for (const cg::Guard &G : N.AllOf) {
      if (G.isTrue())
        continue;
      PlanGuard PG;
      bool GuardTrue = false;
      for (const std::vector<cg::GuardAtom> &Conj : G.AnyOf) {
        std::vector<PlanAtom> PC;
        bool ConjFalse = false;
        for (const cg::GuardAtom &At : Conj) {
          bc::Prog E = bc::compileExpr(At.E, Fixed);
          if (E.isConst()) {
            if (!atomHolds(E.constVal(), At.K, At.Mod)) {
              ConjFalse = true;
              break;
            }
            continue; // statically true atom
          }
          noteDepth(E);
          PC.push_back({std::move(E), At.K, At.Mod});
        }
        if (ConjFalse)
          continue;
        if (PC.empty()) { // a statically true conjunct: guard is true
          GuardTrue = true;
          break;
        }
        PG.AnyOf.push_back(std::move(PC));
      }
      if (GuardTrue)
        continue;
      if (PG.AnyOf.empty())
        return; // every conjunct false: the branch is dead
      Kept.push_back(std::move(PG));
    }
    if (Kept.empty()) { // all guards statically true: splice children
      for (const cg::AstPtr &C : N.Children)
        lowerInto(Out, *C, Fixed);
      return;
    }
    PlanAst::Node Nd;
    Nd.K = PlanAst::Node::Kind::If;
    Nd.GuardBegin = static_cast<uint32_t>(Out.Guards.size());
    for (PlanGuard &PG : Kept)
      Out.Guards.push_back(std::move(PG));
    Nd.GuardEnd = static_cast<uint32_t>(Out.Guards.size());
    size_t Me = Out.Nodes.size();
    Out.Nodes.push_back(Nd);
    for (const cg::AstPtr &C : N.Children)
      lowerInto(Out, *C, Fixed);
    if (Out.Nodes.size() == Me + 1) {
      Out.Nodes.pop_back();
      return;
    }
    Out.Nodes[Me].SubtreeEnd = static_cast<uint32_t>(Out.Nodes.size());
    return;
  }
  case cg::AstNode::Kind::Leaf: {
    PlanAst::Node Nd;
    Nd.K = PlanAst::Node::Kind::Leaf;
    Nd.LeafId = N.LeafId;
    Nd.SubtreeEnd = static_cast<uint32_t>(Out.Nodes.size() + 1);
    Out.Nodes.push_back(Nd);
    return;
  }
  }
}

PlanNode PlanLowering::lowerNode(const SpmdNode &N,
                                 const bc::SlotConsts &Fixed) {
  PlanNode P;
  P.K = N.K;
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    break;
  case SpmdNode::Kind::TimeLoop:
    P.SeqSlot = N.SeqSlot;
    P.SeqLo = bc::compileExpr(N.SeqLo, Fixed);
    P.SeqHi = bc::compileExpr(N.SeqHi, Fixed);
    noteDepth(P.SeqLo);
    noteDepth(P.SeqHi);
    break;
  case SpmdNode::Kind::Compute: {
    P.NativeComputeId = NextComputeId++;
    P.SpanName = "compute:" + N.NestName;
    if (!N.Loops)
      break;
    lowerInto(P.Loops, *N.Loops, Fixed);
    break;
  }
  case SpmdNode::Kind::Send:
  case SpmdNode::Kind::Recv:
    P.EventId = N.EventId;
    break;
  case SpmdNode::Kind::Reduce:
    P.RedOp = N.RedOp;
    P.RedName = N.RedName;
    P.RedSlot = accumSlot(Plan.Accums, N.RedName);
    P.RedBytes = N.RedBytes;
    P.RedCost = N.RedCost;
    break;
  }
  for (const auto &C : N.Children)
    P.Children.push_back(lowerNode(*C, Fixed));
  return P;
}

void PlanLowering::run() {
  // Dense array ids in name order (deterministic).
  for (const ArrayLayout &A : Storage.Arrays) {
    ArrayIds[A.Name] = static_cast<uint32_t>(Plan.ArrayNames.size());
    Plan.ArrayNames.push_back(A.Name);
  }

  // Slots whose values are fixed for the whole run: named in AllBindings
  // and never rebound by a loop, a TimeLoop, or the per-processor mv*/mc*
  // assignment.
  std::set<unsigned> TimeSlots, LoopSlots;
  if (Prog.Root)
    collectRebound(*Prog.Root, TimeSlots, LoopSlots);
  for (const CommEvent &Ev : Prog.Events) {
    if (Ev.SendLoops)
      collectLoopSlots(*Ev.SendLoops, LoopSlots);
    if (Ev.RecvLoops)
      collectLoopSlots(*Ev.RecvLoops, LoopSlots);
  }
  std::set<unsigned> Rebound = TimeSlots;
  Rebound.insert(LoopSlots.begin(), LoopSlots.end());
  Rebound.insert(Prog.MySlots.begin(), Prog.MySlots.end());
  Rebound.insert(Prog.CoordSlots.begin(), Prog.CoordSlots.end());
  bc::SlotConsts Fixed;
  for (unsigned S = 0; S != Prog.Vars.size(); ++S) {
    if (Rebound.count(S))
      continue;
    auto It = AllBindings.find(Prog.Vars.name(S));
    if (It != AllBindings.end())
      Fixed[S] = It->second;
  }

  Plan.Accums = Prog.accumulators();
  for (const CompiledStmt &S : Prog.Stmts) {
    StmtPlan SP;
    SP.WriteArray = ArrayIds.at(S.WriteArray);
    SP.WriteFlat = boxFlat(S.WriteSubs, SP.WriteArray, Fixed);
    for (const CompiledStmt::Read &Rd : S.Reads) {
      StmtPlan::Read R;
      R.Array = ArrayIds.at(Rd.Array);
      R.Flat = boxFlat(Rd.Subs, R.Array, Fixed);
      SP.Reads.push_back(std::move(R));
    }
    SP.Body = bc::compileValue(S.Body);
    Plan.ValueDepth = std::max(Plan.ValueDepth, SP.Body.depth());
    if (S.Acc) {
      SP.AccSlot = static_cast<int32_t>(accumSlot(Plan.Accums, S.Acc->Name));
      SP.AccOp = S.Acc->O;
      SP.AccOperand = bc::compileValue(S.Acc->Operand);
      Plan.ValueDepth = std::max(Plan.ValueDepth, SP.AccOperand.depth());
    }
    SP.Cost = S.Cost;
    Plan.Stmts.push_back(std::move(SP));
  }

  for (const CommEvent &Ev : Prog.Events) {
    EventPlan EP;
    EP.Id = Ev.Id;
    EP.Array = ArrayIds.at(Ev.Array);
    const ArrayLayout &AL = Storage.Arrays[EP.Array];
    EP.PartnerSlots = Ev.PartnerSlots;
    EP.ElemSlots = Ev.ElemSlots;
    EP.ElemBytes = AL.ElemBytes;
    EP.Elems = AL.elements();
    EP.InPlace = Ev.InPlaceProven;
    if (Ev.SendLoops)
      lowerInto(EP.Send, *Ev.SendLoops, Fixed);
    if (Ev.RecvLoops)
      lowerInto(EP.Recv, *Ev.RecvLoops, Fixed);
    std::vector<cg::Expr> ElemSubs;
    for (unsigned S : Ev.ElemSlots)
      ElemSubs.push_back(cg::Expr::var(S, Prog.Vars.name(S)));
    EP.ElemBox = boxFlat(ElemSubs, EP.Array, Fixed);

    // Cacheable iff no free slot of either nest is a TimeLoop variable:
    // then the enumerated lists are identical every execution.
    std::set<unsigned> Used;
    addUsedSlots(EP.Send, Used);
    addUsedSlots(EP.Recv, Used);
    addUsedSlots(EP.ElemBox, Used);
    Used.insert(EP.PartnerSlots.begin(), EP.PartnerSlots.end());
    Used.insert(EP.ElemSlots.begin(), EP.ElemSlots.end());
    std::set<unsigned> Bound;
    for (const PlanAst *A : {&EP.Send, &EP.Recv})
      for (const PlanAst::Node &Nd : A->Nodes)
        if (Nd.K == PlanAst::Node::Kind::Loop)
          Bound.insert(Nd.VarSlot);
    EP.Cacheable = true;
    for (unsigned S : Used)
      if (!Bound.count(S) && TimeSlots.count(S))
        EP.Cacheable = false;
    Plan.Events.push_back(std::move(EP));
  }

  for (unsigned D = 0; D != Prog.ProcDims.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    DimPlan DP;
    DP.Kind = Info.Kind;
    DP.Virtualized = Info.Virtualized;
    DP.TmplLo = Info.TmplLo;
    DP.CyclicK = Info.CyclicK;
    DP.Extent = ProcShape[D];
    if (Info.Virtualized && Info.Kind == DistSpec::Kind::Block)
      DP.Block = Info.BlockParam.empty() ? Info.BlockFixed
                                         : AllBindings.at(Info.BlockParam);
    Plan.Dims.push_back(DP);
  }

  if (Prog.Root)
    Plan.Root = lowerNode(*Prog.Root, Fixed);
}

} // namespace

ExecPlan spmd::buildExecPlan(const SpmdProgram &Prog, const StorageLayout &S,
                             const std::map<std::string, int64_t> &AllBindings,
                             const std::vector<int64_t> &ProcShape) {
  ExecPlan Plan;
  PlanLowering(Prog, S, AllBindings, ProcShape, Plan).run();
  return Plan;
}

/// Compute pumps Comm::progress() every this many statement instances: the
/// Figure 4 window in which posted sends drain while the rank computes.
static constexpr uint64_t ProgressEvery = 256;

static_assert(int(ValidOwn) == int(DhpfValidOwn),
              "kernels test the host's owned bit");

PlanExecutor::PlanExecutor(const SpmdProgram &ProgIn, Interpreter &IIn,
                           Comm &CIn, unsigned Threads, EngineKind Engine)
    : Prog(ProgIn), I(IIn), Com(CIn), NP(IIn.NumProcs), Lo(CIn.First),
      Hi(CIn.First + CIn.Local),
      Plan(buildExecPlan(Prog, *I.Storage, I.AllBindings, I.ProcShape)),
      Storage(*I.Storage) {
  size_t MaxReads = 1;
  for (const StmtPlan &SP : Plan.Stmts)
    MaxReads = std::max(MaxReads, SP.Reads.size());
  PerProc.resize(NP);
  for (unsigned P = 0; P != NP; ++P) {
    Scratch &S = PerProc[P];
    S.Regs.assign(I.Env[P].begin(), I.Env[P].end());
    S.Stack.assign(Plan.StackDepth + 1, 0);
    S.Reads.assign(MaxReads, 0.0);
    S.Values.assign(Plan.ValueDepth, 0.0);
    S.Acc.assign(Plan.Accums.size(), 0.0);
    S.PartnerPos.assign(NP, -1);
  }
  SendCache.assign(Plan.Events.size(), std::vector<SideCache>(NP));
  RecvCache.assign(Plan.Events.size(), std::vector<SideCache>(NP));
  if (Threads > 1 && Hi - Lo > 1)
    Pool = std::make_unique<ThreadPool>(Threads - 1);
  setupStores();
  if (Engine == EngineKind::Native)
    setupNative();
}

PlanExecutor::~PlanExecutor() = default;

//===----------------------------------------------------------------------===//
// Rank-local storage
//===----------------------------------------------------------------------===//

std::vector<std::vector<int64_t>> PlanExecutor::ownedLists(unsigned P,
                                                          uint32_t A) const {
  return Storage.Arrays[A].owned(rankCoords({I.ProcShape, NP, {}}, P));
}

template <typename Fn>
void PlanExecutor::forOwned(unsigned P, uint32_t A,
                            const std::vector<std::vector<int64_t>> &Own,
                            Fn &&F) const {
  const ArrayLayout &AL = Storage.Arrays[A];
  const std::vector<int64_t> &BLo = Storage.BoxLo[P][A];
  forEachRun(Own, [&](const std::vector<int64_t> &Idx, int64_t Len) {
    int64_t B = 0, G = 0;
    for (size_t D = 0; D != Idx.size(); ++D) {
      B += (Idx[D] - BLo[D]) * BoxStride[A][D];
      G += (Idx[D] - AL.Lo[D]) * GlobalStride[A][D];
    }
    F(Idx, B, G, Len);
  });
}

void PlanExecutor::setupStores() {
  const size_t NA = Storage.Arrays.size();
  for (size_t A = 0; A != NA; ++A) {
    BoxStride.push_back(columnStrides(Storage.BoxExtent[A]));
    GlobalStride.push_back(columnStrides(Storage.Arrays[A].Extent));
  }
  Stores.resize(Hi - Lo);
  forProcs([&](unsigned P) {
    Stores[P - Lo].resize(NA);
    for (size_t A = 0; A != NA; ++A) {
      const ArrayLayout &AL = Storage.Arrays[A];
      const std::vector<int64_t> &BLo = Storage.BoxLo[P][A];
      RankStore &R = Stores[P - Lo][A];
      R.Box = ArrayStore(BLo, Storage.BoxExtent[A], AL.ElemBytes);
      R.Base = 0;
      for (size_t D = 0; D != BLo.size(); ++D)
        R.Base += BLo[D] * BoxStride[A][D];
      R.Valid.assign(R.Box.size(), 0);
      forOwned(P, static_cast<uint32_t>(A),
               ownedLists(P, static_cast<uint32_t>(A)),
               [&](const std::vector<int64_t> &, int64_t B, int64_t,
                   int64_t Len) {
                 std::fill_n(R.Valid.begin() + B, Len, ValidOwn);
               });
    }
  });
}

void PlanExecutor::seed(
    uint32_t A,
    const std::function<double(const std::vector<int64_t> &)> &Init) {
  // Like a compute nest: each rank writes only its own box (its own full
  // copy of a replicated array).
  forProcs([&](unsigned P) {
    RankStore &R = store(P, A);
    std::vector<int64_t> At;
    forOwned(P, A, ownedLists(P, A),
             [&](const std::vector<int64_t> &Idx, int64_t B, int64_t,
                 int64_t Len) {
               At = Idx;
               for (int64_t K = 0; K != Len; ++K, ++At[0])
                 R.Box.at(B + K) = Init(At);
             });
  });
}

void PlanExecutor::seedInits() {
  std::vector<uint32_t> Ids;
  std::vector<bc::SeedProg> Seeds;
  std::vector<bc::ValueProg> Wholes;
  for (uint32_t A = 0; A != Storage.Arrays.size(); ++A) {
    const hpf::ValueExpr *Init = nullptr;
    if (Prog.Source) {
      auto It = Prog.Source->arrays().find(Storage.Arrays[A].Name);
      if (It != Prog.Source->arrays().end() && It->second.Init)
        Init = &*It->second.Init;
    }
    if (!Init)
      continue;
    Ids.push_back(A);
    Seeds.push_back(bc::compileSeed(*Init));
    Wholes.push_back(bc::compileValue(*Init));
  }
  forProcs([&](unsigned P) {
    for (size_t K = 0; K != Ids.size(); ++K)
      seedInit(P, Ids[K], Seeds[K], Wholes[K]);
  });
}

void PlanExecutor::seedInit(unsigned P, uint32_t A, const bc::SeedProg &S,
                            const bc::ValueProg &Whole) {
  std::vector<std::vector<int64_t>> Own = ownedLists(P, A);
  for (const std::vector<int64_t> &Dim : Own)
    if (Dim.empty())
      return;
  double *Box = store(P, A).Box.data();
  const std::vector<int64_t> &BLo = Storage.BoxLo[P][A];
  const std::vector<int64_t> &BExt = Storage.BoxExtent[A];
  // Nothing repeats along the one dimension of a vector: evaluate each
  // element straight into its run, with no table.
  if (Own.size() == 1) {
    LineVector<double> Stack(Whole.depth());
    forOwned(P, A, Own,
             [&](const std::vector<int64_t> &Idx, int64_t B, int64_t,
                 int64_t Len) {
               for (int64_t J = 0; J != Len; ++J) {
                 int64_t X = Idx[0] + J;
                 Box[B + J] = Whole.eval(nullptr, 0, &X, Stack.data());
               }
             });
    return;
  }
  // This rank's scratch, on lines of its own: one table per term, as long
  // as the box along the term's dimension (one entry for a term that reads
  // no index), a stack for evaluating terms, and evalRun's buffer for the
  // longest run.
  size_t Words = 0, TermDepth = 1;
  std::vector<size_t> TabAt;
  for (const bc::SeedProg::Term &T : S.Terms) {
    TabAt.push_back(Words);
    Words += T.Dim < 0 ? 1 : static_cast<size_t>(BExt[T.Dim]);
    TermDepth = std::max<size_t>(TermDepth, T.Prog.depth());
  }
  size_t StackAt = Words;
  Words += TermDepth;
  size_t BufAt = Words;
  Words += S.Residual.depth() * static_cast<size_t>(BExt[0] + 1);
  LineVector<double> Scr(Words);
  LineVector<bc::RunVal> Reads(S.Terms.size());
  LineVector<int64_t> At(Own.size(), 0);
  for (size_t K = 0; K != S.Terms.size(); ++K) {
    const bc::SeedProg::Term &T = S.Terms[K];
    double *Tab = Scr.data() + TabAt[K];
    if (T.Dim < 0) {
      Tab[0] = T.Prog.eval(nullptr, 0, At.data(), Scr.data() + StackAt);
      continue;
    }
    for (int64_t X : Own[T.Dim]) {
      At[T.Dim] = X;
      Tab[X - BLo[T.Dim]] =
          T.Prog.eval(nullptr, 0, At.data(), Scr.data() + StackAt);
    }
  }
  forOwned(P, A, Own,
           [&](const std::vector<int64_t> &Idx, int64_t B, int64_t,
               int64_t Len) {
             for (size_t K = 0; K != S.Terms.size(); ++K) {
               int D = S.Terms[K].Dim;
               const double *Tab = Scr.data() + TabAt[K];
               Reads[K] = D < 0 ? bc::RunVal{Tab, false}
                          : D == 0
                              ? bc::RunVal{Tab + (Idx[0] - BLo[0]), true}
                              : bc::RunVal{Tab + (Idx[D] - BLo[D]), false};
             }
             S.Residual.evalRun(Reads.data(), Idx.data(), Len, Box + B,
                                Scr.data() + BufAt);
           });
}

ArrayStore PlanExecutor::assemble(uint32_t A) const {
  const ArrayLayout &AL = Storage.Arrays[A];
  ArrayStore Out(AL.Lo, AL.Extent, AL.ElemBytes);
  for (unsigned P = Lo; P != Hi; ++P) {
    if (AL.Replicated && P != Lo)
      continue;
    const ArrayStore &Box = store(P, A).Box;
    forOwned(P, A, ownedLists(P, A),
             [&](const std::vector<int64_t> &, int64_t B, int64_t G,
                 int64_t Len) {
               std::memcpy(Out.data() + G, Box.values().data() + B,
                           Len * sizeof(double));
             });
  }
  return Out;
}

void PlanExecutor::reportOwned(
    unsigned R,
    const std::function<void(const std::string &, uint64_t)> &Array,
    const std::function<void(const double *, int64_t)> &Run) const {
  for (uint32_t A = 0; A != Storage.Arrays.size(); ++A) {
    const ArrayLayout &AL = Storage.Arrays[A];
    if (AL.Replicated && R != 0) {
      Array(AL.Name, 0);
      continue;
    }
    std::vector<std::vector<int64_t>> Own = ownedLists(R, A);
    uint64_t Count = 1;
    for (const std::vector<int64_t> &Dim : Own)
      Count *= Dim.size();
    Array(AL.Name, Count);
    const double *Box = store(R, A).Box.values().data();
    forOwned(R, A, Own,
             [&](const std::vector<int64_t> &, int64_t B, int64_t,
                 int64_t Len) { Run(Box + B, Len); });
  }
}

int64_t PlanExecutor::globalFlat(unsigned P, uint32_t A, int64_t F) const {
  const ArrayLayout &AL = Storage.Arrays[A];
  const std::vector<int64_t> &BLo = Storage.BoxLo[P][A];
  const std::vector<int64_t> &BExt = Storage.BoxExtent[A];
  int64_t G = 0;
  for (size_t D = 0; D != BLo.size(); ++D) {
    int64_t Off = floorDiv(F, BoxStride[A][D]);
    if (D + 1 != BLo.size())
      Off = floorMod(Off, BExt[D]);
    G += (BLo[D] + Off - AL.Lo[D]) * GlobalStride[A][D];
  }
  return G;
}

//===----------------------------------------------------------------------===//
// Native engine state
//===----------------------------------------------------------------------===//

/// The per-executor native state: the loaded kernel table and stable array
/// tables. Each rank's DhpfCtx lives in its Scratch record; kernels call
/// back into the executor through the static trampolines below, which find
/// it in DhpfCtx::Host and the rank in DhpfCtx::Me.
struct PlanExecutor::NativeState {
  const native::Kernel *Kern = nullptr;
  const DhpfKernelTable *T = nullptr;

  /// Per local rank, the array tables its DhpfCtx points at (pointers into
  /// its stores; box shapes are fixed before the executor is constructed).
  struct Tables {
    std::vector<double *> Data;
    std::vector<uint8_t *> Valid;
    std::vector<int64_t> Base, Size;
  };
  std::vector<Tables> Ranks;
  /// Per-leaf Cost * SecPerWork: the kernel adds this one precomputed
  /// product per statement instance, exactly sim::Machine::addCompute's
  /// arithmetic, so simulated clocks stay bit-identical.
  std::vector<double> LeafCostSec;

  static PlanExecutor &host(DhpfCtx *C) {
    return *static_cast<PlanExecutor *>(C->Host);
  }
  static unsigned rank(DhpfCtx *C) { return static_cast<unsigned>(C->Me); }

  static double readSlow(DhpfCtx *C, int32_t A, int64_t F) {
    PlanExecutor &PE = host(C);
    return PE.readFast(rank(C), static_cast<uint32_t>(A), F,
                       PE.PerProc[rank(C)]);
  }
  static void writeSlow(DhpfCtx *C, int32_t A, int64_t F, double V) {
    host(C).writeFast(rank(C), static_cast<uint32_t>(A), F, V);
  }
  static void progress(DhpfCtx *C) { host(C).Com.progress(); }
  static void growPairs(DhpfCtx *C) {
    Scratch &S = host(C).PerProc[rank(C)];
    size_t Cap = S.RawQ.empty() ? 256 : S.RawQ.size() * 2;
    S.RawQ.resize(Cap);
    S.RawF.resize(Cap);
    C->PairQ = S.RawQ.data();
    C->PairF = S.RawF.data();
    C->CapPairs = Cap;
  }
};

void PlanExecutor::setupNative() {
  native::PlanSource Src;
  {
    obs::TraceSpan Span(&obs::TraceBuffer::global(), "native:emit",
                        "spmd.native");
    Src = native::emitPlanSource(Plan);
  }
  std::string Err;
  const native::Kernel *K = native::KernelCache::global().get(Src, &Err);
  if (!K) {
    std::fprintf(stderr,
                 "dhpf: native engine unavailable, falling back to "
                 "bytecode: %s\n",
                 Err.c_str());
    obs::MetricsRegistry::global().counter("spmd.native.fallbacks")->inc();
    return;
  }
  auto NS = std::make_unique<NativeState>();
  NS->Kern = K;
  NS->T = K->Table;
  NS->Ranks.resize(Hi - Lo);
  for (unsigned P = Lo; P != Hi; ++P) {
    NativeState::Tables &Tab = NS->Ranks[P - Lo];
    for (RankStore &R : Stores[P - Lo]) {
      Tab.Data.push_back(R.Box.data());
      Tab.Valid.push_back(R.Valid.data());
      Tab.Base.push_back(R.Base);
      Tab.Size.push_back(static_cast<int64_t>(R.Box.size()));
    }
  }
  const double SPW = I.Config.Machine.SecPerWork;
  for (const StmtPlan &SP : Plan.Stmts)
    NS->LeafCostSec.push_back(SP.Cost * SPW);
  for (unsigned P = Lo; P != Hi; ++P) {
    Scratch &S = PerProc[P];
    NativeState::Tables &Tab = NS->Ranks[P - Lo];
    DhpfCtx &C = S.Ctx;
    C.Host = this;
    C.Me = static_cast<int32_t>(P);
    C.NumArrays = static_cast<int32_t>(Plan.ArrayNames.size());
    C.Data = Tab.Data.data();
    C.Valid = Tab.Valid.data();
    C.Base = Tab.Base.data();
    C.Size = Tab.Size.data();
    C.Accum = S.Acc.data();
    C.LeafCostSec = NS->LeafCostSec.data();
    C.Clock = &I.Mach.clockRef(P);
    C.Stmts = &S.Stmts;
    C.ProgressCtr = 0;
    C.ProgressEvery = ProgressEvery;
    C.ReadSlow = &NativeState::readSlow;
    C.WriteSlow = &NativeState::writeSlow;
    C.Progress = &NativeState::progress;
    C.PairQ = nullptr; // bound per event enumeration
    C.PairF = nullptr;
    C.NumPairs = 0;
    C.CapPairs = 0;
    C.GrowPairs = &NativeState::growPairs;
  }
  Native = std::move(NS);
}

//===----------------------------------------------------------------------===//
// Plan walking
//===----------------------------------------------------------------------===//

bool PlanExecutor::guardHolds(const PlanGuard &G, const int64_t *Regs,
                              int64_t *Stack) const {
  for (const std::vector<PlanAtom> &Conj : G.AnyOf) {
    bool All = true;
    for (const PlanAtom &At : Conj)
      if (!atomHolds(At.E.eval(Regs, Stack), At.K, At.Mod)) {
        All = false;
        break;
      }
    if (All)
      return true;
  }
  return false;
}

template <typename LeafFn>
void PlanExecutor::walk(const PlanAst &A, uint32_t Idx, int64_t *Regs,
                        int64_t *Stack, const LeafFn &F) const {
  const PlanAst::Node &N = A.Nodes[Idx];
  switch (N.K) {
  case PlanAst::Node::Kind::Loop: {
    int64_t Lo = A.Exprs[N.LB].eval(Regs, Stack);
    int64_t Hi = A.Exprs[N.UB].eval(Regs, Stack);
    int64_t Step = N.Step < 0 ? 1 : A.Exprs[N.Step].eval(Regs, Stack);
    assert(Step > 0 && "loop step must be positive");
    int64_t Saved = Regs[N.VarSlot];
    for (int64_t V = Lo; V <= Hi; V += Step) {
      Regs[N.VarSlot] = V;
      for (uint32_t C = Idx + 1; C != N.SubtreeEnd; C = A.Nodes[C].SubtreeEnd)
        walk(A, C, Regs, Stack, F);
    }
    Regs[N.VarSlot] = Saved;
    return;
  }
  case PlanAst::Node::Kind::If:
    for (uint32_t G = N.GuardBegin; G != N.GuardEnd; ++G)
      if (!guardHolds(A.Guards[G], Regs, Stack))
        return;
    for (uint32_t C = Idx + 1; C != N.SubtreeEnd; C = A.Nodes[C].SubtreeEnd)
      walk(A, C, Regs, Stack, F);
    return;
  case PlanAst::Node::Kind::Leaf:
    F(N.LeafId, Regs);
    return;
  }
}

template <typename LeafFn>
void PlanExecutor::walkAll(const PlanAst &A, int64_t *Regs, int64_t *Stack,
                           const LeafFn &F) const {
  for (uint32_t C = 0; C < A.Nodes.size(); C = A.Nodes[C].SubtreeEnd)
    walk(A, C, Regs, Stack, F);
}

template <typename Fn> void PlanExecutor::forProcs(Fn &&F) {
  if (Pool) {
    Pool->parallelFor(Hi - Lo,
                      [&](size_t K) { F(Lo + static_cast<unsigned>(K)); });
    return;
  }
  for (unsigned P = Lo; P != Hi; ++P)
    F(P);
}

/// Replays per-processor buffered violations and statement counts into the
/// shared result, in processor order (matching the tree engine's sequential
/// execution order exactly).
void PlanExecutor::mergeScratch() {
  for (unsigned P = Lo; P != Hi; ++P) {
    Scratch &S = PerProc[P];
    I.Result.StmtInstances += S.Stmts;
    S.Stmts = 0;
    for (const std::string &M : S.Viol)
      I.violation(M);
    S.Viol.clear();
  }
}

//===----------------------------------------------------------------------===//
// Element access
//===----------------------------------------------------------------------===//

double PlanExecutor::readFast(unsigned P, uint32_t AId, int64_t Flat,
                              Scratch &S) {
  RankStore &R = store(P, AId);
  int64_t F = Flat - R.Base;
  bool InBox = F >= 0 && F < static_cast<int64_t>(R.Box.size());
  assert(InBox && "read outside the rank's storage box");
  if (InBox && R.Valid[F])
    return R.Box.at(F);
  if (S.Viol.size() < 20)
    S.Viol.push_back("proc " + std::to_string(P) + " read unreceived element " +
                     std::to_string(globalFlat(P, AId, F)) + " of " +
                     Plan.ArrayNames[AId]);
  return InBox ? R.Box.at(F) : 0.0;
}

void PlanExecutor::writeFast(unsigned P, uint32_t AId, int64_t Flat,
                             double V) {
  RankStore &R = store(P, AId);
  int64_t F = Flat - R.Base;
  assert(F >= 0 && F < static_cast<int64_t>(R.Box.size()) &&
         "write outside the rank's storage box");
  if (F < 0 || F >= static_cast<int64_t>(R.Box.size()))
    return;
  R.Box.at(F) = V;
  if (!(R.Valid[F] & ValidOwn))
    R.Valid[F] |= ValidPut; // a non-owner write, sent to the owner later
}

//===----------------------------------------------------------------------===//
// Event execution
//===----------------------------------------------------------------------===//

void PlanExecutor::buildLists(const PlanAst &A, const EventPlan &EP,
                              unsigned P, std::vector<PartnerList> &Lists,
                              bool RecvSide) {
  Scratch &S = PerProc[P];
  if (Native && Native->T) {
    // Native enumeration: the kernel folds the realVP check and rank
    // mapping to constants and fills RawQ/RawF through the pair buffer.
    size_t EIdx = static_cast<size_t>(&EP - Plan.Events.data());
    if (S.RawQ.empty()) {
      S.RawQ.resize(256);
      S.RawF.resize(256);
    }
    S.Ctx.PairQ = S.RawQ.data();
    S.Ctx.PairF = S.RawF.data();
    S.Ctx.NumPairs = 0;
    S.Ctx.CapPairs = S.RawQ.size();
    DhpfEnumFn Fn =
        RecvSide ? Native->T->EventRecv[EIdx] : Native->T->EventSend[EIdx];
    Fn(&S.Ctx, S.Regs.data());
    S.RawLen = S.Ctx.NumPairs;
  } else {
    S.RawQ.clear();
    S.RawF.clear();
    const unsigned ND = static_cast<unsigned>(EP.PartnerSlots.size());
    std::vector<int64_t> PT(ND);
    int64_t *Stack = S.Stack.data();
    walkAll(A, S.Regs.data(), Stack,
            [&](int32_t, const int64_t *Regs) {
              for (unsigned D = 0; D != ND; ++D)
                PT[D] = Regs[EP.PartnerSlots[D]];
              if (!isRealVP(PT.data()))
                return; // fictitious virtual processor
              unsigned Q = rankOfPartner(PT.data());
              if (Q == P)
                return; // VP neighbours on the same physical processor
              S.RawQ.push_back(Q);
              S.RawF.push_back(EP.ElemBox.eval(Regs, Stack));
            });
    S.RawLen = S.RawQ.size();
  }
  // Group per partner in first-appearance order (the tree engine's message
  // order), then dedup by sort+unique: union conjuncts in the comm sets may
  // enumerate an element twice. Every element lies in the rank's box, where
  // box order is global flat order.
  const RankStore &R = store(P, EP.Array);
  Lists.clear();
  for (size_t K = 0; K != S.RawLen; ++K) {
    const unsigned Q = S.RawQ[K];
    if (S.PartnerPos[Q] < 0) {
      S.PartnerPos[Q] = static_cast<int32_t>(Lists.size());
      Lists.emplace_back().Q = Q;
    }
    Lists[S.PartnerPos[Q]].Local.push_back(S.RawF[K] - R.Base);
  }
  for (PartnerList &PL : Lists) {
    S.PartnerPos[PL.Q] = -1;
    std::vector<int64_t> &L = PL.Local;
    std::sort(L.begin(), L.end());
    L.erase(std::unique(L.begin(), L.end()), L.end());
    assert(L.front() >= 0 && L.back() < static_cast<int64_t>(R.Box.size()) &&
           "element outside the rank's storage box");
    PL.Flats = std::make_shared<std::vector<int64_t>>(L.size());
    bool AnyLocal = false, AnyRemote = false;
    for (size_t K = 0; K != L.size(); ++K) {
      (*PL.Flats)[K] = globalFlat(P, EP.Array, L[K]);
      (R.Valid[L[K]] & ValidOwn ? AnyLocal : AnyRemote) = true;
    }
    const std::vector<int64_t> &F = *PL.Flats;
    assert(F.front() >= 0 && F.back() < EP.Elems &&
           "flat subscript out of bounds");
    int64_t N = static_cast<int64_t>(L.size());
    PL.Base = F.front();
    PL.Contig = F.back() - F.front() + 1 == N;
    PL.LocalContig = L.back() - L.front() + 1 == N;
    PL.Own = AnyRemote ? (AnyLocal ? PartnerList::OwnClass::Mixed
                                   : PartnerList::OwnClass::NoneLocal)
                       : PartnerList::OwnClass::AllLocal;
  }
}

void PlanExecutor::runSend(const PlanNode &N) {
  EventPlan &EP = Plan.Events[N.EventId];
  const std::string &ArrName = Plan.ArrayNames[EP.Array];
  forProcs([&](unsigned P) {
    Scratch &S = PerProc[P];
    RankStore &R = store(P, EP.Array);
    std::vector<PartnerList> *L;
    if (EP.Cacheable) {
      SideCache &C = SendCache[N.EventId][P];
      if (!C.Built) {
        buildLists(EP.Send, EP, P, C.Partners, /*RecvSide=*/false);
        C.Built = true;
      }
      L = &C.Partners;
    } else {
      buildLists(EP.Send, EP, P, S.Lists, /*RecvSide=*/false);
      L = &S.Lists;
    }
    S.Out.clear();
    for (const PartnerList &PL : *L) {
      const std::vector<int64_t> &Loc = PL.Local;
      Outgoing &O = S.Out.emplace_back();
      O.Q = PL.Q;
      // The Section 3.3 shape, a contiguous run of locally owned storage.
      O.SpanShape = PL.Own == PartnerList::OwnClass::AllLocal && PL.Contig;
      Payload &Pay = O.Pay;
      Pay.Base = PL.Base;
      Pay.N = Loc.size();
      Pay.Contig = PL.Contig;
      if (!PL.Contig)
        Pay.Flats = PL.Flats;
      // When it is contiguous in the box too it is not gathered here: the
      // comm reads it straight from the store.
      if (O.SpanShape && PL.LocalContig) {
        Pay.Span = R.Box.data() + Loc.front();
        continue;
      }
      Pay.Vals.resize(Loc.size());
      if (PL.Own == PartnerList::OwnClass::AllLocal) {
        if (Native && Native->T)
          Native->T->Gather(Pay.Vals.data(), R.Box.data(), Loc.data(),
                            Loc.size());
        else
          for (size_t K = 0; K != Loc.size(); ++K)
            Pay.Vals[K] = R.Box.at(Loc[K]);
        continue;
      }
      for (size_t K = 0; K != Loc.size(); ++K) {
        // Data I own (read comm), or a non-local write I transmit.
        uint8_t V = R.Valid[Loc[K]];
        if (!(V & (ValidOwn | ValidPut)) && S.Viol.size() < 20)
          S.Viol.push_back("proc " + std::to_string(P) +
                           " sends unwritten non-local element of " + ArrName);
        Pay.Vals[K] = R.Box.at(Loc[K]);
      }
    }
  });
  // Sequential merge in processor order: the comm sees exactly the tree
  // engine's message sequence.
  for (unsigned P = Lo; P != Hi; ++P) {
    Scratch &S = PerProc[P];
    for (const std::string &M : S.Viol)
      I.violation(M);
    S.Viol.clear();
    for (Outgoing &O : S.Out) {
      if (O.SpanShape)
        ++I.Result.SpanCopies;
      else
        ++I.Result.PackedCopies;
      Com.post(P, O.Q, EP, std::move(O.Pay));
    }
    S.Out.clear();
  }
}

void PlanExecutor::runRecv(const PlanNode &N) {
  EventPlan &EP = Plan.Events[N.EventId];
  // Phase 1 (parallel): enumerate each receiver's expected element lists.
  forProcs([&](unsigned P) {
    if (EP.Cacheable) {
      SideCache &C = RecvCache[N.EventId][P];
      if (!C.Built) {
        buildLists(EP.Recv, EP, P, C.Partners, /*RecvSide=*/true);
        C.Built = true;
      }
    } else {
      buildLists(EP.Recv, EP, P, PerProc[P].Lists, /*RecvSide=*/true);
    }
  });
  // Phase 2 (sequential): receive payloads, validate, apply values into
  // the receiver's box by position.
  for (unsigned P = Lo; P != Hi; ++P) {
    std::vector<PartnerList> &L = EP.Cacheable
                                      ? RecvCache[N.EventId][P].Partners
                                      : PerProc[P].Lists;
    RankStore &R = store(P, EP.Array);
    for (const PartnerList &PL : L) {
      const std::vector<int64_t> &Exp = *PL.Flats;
      Payload Pay;
      if (!Com.receive(P, PL.Q, EP, Pay)) {
        I.violation("proc " + std::to_string(P) + " expects a message from " +
                    std::to_string(PL.Q) + " for event " +
                    std::to_string(EP.Id) + " that was never sent");
        continue;
      }
      if (Pay.N != Exp.size())
        I.violation("message size mismatch for event " + std::to_string(EP.Id) +
                    " (" + std::to_string(Pay.N) + " sent vs " +
                    std::to_string(Exp.size()) + " expected)");
      auto Apply = [&](size_t K, double V) {
        R.Box.at(PL.Local[K]) = V;
        R.Valid[PL.Local[K]] |= ValidGot;
      };
      auto Missing = [&] {
        I.violation("expected element missing from message (event " +
                    std::to_string(EP.Id) + ")");
      };
      if (Pay.Contig && PL.Contig && PL.LocalContig && Pay.Base == PL.Base &&
          Pay.N == Exp.size()) {
        // Zero-copy span apply: unpack is a single copy into the box.
        int64_t B = PL.Local.front();
        if (Native && Native->T)
          Native->T->CopySpan(R.Box.data() + B, Pay.Vals.data(), Pay.N);
        else
          std::copy_n(Pay.Vals.data(), Pay.N, R.Box.data() + B);
        if (PL.Own != PartnerList::OwnClass::AllLocal)
          for (size_t K = 0; K != Pay.N; ++K)
            R.Valid[B + K] |= ValidGot;
      } else if (Pay.Contig) {
        int64_t Cnt = static_cast<int64_t>(Pay.N);
        for (size_t K = 0; K != Exp.size(); ++K) {
          int64_t Idx = Exp[K] - Pay.Base;
          if (Idx < 0 || Idx >= Cnt)
            Missing();
          else
            Apply(K, Pay.Vals[Idx]);
        }
      } else {
        // Merge-join of two sorted lists (expected vs delivered).
        const std::vector<int64_t> &PF = *Pay.Flats;
        size_t J = 0;
        for (size_t K = 0; K != Exp.size(); ++K) {
          while (J != PF.size() && PF[J] < Exp[K])
            ++J;
          if (J == PF.size() || PF[J] != Exp[K])
            Missing();
          else
            Apply(K, Pay.Vals[J]);
        }
      }
    }
  }
}

void PlanExecutor::runCompute(const PlanNode &N) {
  obs::TraceSpan Span(Com.Trace, N.SpanName, "rt.exec");
  if (Native && Native->T && N.NativeComputeId >= 0) {
    // The compiled loop nest performs the identical sequence of reads,
    // statement arithmetic, accumulations, stores, clock bumps, instance
    // counts and progress pumps; slow paths (non-local elements) come back
    // through the trampolines.
    const DhpfComputeFn Fn = Native->T->Compute[N.NativeComputeId];
    forProcs([&](unsigned P) {
      Scratch &S = PerProc[P];
      Fn(&S.Ctx, S.Regs.data());
    });
    mergeScratch();
    return;
  }
  forProcs([&](unsigned P) {
    Scratch &S = PerProc[P];
    int64_t *Regs = S.Regs.data();
    int64_t *Stack = S.Stack.data();
    double *Reads = S.Reads.data();
    double *Values = S.Values.data();
    walkAll(N.Loops, Regs, Stack, [&](int32_t Leaf, const int64_t *R) {
      const StmtPlan &SP = Plan.Stmts[Leaf];
      for (size_t K = 0; K != SP.Reads.size(); ++K)
        Reads[K] = readFast(P, SP.Reads[K].Array,
                            SP.Reads[K].Flat.eval(R, Stack), S);
      double V = SP.Body.eval(Reads, 0, nullptr, Values);
      if (SP.AccSlot >= 0) {
        double A = SP.AccOperand.eval(Reads, V, nullptr, Values);
        double &Acc = S.Acc[SP.AccSlot];
        Acc = SP.AccOp == hpf::Accumulate::Op::Sum ? Acc + A
                                                   : std::max(Acc, A);
      }
      writeFast(P, SP.WriteArray, SP.WriteFlat.eval(R, Stack), V);
      I.Mach.addCompute(P, SP.Cost);
      ++S.Stmts;
      if (++S.SinceProgress == ProgressEvery) {
        S.SinceProgress = 0;
        Com.progress();
      }
    });
  });
  mergeScratch();
}

void PlanExecutor::runReduce(const PlanNode &N) {
  std::vector<double> Own;
  for (unsigned P = Lo; P != Hi; ++P)
    Own.push_back(PerProc[P].Acc[N.RedSlot]);
  double Combined = Com.allReduce(N, Own);
  for (unsigned P = Lo; P != Hi; ++P)
    PerProc[P].Acc[N.RedSlot] = Combined;
  I.Result.FinalAccums[N.RedName] = Combined;
}

void PlanExecutor::runNode(const PlanNode &N) {
  ++Dispatch[static_cast<size_t>(N.K)];
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    for (const PlanNode &C : N.Children)
      runNode(C);
    break;
  case SpmdNode::Kind::TimeLoop: {
    Scratch &L = PerProc[Lo];
    int64_t First = N.SeqLo.eval(L.Regs.data(), L.Stack.data());
    int64_t Last = N.SeqHi.eval(L.Regs.data(), L.Stack.data());
    for (int64_t V = First; V <= Last; ++V) {
      for (unsigned P = Lo; P != Hi; ++P)
        PerProc[P].Regs[N.SeqSlot] = V;
      for (const PlanNode &C : N.Children)
        runNode(C);
    }
    break;
  }
  case SpmdNode::Kind::Compute:
    runCompute(N);
    break;
  case SpmdNode::Kind::Send:
    runSend(N);
    break;
  case SpmdNode::Kind::Recv:
    runRecv(N);
    break;
  case SpmdNode::Kind::Reduce:
    runReduce(N);
    break;
  }
}

RunResult PlanExecutor::run() {
  {
    obs::TraceSpan Span(Com.Trace, "rank:run", "rt");
    if (Prog.Root)
      runNode(Plan.Root);
  }
  {
    obs::TraceSpan Span(Com.Trace, "rank:finish", "rt");
    Com.finish(I.Result);
  }
  // Flushed once per run — the dispatch loop itself stays probe-free.
  static const char *KindNames[6] = {"seq",  "time_loop", "compute",
                                     "send", "recv",      "reduce"};
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  for (size_t K = 0; K != 6; ++K)
    if (Dispatch[K])
      R.counter(std::string("spmd.bytecode.dispatch.") + KindNames[K])
          ->inc(Dispatch[K]);
  return I.Result;
}

//===----------------------------------------------------------------------===//
// Virtual-processor mapping (pre-resolved DimPlan forms)
//===----------------------------------------------------------------------===//

bool PlanExecutor::isRealVP(const int64_t *PT) const {
  for (unsigned D = 0; D != Plan.Dims.size(); ++D) {
    const DimPlan &DP = Plan.Dims[D];
    if (!DP.Virtualized)
      continue;
    int64_t Off = PT[D] - DP.TmplLo;
    switch (DP.Kind) {
    case DistSpec::Kind::Block:
      if (floorMod(Off, DP.Block) != 0 || Off / DP.Block >= DP.Extent)
        return false; // fictitious: not a block start, or past the array
      break;
    case DistSpec::Kind::Cyclic:
      break; // every template cell is a real VP
    case DistSpec::Kind::CyclicK:
      if (floorMod(Off, DP.CyclicK) != 0)
        return false; // not a block start
      break;
    case DistSpec::Kind::Star:
      break;
    }
  }
  return true;
}

unsigned PlanExecutor::rankOfPartner(const int64_t *PT) const {
  int64_t R = 0, M = 1;
  for (unsigned D = 0; D != Plan.Dims.size(); ++D) {
    const DimPlan &DP = Plan.Dims[D];
    int64_t C = 0;
    if (!DP.Virtualized) {
      C = PT[D];
    } else {
      switch (DP.Kind) {
      case DistSpec::Kind::Block:
        C = (PT[D] - DP.TmplLo) / DP.Block;
        break;
      case DistSpec::Kind::Cyclic:
        C = floorMod(PT[D] - DP.TmplLo, DP.Extent);
        break;
      case DistSpec::Kind::CyclicK:
        C = floorMod((PT[D] - DP.TmplLo) / DP.CyclicK, DP.Extent);
        break;
      case DistSpec::Kind::Star:
        break;
      }
    }
    assert(C >= 0 && C < DP.Extent && "partner coordinate out of range");
    R += C * M;
    M *= DP.Extent;
  }
  return static_cast<unsigned>(R);
}
