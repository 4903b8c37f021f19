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

/// Collects every leaf id of a generated AST.
void collectLeaves(const cg::AstNode &N, std::vector<int> &Out) {
  if (N.K == cg::AstNode::Kind::Leaf)
    Out.push_back(N.LeafId);
  for (const cg::AstPtr &C : N.Children)
    collectLeaves(*C, Out);
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

/// Lowers one SpmdProgram into a PlanBuild. Stateless beyond the output.
class PlanLowering {
public:
  PlanLowering(const SpmdProgram &Prog, const PlanBuildInputs &In,
               PlanBuild &Out)
      : Prog(Prog), In(In), B(Out), Plan(Out.Plan) {}

  void run();

private:
  const SpmdProgram &Prog;
  const PlanBuildInputs &In;
  PlanBuild &B;
  ExecPlan &Plan;
  int32_t NextComputeId = 0;

  void noteDepth(const bc::Prog &P);
  bc::Prog flattenExpr(const std::vector<cg::Expr> &Subs, const ArrayStore &A,
                       const bc::SlotConsts &Fixed);
  void lowerInto(PlanAst &Out, const cg::AstNode &N,
                 const bc::SlotConsts &Fixed);
  PlanNode lowerNode(const SpmdNode &N, const bc::SlotConsts &Fixed);
};

void PlanLowering::noteDepth(const bc::Prog &P) {
  if (P.depth() > Plan.StackDepth)
    Plan.StackDepth = P.depth();
}

bc::Prog PlanLowering::flattenExpr(const std::vector<cg::Expr> &Subs,
                                   const ArrayStore &A,
                                   const bc::SlotConsts &Fixed) {
  assert(Subs.size() == A.rank() && "subscript arity mismatch");
  cg::Expr E = cg::Expr::constant(0);
  int64_t Stride = 1, LoOff = 0;
  for (unsigned D = 0; D != A.rank(); ++D) {
    E = cg::Expr::add(E, cg::Expr::mul(Subs[D], Stride));
    LoOff = addOv(LoOff, mulOv(A.lo(D), Stride));
    Stride = mulOv(Stride, A.extent(D));
  }
  E = cg::Expr::add(E, cg::Expr::constant(-LoOff));
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
    // Parallel ranks need full per-element ownership on every written
    // array: unowned or replicated writes land on the same storage from
    // every rank and must replay the tree engine's sequential order.
    P.ParallelSafe = true;
    std::vector<int> Leaves;
    collectLeaves(*N.Loops, Leaves);
    for (int L : Leaves) {
      const ArrayStore &A =
          *B.Stores[B.ArrayIds.at(Prog.Stmts[L].WriteArray)];
      if (A.Owner.empty() ||
          std::any_of(A.Owner.begin(), A.Owner.end(),
                      [](int32_t O) { return O < 0; }))
        P.ParallelSafe = false;
    }
    break;
  }
  case SpmdNode::Kind::Send:
  case SpmdNode::Kind::Recv:
    P.EventId = N.EventId;
    break;
  case SpmdNode::Kind::Reduce:
    P.RedOp = N.RedOp;
    P.RedName = N.RedName;
    P.RedBytes = N.RedBytes;
    P.RedCost = N.RedCost;
    break;
  }
  for (const auto &C : N.Children)
    P.Children.push_back(lowerNode(*C, Fixed));
  return P;
}

void PlanLowering::run() {
  // Dense array ids in map order (deterministic).
  for (auto &[Name, Store] : *In.Arrays) {
    B.ArrayIds[Name] = static_cast<uint32_t>(Plan.ArrayNames.size());
    Plan.ArrayNames.push_back(Name);
    B.Stores.push_back(&Store);
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
    auto It = In.AllBindings->find(Prog.Vars.name(S));
    if (It != In.AllBindings->end())
      Fixed[S] = It->second;
  }

  for (const CompiledStmt &S : Prog.Stmts) {
    StmtPlan SP;
    SP.WriteArray = B.ArrayIds.at(S.WriteArray);
    SP.WriteFlat = flattenExpr(S.WriteSubs, *B.Stores[SP.WriteArray], Fixed);
    for (const CompiledStmt::Read &Rd : S.Reads) {
      StmtPlan::Read R;
      R.Array = B.ArrayIds.at(Rd.Array);
      R.Flat = flattenExpr(Rd.Subs, *B.Stores[R.Array], Fixed);
      SP.Reads.push_back(std::move(R));
    }
    SP.Cost = S.Cost;
    SP.SemanticsId = S.SemanticsId;
    Plan.Stmts.push_back(std::move(SP));
  }

  for (const CommEvent &Ev : Prog.Events) {
    EventPlan EP;
    EP.Id = Ev.Id;
    EP.Array = B.ArrayIds.at(Ev.Array);
    EP.PartnerSlots = Ev.PartnerSlots;
    EP.ElemSlots = Ev.ElemSlots;
    EP.ElemBytes = B.Stores[EP.Array]->elemBytes();
    EP.InPlace = Ev.InPlaceProven;
    if (Ev.SendLoops)
      lowerInto(EP.Send, *Ev.SendLoops, Fixed);
    if (Ev.RecvLoops)
      lowerInto(EP.Recv, *Ev.RecvLoops, Fixed);
    std::vector<cg::Expr> ElemSubs;
    for (unsigned S : Ev.ElemSlots)
      ElemSubs.push_back(cg::Expr::var(S, Prog.Vars.name(S)));
    EP.ElemFlat = flattenExpr(ElemSubs, *B.Stores[EP.Array], Fixed);

    // Cacheable iff no free slot of either nest is a TimeLoop variable:
    // then the enumerated lists are identical every execution.
    std::set<unsigned> Used;
    addUsedSlots(EP.Send, Used);
    addUsedSlots(EP.Recv, Used);
    addUsedSlots(EP.ElemFlat, Used);
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
    DP.Extent = (*In.ProcShape)[D];
    if (Info.Virtualized && Info.Kind == DistSpec::Kind::Block)
      DP.Block = Info.BlockParam.empty()
                     ? Info.BlockFixed
                     : In.AllBindings->at(Info.BlockParam);
    Plan.Dims.push_back(DP);
  }

  if (Prog.Root)
    Plan.Root = lowerNode(*Prog.Root, Fixed);
}

} // namespace

PlanBuild spmd::buildExecPlan(const SpmdProgram &Prog,
                              const PlanBuildInputs &In) {
  PlanBuild B;
  PlanLowering(Prog, In, B).run();
  return B;
}

/// Compute pumps Comm::progress() every this many statement instances: the
/// Figure 4 window in which posted sends drain while the rank computes.
static constexpr uint64_t ProgressEvery = 256;

PlanExecutor::PlanExecutor(const SpmdProgram &ProgIn, Interpreter &IIn,
                           Comm &CIn, unsigned Threads, EngineKind Engine)
    : Prog(ProgIn), I(IIn), Com(CIn), NP(IIn.NumProcs), Lo(CIn.First),
      Hi(CIn.First + CIn.Local) {
  {
    PlanBuild B = buildExecPlan(
        Prog, {&I.Arrays, &I.AllBindings, &I.ProcShape});
    Plan = std::move(B.Plan);
    ArrayIds = std::move(B.ArrayIds);
    Stores = std::move(B.Stores);
  }
  size_t MaxReads = 1;
  for (const StmtPlan &SP : Plan.Stmts)
    MaxReads = std::max(MaxReads, SP.Reads.size());
  PerProc.resize(NP);
  for (unsigned P = 0; P != NP; ++P) {
    Scratch &S = PerProc[P];
    S.Regs.assign(I.Env[P].begin(), I.Env[P].end());
    S.Stack.assign(Plan.StackDepth + 1, 0);
    S.Reads.assign(MaxReads, 0.0);
    S.PartnerPos.assign(NP, -1);
  }
  SendCache.assign(Plan.Events.size(), std::vector<SideCache>(NP));
  RecvCache.assign(Plan.Events.size(), std::vector<SideCache>(NP));
  OvV.assign(NP, std::vector<std::unordered_map<int64_t, double>>(
                     Plan.ArrayNames.size()));
  PdV.assign(NP, std::vector<std::unordered_map<int64_t, double>>(
                     Plan.ArrayNames.size()));
  if (Threads > 1 && Hi - Lo > 1)
    Pool = std::make_unique<ThreadPool>(Threads - 1);
  if (Engine == EngineKind::Native)
    setupNative();
}

PlanExecutor::~PlanExecutor() = default;

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

  // Shared per-array tables (pointers into the Interpreter's stores; array
  // shapes are fixed before the executor is constructed).
  std::vector<double *> Data;
  std::vector<const int32_t *> Owner;
  std::vector<int64_t> Size;
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
  static double stmt(DhpfCtx *C, int32_t Leaf, int32_t N) {
    return host(C).runStmt(rank(C), Leaf, static_cast<size_t>(N));
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

double PlanExecutor::runStmt(unsigned P, int32_t Leaf, size_t N) {
  Scratch &S = PerProc[P];
  const StmtFn *Fn = Sems[Leaf];
  assert(Fn && "statement without semantics");
  return (*Fn)({S.Reads.data(), N}, S.Regs, I.Accums[P]);
}

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
  for (ArrayStore *A : Stores) {
    NS->Data.push_back(A->data());
    NS->Owner.push_back(A->Owner.empty() ? nullptr : A->Owner.data());
    NS->Size.push_back(static_cast<int64_t>(A->size()));
  }
  const double SPW = I.Config.Machine.SecPerWork;
  for (const StmtPlan &SP : Plan.Stmts)
    NS->LeafCostSec.push_back(SP.Cost * SPW);
  for (unsigned P = 0; P != NP; ++P) {
    Scratch &S = PerProc[P];
    assert(S.Reads.size() >= Src.MaxReads && "read buffer too narrow");
    DhpfCtx &C = S.Ctx;
    C.Host = this;
    C.Me = static_cast<int32_t>(P);
    C.NumArrays = static_cast<int32_t>(Stores.size());
    C.Data = NS->Data.data();
    C.Owner = NS->Owner.data();
    C.Size = NS->Size.data();
    C.Reads = S.Reads.data();
    C.LeafCostSec = NS->LeafCostSec.data();
    C.Clock = &I.Mach.clockRef(P);
    C.Stmts = &S.Stmts;
    C.ProgressCtr = 0;
    C.ProgressEvery = ProgressEvery;
    C.ReadSlow = &NativeState::readSlow;
    C.WriteSlow = &NativeState::writeSlow;
    C.Stmt = &NativeState::stmt;
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

template <typename Fn> void PlanExecutor::forProcs(bool Parallel, Fn &&F) {
  if (Parallel && Pool) {
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
  ArrayStore &A = *Stores[AId];
  assert(Flat >= 0 && Flat < static_cast<int64_t>(A.size()) &&
         "flat subscript out of bounds");
  if (A.Owner.empty() || A.Owner[Flat] == static_cast<int32_t>(P) ||
      A.Owner[Flat] < 0)
    return A.at(Flat);
  auto &Ov = OvV[P][AId];
  auto It = Ov.find(Flat);
  if (It != Ov.end())
    return It->second;
  auto &Pd = PdV[P][AId];
  auto It2 = Pd.find(Flat);
  if (It2 != Pd.end())
    return It2->second;
  if (S.Viol.size() < 20)
    S.Viol.push_back("proc " + std::to_string(P) + " read unreceived element " +
                     std::to_string(Flat) + " of " + Plan.ArrayNames[AId]);
  return A.at(Flat);
}

void PlanExecutor::writeFast(unsigned P, uint32_t AId, int64_t Flat,
                             double V) {
  ArrayStore &A = *Stores[AId];
  assert(Flat >= 0 && Flat < static_cast<int64_t>(A.size()) &&
         "flat subscript out of bounds");
  if (A.Owner.empty() || A.Owner[Flat] == static_cast<int32_t>(P) ||
      A.Owner[Flat] < 0) {
    A.at(Flat) = V;
    return;
  }
  PdV[P][AId][Flat] = V;
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
              S.RawF.push_back(EP.ElemFlat.eval(Regs, Stack));
            });
    S.RawLen = S.RawQ.size();
  }
  // Group per partner in first-appearance order (the tree engine's message
  // order), then dedup by sort+unique: union conjuncts in the comm sets may
  // enumerate an element twice.
  Lists.clear();
  for (size_t R = 0; R != S.RawLen; ++R) {
    const unsigned Q = S.RawQ[R];
    const int64_t F = S.RawF[R];
    if (S.PartnerPos[Q] < 0) {
      S.PartnerPos[Q] = static_cast<int32_t>(Lists.size());
      PartnerList PL;
      PL.Q = Q;
      PL.Flats = std::make_shared<std::vector<int64_t>>();
      Lists.push_back(std::move(PL));
    }
    Lists[S.PartnerPos[Q]].Flats->push_back(F);
  }
  const ArrayStore &Arr = *Stores[EP.Array];
  for (PartnerList &PL : Lists) {
    S.PartnerPos[PL.Q] = -1;
    std::vector<int64_t> &V = *PL.Flats;
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
    assert(V.front() >= 0 && V.back() < static_cast<int64_t>(Arr.size()) &&
           "flat subscript out of bounds");
    PL.Base = V.front();
    PL.Contig = V.back() - V.front() + 1 == static_cast<int64_t>(V.size());
    bool AnyLocal = false, AnyRemote = false;
    for (int64_t F : V) {
      bool Local =
          RecvSide ? !Arr.Owner.empty() &&
                         Arr.Owner[F] == static_cast<int32_t>(P)
                   : Arr.Owner.empty() || Arr.Owner[F] < 0 ||
                         Arr.Owner[F] == static_cast<int32_t>(P);
      (Local ? AnyLocal : AnyRemote) = true;
      if (AnyLocal && AnyRemote)
        break;
    }
    PL.Own = AnyRemote ? (AnyLocal ? PartnerList::OwnClass::Mixed
                                   : PartnerList::OwnClass::NoneLocal)
                       : PartnerList::OwnClass::AllLocal;
  }
}

void PlanExecutor::runSend(const PlanNode &N) {
  EventPlan &EP = Plan.Events[N.EventId];
  ArrayStore &Arr = *Stores[EP.Array];
  const std::string &ArrName = Plan.ArrayNames[EP.Array];
  forProcs(true, [&](unsigned P) {
    Scratch &S = PerProc[P];
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
    S.OutQ.clear();
    for (const PartnerList &PL : *L) {
      const std::vector<int64_t> &F = *PL.Flats;
      S.OutQ.push_back(PL.Q);
      Payload &Pay = S.Out.emplace_back();
      Pay.Base = PL.Base;
      Pay.N = F.size();
      Pay.Contig = PL.Contig;
      if (!PL.Contig)
        Pay.Flats = PL.Flats;
      // The Section 3.3 shape, a contiguous run of locally owned storage,
      // is not gathered here: the comm reads it straight from the store.
      Pay.Span = PL.Own == PartnerList::OwnClass::AllLocal && PL.Contig;
      if (Pay.Span)
        continue;
      Pay.Vals.resize(F.size());
      if (PL.Own == PartnerList::OwnClass::AllLocal) {
        if (Native && Native->T)
          Native->T->Gather(Pay.Vals.data(), Arr.data(), F.data(), F.size());
        else
          for (size_t K = 0; K != F.size(); ++K)
            Pay.Vals[K] = Arr.at(F[K]);
      } else {
        auto &Pd = PdV[P][EP.Array];
        for (size_t K = 0; K != F.size(); ++K) {
          int64_t Fl = F[K];
          if (Arr.Owner.empty() || Arr.Owner[Fl] < 0 ||
              Arr.Owner[Fl] == static_cast<int32_t>(P)) {
            Pay.Vals[K] = Arr.at(Fl); // forwarding data I own (read comm)
            continue;
          }
          auto It = Pd.find(Fl);
          if (It == Pd.end()) {
            if (S.Viol.size() < 20)
              S.Viol.push_back("proc " + std::to_string(P) +
                               " sends unwritten non-local element of " +
                               ArrName);
            Pay.Vals[K] = Arr.at(Fl);
          } else {
            Pay.Vals[K] = It->second; // transmitting a non-local write
          }
        }
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
    for (size_t K = 0; K != S.Out.size(); ++K) {
      if (S.Out[K].Span)
        ++I.Result.SpanCopies;
      else
        ++I.Result.PackedCopies;
      Com.post(P, S.OutQ[K], EP, Arr, std::move(S.Out[K]));
    }
    S.Out.clear();
    S.OutQ.clear();
  }
}

void PlanExecutor::runRecv(const PlanNode &N) {
  EventPlan &EP = Plan.Events[N.EventId];
  ArrayStore &Arr = *Stores[EP.Array];
  // Phase 1 (parallel): enumerate each receiver's expected element lists.
  forProcs(true, [&](unsigned P) {
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
  // Phase 2 (sequential): receive payloads, validate, apply values.
  for (unsigned P = Lo; P != Hi; ++P) {
    std::vector<PartnerList> &L = EP.Cacheable
                                      ? RecvCache[N.EventId][P].Partners
                                      : PerProc[P].Lists;
    auto &Ov = OvV[P][EP.Array];
    for (const PartnerList &PL : L) {
      const std::vector<int64_t> &Exp = *PL.Flats;
      Payload Pay;
      if (!Com.receive(P, PL.Q, EP, Arr, Pay)) {
        I.violation("proc " + std::to_string(P) + " expects a message from " +
                    std::to_string(PL.Q) + " for event " +
                    std::to_string(EP.Id) + " that was never sent");
        continue;
      }
      if (Pay.N != Exp.size())
        I.violation("message size mismatch for event " + std::to_string(EP.Id) +
                    " (" + std::to_string(Pay.N) + " sent vs " +
                    std::to_string(Exp.size()) + " expected)");
      auto Apply = [&](int64_t F, double V) {
        if (!Arr.Owner.empty() && Arr.Owner[F] == static_cast<int32_t>(P))
          Arr.at(F) = V; // a remote write reaching its owner
        else
          Ov[F] = V;
      };
      auto Missing = [&] {
        I.violation("expected element missing from message (event " +
                    std::to_string(EP.Id) + ")");
      };
      if (Pay.Contig && PL.Contig && Pay.Base == PL.Base &&
          Pay.N == Exp.size() && PL.Own == PartnerList::OwnClass::AllLocal) {
        // Zero-copy span apply: unpack is a single memcpy into the store.
        if (Native && Native->T)
          Native->T->CopySpan(Arr.data() + PL.Base, Pay.Vals.data(), Pay.N);
        else
          std::copy_n(Pay.Vals.data(), Pay.N, Arr.data() + PL.Base);
      } else if (Pay.Contig) {
        int64_t Cnt = static_cast<int64_t>(Pay.N);
        for (int64_t F : Exp) {
          int64_t Idx = F - Pay.Base;
          if (Idx < 0 || Idx >= Cnt)
            Missing();
          else
            Apply(F, Pay.Vals[Idx]);
        }
      } else {
        // Merge-join of two sorted lists (expected vs delivered).
        const std::vector<int64_t> &PF = *Pay.Flats;
        size_t J = 0;
        for (int64_t F : Exp) {
          while (J != PF.size() && PF[J] < F)
            ++J;
          if (J == PF.size() || PF[J] != F)
            Missing();
          else
            Apply(F, Pay.Vals[J]);
        }
      }
    }
  }
}

void PlanExecutor::runCompute(const PlanNode &N) {
  obs::TraceSpan Span(Com.Trace, N.SpanName, "rt.exec");
  if (Native && Native->T && N.NativeComputeId >= 0) {
    // The compiled loop nest performs the identical sequence of reads,
    // statement calls, stores, clock bumps, instance counts and progress
    // pumps; slow paths (non-local elements) come back through the
    // trampolines.
    const DhpfComputeFn Fn = Native->T->Compute[N.NativeComputeId];
    forProcs(N.ParallelSafe, [&](unsigned P) {
      Scratch &S = PerProc[P];
      Fn(&S.Ctx, S.Regs.data());
    });
    mergeScratch();
    return;
  }
  forProcs(N.ParallelSafe, [&](unsigned P) {
    Scratch &S = PerProc[P];
    int64_t *Regs = S.Regs.data();
    int64_t *Stack = S.Stack.data();
    walkAll(N.Loops, Regs, Stack, [&](int32_t Leaf, const int64_t *R) {
      const StmtPlan &SP = Plan.Stmts[Leaf];
      for (size_t K = 0; K != SP.Reads.size(); ++K)
        S.Reads[K] = readFast(P, SP.Reads[K].Array,
                              SP.Reads[K].Flat.eval(R, Stack), S);
      double V = runStmt(P, Leaf, SP.Reads.size());
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
    Own.push_back(I.Accums[P][N.RedName]);
  double Combined = Com.allReduce(N, Own);
  for (unsigned P = Lo; P != Hi; ++P)
    I.Accums[P][N.RedName] = Combined;
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
  Sems.assign(Plan.Stmts.size(), nullptr);
  for (size_t K = 0; K != Plan.Stmts.size(); ++K) {
    auto It = I.Semantics.find(Plan.Stmts[K].SemanticsId);
    if (It != I.Semantics.end())
      Sems[K] = &It->second;
  }
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
