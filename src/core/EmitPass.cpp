//===- core/EmitPass.cpp - SPMD program emission ------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
//
// The final pipeline stage: walks the program's phases in order, consuming
// the NestAnalysis records the analysis passes produced, and emits the
// compiled SPMD node program (statements, communication events with
// pack/unpack loops and contiguity checks, VP loop wrapping, the Figure
// 4(b) split schedule). Emission is strictly sequential — slot assignment
// and event ids depend on visit order — which is what makes the compiled
// program independent of the analysis thread count.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGen.h"
#include "core/CompileContext.h"
#include "core/Dependence.h"
#include "core/InPlace.h"
#include "obs/Trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;
using spmd::CompiledStmt;
using spmd::SpmdNode;
using spmd::SpmdProgram;

namespace {

class EmitPass : public Pass {
public:
  const char *name() const override { return "emit"; }

  void run(CompileContext &Context) override {
    Ctx = &Context;
    SP = Ctx->SP;
    T = Ctx->T;
    SP->Root = SpmdNode::make(SpmdNode::Kind::Seq);
    for (const Procedure &Proc : Ctx->P.procedures())
      for (const Phase &Ph : Proc.Phases)
        compilePhase(Ph, SP->Root.get());
    assert(NextNestIdx == Ctx->NestAnalyses.size() &&
           "emission consumed a different nest set than analysis produced");
  }

  void dump(const CompileContext &Context, std::ostream &OS) const override {
    OS << Context.SP->print();
  }

private:
  CompileContext *Ctx = nullptr;
  SpmdProgram *SP = nullptr;
  PhaseTimers *T = nullptr;
  bool ProcInfoSet = false;
  /// Emission consumes Ctx->NestAnalyses through this cursor, in the order
  /// compilePhase visits nests.
  size_t NextNestIdx = 0;

  //===------------------------- small helpers ---------------------------===//

  void noteProcInfo(const CPInfo &CP) {
    if (CP.Replicated)
      return;
    if (!ProcInfoSet) {
      SP->ProcName = CP.ProcName;
      SP->ProcDims = CP.Dims;
      for (unsigned D = 0; D != CP.Dims.size(); ++D) {
        SP->MySlots.push_back(SP->Vars.slot(myDimParam(D)));
        SP->CoordSlots.push_back(SP->Vars.slot("mc" + std::to_string(D)));
      }
      ProcInfoSet = true;
      return;
    }
    assert(SP->ProcName == CP.ProcName &&
           "a program must use a single processor array");
  }

  cg::Expr affineToExpr(const AffineExpr &E,
                        const std::map<std::string, std::string>
                            *Renames = nullptr) {
    cg::Expr R = cg::Expr::constant(E.K);
    for (auto &[Name, Coef] : E.Terms) {
      std::string N = Name;
      if (Renames) {
        auto It = Renames->find(Name);
        if (It != Renames->end())
          N = It->second;
      }
      unsigned S = SP->Vars.slot(N);
      R = cg::Expr::add(R, cg::Expr::mul(cg::Expr::var(S, N), Coef));
    }
    return R;
  }

  /// Codegen wrapper that attributes time to \p Phase and to the MM-codegen
  /// total, then runs the generated-code optimization pass.
  cg::AstPtr timedCodegen(const char *Phase,
                          const std::vector<cg::StmtInstance> &Stmts,
                          const std::vector<std::string> &LoopVars,
                          const Relation *Known = nullptr) {
    cg::AstPtr Ast;
    double Secs;
    {
      auto Start = std::chrono::steady_clock::now();
      cg::CodeGen CG(SP->Vars);
      Ast = CG.codegen(Stmts, LoopVars, Known);
      Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           Start)
                 .count();
    }
    T->add(Phase, Secs);
    T->add(phase::MMCodegen, Secs);
    {
      PhaseTimers::Scope S(*T, phase::OptGenerated);
      Ctx->Out->NodesRemovedByOpt += cg::optimizeAst(Ast);
    }
    return Ast;
  }

  /// Like timedCodegen, but one nest per conjunct (used for communication
  /// sets, which are sparse unions; the interpreter deduplicates overlap).
  cg::AstPtr timedCodegenPerConjunct(const char *Phase, const Relation &S,
                                     const std::vector<std::string> &Vars,
                                     const std::string &Label) {
    cg::AstPtr Ast;
    double Secs;
    {
      auto Start = std::chrono::steady_clock::now();
      cg::CodeGen CG(SP->Vars);
      Ast = CG.codegenSetPerConjunct(S, Vars, 0, Label);
      Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           Start)
                 .count();
    }
    T->add(Phase, Secs);
    T->add(phase::MMCodegen, Secs);
    {
      PhaseTimers::Scope Sc(*T, phase::OptGenerated);
      Ctx->Out->NodesRemovedByOpt += cg::optimizeAst(Ast);
    }
    return Ast;
  }

  /// Extracts hull bounds of a 1-D set by generating a scan loop for it.
  std::pair<cg::Expr, cg::Expr> bounds1D(const Relation &S) {
    cg::CodeGen CG(SP->Vars);
    cg::AstPtr Ast = CG.codegenSet(S, {"__bnd"});
    const cg::AstNode *N = Ast.get();
    while (N && N->K != cg::AstNode::Kind::Loop)
      N = N->Children.empty() ? nullptr : N->Children.front().get();
    if (!N)
      return {cg::Expr::constant(1), cg::Expr::constant(0)}; // empty
    return {N->LB, N->UB};
  }

  cg::Expr procExtentExpr(unsigned D) {
    const VPDimInfo &Info = SP->ProcDims[D];
    if (!Info.ProcSym.empty())
      return cg::Expr::var(SP->Vars.slot(Info.ProcSym), Info.ProcSym);
    return cg::Expr::constant(Info.ProcFixed);
  }

  /// Wraps \p Body in virtual-processor loops (Figure 6): for each
  /// cyclic-virtualized dimension, a loop over the VPs of this physical
  /// processor restricted to \p VPSet's hull in that dimension.
  cg::AstPtr wrapVPLoops(cg::AstPtr Body, const Relation &VPSet) {
    if (!ProcInfoSet)
      return Body;
    for (int D = static_cast<int>(SP->ProcDims.size()) - 1; D >= 0; --D) {
      const VPDimInfo &Info = SP->ProcDims[D];
      if (!Info.Virtualized || Info.Kind == DistSpec::Kind::Block)
        continue;
      auto [LB, UB] = bounds1D(VPSet.projectOntoDim(D));
      cg::Expr Coord = cg::Expr::var(SP->CoordSlots[D],
                                     SP->Vars.name(SP->CoordSlots[D]));
      cg::Expr Base, Step;
      if (Info.Kind == DistSpec::Kind::Cyclic) {
        Base = cg::Expr::add(cg::Expr::constant(Info.TmplLo), Coord);
        Step = procExtentExpr(D);
      } else { // CyclicK
        Base = cg::Expr::add(cg::Expr::constant(Info.TmplLo),
                             cg::Expr::mul(Coord, Info.CyclicK));
        Step = cg::Expr::mul(procExtentExpr(D), Info.CyclicK);
      }
      // Smallest v >= LB with v ≡ Base (mod Step):
      //   v0 = LB + ((Base - LB) mod Step).
      cg::Expr Aligned = cg::Expr::add(
          LB, cg::Expr::modExpr(cg::Expr::sub(Base, LB), Step));
      cg::AstPtr Loop = cg::AstNode::loop(
          SP->Vars.name(SP->MySlots[D]), SP->MySlots[D], Aligned, UB, Step);
      Loop->Children.push_back(std::move(Body));
      Body = std::move(Loop);
    }
    return Body;
  }

  /// Figure 6's "do not communicate with fictitious virtual processors",
  /// applied at code-generation time: partner loops over block- and
  /// cyclic(k)-virtualized dimensions advance by the block size, starting
  /// at the first real VP (a block start) at or above the loop's bound.
  void stridePartnerLoops(cg::AstNode &N,
                          const std::vector<unsigned> &PartnerSlots) {
    if (N.K == cg::AstNode::Kind::Loop) {
      for (unsigned D = 0; D != SP->ProcDims.size() &&
                           D != PartnerSlots.size();
           ++D) {
        if (N.VarSlot != PartnerSlots[D])
          continue;
        const VPDimInfo &Info = SP->ProcDims[D];
        if (!Info.Virtualized)
          break;
        cg::Expr Step;
        if (Info.Kind == DistSpec::Kind::Block)
          Step = cg::Expr::var(SP->Vars.slot(Info.BlockParam),
                               Info.BlockParam);
        else if (Info.Kind == DistSpec::Kind::CyclicK)
          Step = cg::Expr::constant(Info.CyclicK);
        else
          break; // cyclic: every template cell is a real VP
        // First block start >= LB: LB + ((TmplLo - LB) mod Step).
        N.LB = cg::Expr::add(
            N.LB, cg::Expr::modExpr(
                      cg::Expr::sub(cg::Expr::constant(Info.TmplLo), N.LB),
                      Step));
        N.Step = Step;
        break;
      }
    }
    for (cg::AstPtr &C : N.Children)
      stridePartnerLoops(*C, PartnerSlots);
  }

  //===--------------------------- statements ----------------------------===//

  int compileStmt(const Statement &S, const ComputeNest &Nest) {
    if (SP->Stmts.size() <= static_cast<size_t>(S.Id))
      SP->Stmts.resize(S.Id + 1);
    CompiledStmt CS;
    CS.Id = S.Id;
    CS.WriteArray = S.Write.Array;
    for (const AffineExpr &E : S.Write.Subs)
      CS.WriteSubs.push_back(affineToExpr(E));
    for (const Reference &R : S.Reads) {
      CompiledStmt::Read Rd;
      Rd.Array = R.Array;
      for (const AffineExpr &E : R.Subs)
        Rd.Subs.push_back(affineToExpr(E));
      CS.Reads.push_back(std::move(Rd));
    }
    CS.Body = S.Body;
    CS.Acc = S.Acc;
    CS.Cost = S.Cost;
    CS.Label = Nest.Name + "/S" + std::to_string(S.Id);
    SP->Stmts[S.Id] = std::move(CS);
    return S.Id;
  }

  //===------------------------ communication ----------------------------===//

  /// Builds the compiled event (send/recv loops, contiguity checks) and
  /// registers it; returns its id, or -1 when there is no communication.
  int emitEvent(EventPlan &Plan) {
    const CommSets &CS = Plan.CS;
    // Plan.Communicates was decided by CommPass: the event communicates
    // iff some processor accesses non-local data.
    if (!Plan.Communicates)
      return -1;

    spmd::CommEvent Ev;
    Ev.Id = SP->Events.size();
    Ev.Array = Plan.In.Array;
    unsigned PR = CS.SendCommMap.numIn();
    unsigned ER = CS.SendCommMap.numOut();
    std::vector<std::string> Vars;
    for (unsigned I = 0; I != PR; ++I) {
      std::string N = "q" + std::to_string(I);
      Vars.push_back(N);
      Ev.PartnerSlots.push_back(SP->Vars.slot(N));
    }
    for (unsigned I = 0; I != ER; ++I) {
      std::string N = "x" + std::to_string(I);
      Vars.push_back(N);
      Ev.ElemSlots.push_back(SP->Vars.slot(N));
    }
    {
      PhaseTimers::Scope S(*T, phase::CommGeneration);
      Ev.SendLoops = timedCodegenPerConjunct(
          phase::CommLoops, CS.SendCommMap.asSet(), Vars, "pack");
      Ev.RecvLoops = timedCodegenPerConjunct(
          phase::CommLoops, CS.RecvCommMap.asSet(), Vars, "unpack");
      if (ProcInfoSet) {
        stridePartnerLoops(*Ev.SendLoops, Ev.PartnerSlots);
        stridePartnerLoops(*Ev.RecvLoops, Ev.PartnerSlots);
      }
      // Restrict to the active virtual processors (Figure 5/6).
      if (!CS.ActiveSendVPSet.conjuncts().empty())
        Ev.SendLoops =
            wrapVPLoops(std::move(Ev.SendLoops), CS.ActiveSendVPSet);
      if (!CS.ActiveRecvVPSet.conjuncts().empty())
        Ev.RecvLoops =
            wrapVPLoops(std::move(Ev.RecvLoops), CS.ActiveRecvVPSet);
    }
    if (Ctx->Opts.InPlaceAnalysis) {
      // The per-partner message section: partners become parameters.
      std::vector<std::string> QP;
      for (unsigned I = 0; I != PR; ++I)
        QP.push_back("qp" + std::to_string(I));
      Relation PerPartner =
          CS.RecvCommMap.bindDomainToParams(QP).simplify().coalesce();
      {
        PhaseTimers::Scope S(*T, phase::ContigCheck);
        Ev.InPlaceProven =
            analyzeInPlaceSections(PerPartner, Ctx->MB.dataSet(Plan.In.Array))
                .Verdict == InPlaceVerdict::Contiguous;
        if (Ev.InPlaceProven)
          ++Ctx->Out->NumContiguousProven;
      }
      {
        // Rectangular-section check: like the paper's contiguity test,
        // applied to single-conjunct sections only (cost control).
        PhaseTimers::Scope S(*T, phase::RectCheck);
        if (std::as_const(PerPartner).conjuncts().size() <= 1 &&
            isRectSectionProven(PerPartner))
          ++Ctx->Out->NumRectSections;
      }
    }
    ++Ctx->Out->NumCommEvents;
    SP->Events.push_back(std::move(Ev));
    return SP->Events.back().Id;
  }

  //===------------------------- nest compilation ------------------------===//

  void compileNest(const ComputeNest &Nest, SpmdNode *Parent) {
    assert(NextNestIdx < Ctx->NestAnalyses.size() &&
           "nest collection out of sync with compilePhase");
    obs::TraceSpan Span(&obs::TraceBuffer::global(), "emit:" + Nest.Name,
                        "compile.nest");
    NestAnalysis &NA = Ctx->NestAnalyses[NextNestIdx++];
    const std::vector<CPInfo> &CPs = NA.CPs;
    const std::vector<unsigned> &Groups = NA.Groups;
    const std::vector<Relation> &GroupIters = NA.GroupIters;

    for (const CPInfo &CP : CPs)
      noteProcInfo(CP);

    for (const Statement &St : Nest.Stmts)
      compileStmt(St, Nest);

    unsigned V = std::min<unsigned>(Nest.VectorizeLevel, Nest.Loops.size());

    std::vector<EventPlan *> Live;
    for (EventPlan &EP : NA.Plans) {
      EP.EventId = emitEvent(EP);
      if (EP.EventId >= 0)
        Live.push_back(&EP);
    }

    // Placement loops (partial vectorization): communication and the nest
    // body live inside sequential J loops over the outer dimensions.
    SpmdNode *Container = Parent;
    std::map<std::string, std::string> Renames;
    for (unsigned L = 0; L != V; ++L) {
      auto TL = SpmdNode::make(SpmdNode::Kind::TimeLoop);
      TL->SeqVar = placementParam(L);
      TL->SeqSlot = SP->Vars.slot(TL->SeqVar);
      TL->SeqLo = affineToExpr(Nest.Loops[L].Lo, &Renames);
      TL->SeqHi = affineToExpr(Nest.Loops[L].Hi, &Renames);
      Renames[Nest.Loops[L].Var] = placementParam(L);
      SpmdNode *Raw = TL.get();
      Container->Children.push_back(std::move(TL));
      Container = Raw;
    }

    // Restrict statement iteration sets to the placement parameters.
    auto PlaceRestrict = [&](Relation S) {
      for (unsigned L = 0; L != V; ++L)
        S = S.equateOutDimToParam(L, placementParam(L));
      return S;
    };

    // The loops in DepPass's order; every iteration set is permuted to
    // match before code generation.
    std::vector<std::string> LoopVars;
    for (unsigned K : NA.LoopOrder)
      LoopVars.push_back(Nest.Loops[K].Var);
    if (!std::is_sorted(NA.LoopOrder.begin(), NA.LoopOrder.end()))
      ++Ctx->Out->NumPermutedNests;
    if (NA.OrderRefused)
      ++Ctx->Out->NumOrderRefused;
    if (NA.SplitRefused)
      ++Ctx->Out->NumSplitRefused;

    // One compute node: a single scan (a hull when its sets are unions),
    // or the disjoint pieces of a split section one after another, each
    // with exact bounds.
    using Piece = std::vector<cg::StmtInstance>;
    auto AddCompute = [&](const std::vector<Piece> &Pieces,
                          const std::string &Tag) {
      cg::AstPtr Ast;
      if (Pieces.size() == 1) {
        bool AllEmpty = true;
        for (const cg::StmtInstance &SI : Pieces[0])
          if (!SI.Iters.conjuncts().empty() && !SI.Iters.isEmpty())
            AllEmpty = false;
        if (AllEmpty)
          return;
        Ast = timedCodegen(phase::BoundsReduction, Pieces[0], LoopVars);
      } else {
        Ast = cg::AstNode::block();
        for (const Piece &SIs : Pieces)
          Ast->Children.push_back(
              timedCodegen(phase::BoundsReduction, SIs, LoopVars));
        ++Ctx->Out->NumExactSections;
        Ctx->Out->NumExactPieces += Pieces.size();
      }
      if (NA.AnyBusy)
        Ast = wrapVPLoops(std::move(Ast), NA.BusyVP);
      auto N = SpmdNode::make(SpmdNode::Kind::Compute);
      N->Loops = std::move(Ast);
      N->NestName = Nest.Name + Tag;
      Container->Children.push_back(std::move(N));
    };
    auto AddComm = [&](SpmdNode::Kind K, int EventId) {
      auto N = SpmdNode::make(K);
      N->EventId = EventId;
      Container->Children.push_back(std::move(N));
    };

    // Loop splitting (Figure 4) or the straightforward schedule. The split
    // sets were computed by SplitPass; here we only emit the schedule.
    if (NA.DoSplit) {
      const SplitSets &SS = NA.SS;
      ++Ctx->Out->NumSplitNests;
      auto SectionStmts = [&](const Relation &Sec) {
        Relation Ordered = permuteDims(Sec, NA.LoopOrder);
        Piece R;
        for (const Statement &St : Nest.Stmts)
          R.push_back({St.Id, SP->Stmts[St.Id].Label, Ordered});
        return R;
      };
      auto AddSection = [&](unsigned K, const Relation &Sec,
                            const std::string &Tag) {
        std::vector<Piece> Pieces;
        for (const Relation &P : NA.SplitPieces[K])
          Pieces.push_back(SectionStmts(P));
        if (Pieces.empty())
          Pieces.push_back(SectionStmts(Sec));
        AddCompute(Pieces, Tag);
      };
      // Figure 4(b) schedule.
      for (EventPlan *EP : Live)
        if (!EP->IsWrite)
          AddComm(SpmdNode::Kind::Send, EP->EventId);
      AddSection(0, SS.NLWOIters, "/nlwo");
      AddSection(1, SS.LocalIters, "/local");
      for (EventPlan *EP : Live)
        if (!EP->IsWrite)
          AddComm(SpmdNode::Kind::Recv, EP->EventId);
      AddSection(2, SS.NLROIters.unionWith(SS.NLRWIters), "/nonlocal");
      for (EventPlan *EP : Live)
        if (EP->IsWrite)
          AddComm(SpmdNode::Kind::Send, EP->EventId);
      for (EventPlan *EP : Live)
        if (EP->IsWrite)
          AddComm(SpmdNode::Kind::Recv, EP->EventId);
      return;
    }

    // Straightforward schedule: read comm, compute, write comm.
    for (EventPlan *EP : Live)
      if (!EP->IsWrite)
        AddComm(SpmdNode::Kind::Send, EP->EventId);
    for (EventPlan *EP : Live)
      if (!EP->IsWrite)
        AddComm(SpmdNode::Kind::Recv, EP->EventId);
    Piece SIs;
    for (unsigned I = 0; I != Nest.Stmts.size(); ++I) {
      const Statement &St = Nest.Stmts[I];
      SIs.push_back(
          {St.Id, SP->Stmts[St.Id].Label,
           permuteDims(PlaceRestrict(GroupIters[Groups[I]]), NA.LoopOrder)});
    }
    AddCompute({SIs}, "");
    for (EventPlan *EP : Live)
      if (EP->IsWrite)
        AddComm(SpmdNode::Kind::Send, EP->EventId);
    for (EventPlan *EP : Live)
      if (EP->IsWrite)
        AddComm(SpmdNode::Kind::Recv, EP->EventId);
  }

  //===----------------------- phases and procedures ---------------------===//

  void compilePhase(const Phase &Ph, SpmdNode *Parent) {
    switch (Ph.K) {
    case Phase::Kind::Nest:
      compileNest(Ph.Nest, Parent);
      break;
    case Phase::Kind::Reduce: {
      auto N = SpmdNode::make(SpmdNode::Kind::Reduce);
      N->RedOp = Ph.Reduce.O == Reduction::Op::Sum
                     ? SpmdNode::ReduceOp::Sum
                     : SpmdNode::ReduceOp::Max;
      N->RedName = Ph.Reduce.Name;
      N->RedBytes = Ph.Reduce.Elems * 8 *
                    (Ph.Reduce.O == Reduction::Op::MaxLoc ? 2 : 1);
      N->RedCost = Ph.Reduce.Cost;
      Parent->Children.push_back(std::move(N));
      break;
    }
    case Phase::Kind::SeqLoop: {
      auto N = SpmdNode::make(SpmdNode::Kind::TimeLoop);
      N->SeqVar = Ph.SeqVar;
      N->SeqSlot = SP->Vars.slot(Ph.SeqVar);
      N->SeqLo = cg::Expr::constant(1);
      N->SeqHi = cg::Expr::constant(Ph.SeqCount);
      SpmdNode *Raw = N.get();
      Parent->Children.push_back(std::move(N));
      for (const Phase &Sub : Ph.Body)
        compilePhase(Sub, Raw);
      break;
    }
    }
  }
};

} // namespace

std::unique_ptr<Pass> core::createEmitPass() {
  return std::make_unique<EmitPass>();
}
