//===- core/Passes.cpp - The per-nest analysis passes --------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
//
// The five analysis stages of the pipeline. Each pass iterates the nests
// through CompileContext::forEachNest — concurrently when a pool is
// configured — and writes only to its nest's NestAnalysis record (including
// its private PhaseTimers), so results are identical for any thread count.
//
//===----------------------------------------------------------------------===//

#include "core/CompileContext.h"
#include "core/Dependence.h"

#include "obs/Trace.h"

#include <map>
#include <numeric>
#include <set>
#include <ostream>
#include <utility>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

void CompileContext::forEachNest(const std::function<void(size_t)> &Fn) {
  if (Pool && Nests.size() > 1) {
    Pool->parallelFor(Nests.size(), Fn);
    return;
  }
  for (size_t I = 0; I != Nests.size(); ++I)
    Fn(I);
}

void Pass::dump(const CompileContext &, std::ostream &OS) const {
  OS << "(pass '" << name() << "' has no printable state)\n";
}

namespace {

unsigned effectiveVectorizeLevel(const ComputeNest &Nest) {
  return std::min<unsigned>(Nest.VectorizeLevel, Nest.Loops.size());
}

//===----------------------------------------------------------------------===//
// PartitionPass: computation partitioning (Section 3.1)
//===----------------------------------------------------------------------===//

class PartitionPass : public Pass {
public:
  const char *name() const override { return "partition"; }

  void run(CompileContext &Ctx) override {
    Ctx.forEachNest([&](size_t I) {
      const ComputeNest &Nest = *Ctx.Nests[I];
      NestAnalysis &NA = Ctx.NestAnalyses[I];
      obs::TraceSpan Span(&obs::TraceBuffer::global(),
                          "partition:" + Nest.Name, "compile.nest");
      PhaseTimers::Scope S(NA.Timers, phase::Partitioning);
      for (const Statement &St : Nest.Stmts)
        NA.CPs.push_back(computeCP(Ctx.MB, Nest, St));
      NA.Groups = groupStatements(NA.CPs);
      unsigned NumGroups = NA.Groups.empty() ? 0 : NA.Groups.back() + 1;
      NA.GroupIters.resize(NumGroups);
      for (unsigned J = 0; J != Nest.Stmts.size(); ++J)
        if (std::as_const(NA.GroupIters[NA.Groups[J]]).conjuncts().empty())
          NA.GroupIters[NA.Groups[J]] =
              cpIterSet(Ctx.MB, Nest, NA.CPs[J]).simplify().coalesce();
    });
  }

  void dump(const CompileContext &Ctx, std::ostream &OS) const override {
    for (size_t I = 0; I != Ctx.Nests.size(); ++I) {
      const NestAnalysis &NA = Ctx.NestAnalyses[I];
      OS << "nest " << Ctx.Nests[I]->Name << ":\n";
      for (size_t J = 0; J != NA.CPs.size(); ++J) {
        OS << "  S" << Ctx.Nests[I]->Stmts[J].Id << " group "
           << NA.Groups[J] << " CP = ";
        if (NA.CPs[J].Replicated)
          OS << "replicated\n";
        else
          OS << NA.CPs[J].CPMap.toString() << "\n";
      }
      for (size_t G = 0; G != NA.GroupIters.size(); ++G)
        OS << "  group " << G
           << " iters = " << NA.GroupIters[G].toString() << "\n";
    }
  }
};

//===----------------------------------------------------------------------===//
// CommPass: the Figure 3 / Figure 5 communication equations
//===----------------------------------------------------------------------===//

class CommPass : public Pass {
public:
  const char *name() const override { return "comm"; }

  void run(CompileContext &Ctx) override {
    Ctx.forEachNest([&](size_t I) {
      const ComputeNest &Nest = *Ctx.Nests[I];
      NestAnalysis &NA = Ctx.NestAnalyses[I];
      obs::TraceSpan Span(&obs::TraceBuffer::global(), "comm:" + Nest.Name,
                          "compile.nest");
      unsigned V = effectiveVectorizeLevel(Nest);

      // Plan communication events: (array, direction) keyed, coalescing
      // same-direction references when enabled.
      {
        PhaseTimers::Scope S(NA.Timers, phase::CommEquations);
        std::map<std::pair<std::string, bool>, unsigned> Index;
        auto AddRef = [&](const std::string &Array, const CommRef &CR,
                          bool IsWrite) {
          std::pair<std::string, bool> Key = {Array, IsWrite};
          if (!Ctx.Opts.Coalescing || Index.find(Key) == Index.end()) {
            EventPlan EP;
            EP.In.Array = Array;
            EP.In.PlacementLevel = V;
            EP.IsWrite = IsWrite;
            if (Ctx.Opts.Coalescing)
              Index[Key] = NA.Plans.size();
            NA.Plans.push_back(std::move(EP));
            NA.Plans.back().In.Refs.push_back(CR);
            return;
          }
          NA.Plans[Index[Key]].In.Refs.push_back(CR);
        };
        for (unsigned J = 0; J != Nest.Stmts.size(); ++J) {
          const Statement &St = Nest.Stmts[J];
          const CPInfo &CP = NA.CPs[J];
          for (const Reference &R : St.Reads) {
            if (!Ctx.P.alignOf(R.Array))
              continue; // replicated array: always local
            CommRef CR;
            CR.ReplicatedCP = CP.Replicated;
            if (!CP.Replicated)
              CR.CPMap = CP.CPMap;
            CR.RefMap = Ctx.MB.refMap(Nest, R);
            CR.IsWrite = false;
            AddRef(R.Array, CR, false);
          }
          // Writes communicate only under non-owner-computes CPs.
          if (!CP.Replicated && !St.OnHome.empty() &&
              Ctx.P.alignOf(St.Write.Array)) {
            CommRef CR;
            CR.CPMap = CP.CPMap;
            CR.RefMap = Ctx.MB.refMap(Nest, St.Write);
            CR.IsWrite = true;
            AddRef(St.Write.Array, CR, true);
          }
        }
      }
      // Run the Figure 3 / Figure 5 equations per plan.
      {
        PhaseTimers::Scope S(NA.Timers, phase::CommEquations);
        for (EventPlan &EP : NA.Plans)
          EP.CS = computeCommSets(Ctx.MB, EP.In,
                                  Ctx.Opts.CombinedFormulation);
      }
      // The event communicates iff some processor accesses non-local data.
      // (Testing the Send/Recv maps instead would keep spurious events
      // alive under the VP model, where fictitious virtual processors
      // "access" overlapping intervals.)
      {
        PhaseTimers::Scope S(NA.Timers, phase::CommGeneration);
        auto Empty = [](const Relation &R) {
          return std::as_const(R).conjuncts().empty() || R.isEmpty();
        };
        for (EventPlan &EP : NA.Plans)
          EP.Communicates = !(Empty(EP.CS.NLDataAccessedRead) &&
                              Empty(EP.CS.NLDataAccessedWrite));
      }
    });
  }

  void dump(const CompileContext &Ctx, std::ostream &OS) const override {
    for (size_t I = 0; I != Ctx.Nests.size(); ++I) {
      const NestAnalysis &NA = Ctx.NestAnalyses[I];
      OS << "nest " << Ctx.Nests[I]->Name << ": " << NA.Plans.size()
         << " planned event(s)\n";
      for (const EventPlan &EP : NA.Plans) {
        OS << "  " << (EP.IsWrite ? "write" : "read") << " " << EP.In.Array
           << " refs=" << EP.In.Refs.size()
           << (EP.Communicates ? "" : " (no communication)") << "\n";
        if (EP.Communicates) {
          OS << "    send = " << EP.CS.SendCommMap.toString() << "\n";
          OS << "    recv = " << EP.CS.RecvCommMap.toString() << "\n";
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// SplitPass: non-local index-set splitting (Figure 4)
//===----------------------------------------------------------------------===//

class SplitPass : public Pass {
public:
  const char *name() const override { return "split"; }

  void run(CompileContext &Ctx) override {
    Ctx.forEachNest([&](size_t I) {
      const ComputeNest &Nest = *Ctx.Nests[I];
      NestAnalysis &NA = Ctx.NestAnalyses[I];
      obs::TraceSpan Span(&obs::TraceBuffer::global(), "split:" + Nest.Name,
                          "compile.nest");
      unsigned V = effectiveVectorizeLevel(Nest);
      unsigned NumGroups = NA.Groups.empty() ? 0 : NA.Groups.back() + 1;
      bool AnyLive = false;
      for (const EventPlan &EP : NA.Plans)
        AnyLive |= EP.Communicates;
      bool CanSplit = Ctx.Opts.LoopSplitting && NumGroups == 1 && AnyLive &&
                      !NA.CPs.empty() && !NA.CPs[0].Replicated && V == 0;
      if (!CanSplit)
        return;
      PhaseTimers::Scope S(NA.Timers, phase::LoopSplitting);
      std::vector<SplitRef> SRefs;
      std::map<std::string, Relation> MineCache;
      auto LayoutMine = [&](const std::string &Array) {
        auto It = MineCache.find(Array);
        if (It != MineCache.end())
          return It->second;
        LayoutResult L = Ctx.MB.layout(Array);
        std::vector<std::string> Names;
        for (unsigned D = 0; D != L.Map.numIn(); ++D)
          Names.push_back(myDimParam(D));
        Relation Mine = L.Map.bindDomainToParams(Names);
        MineCache.emplace(Array, Mine);
        return Mine;
      };
      for (const EventPlan &EP : NA.Plans) {
        if (!EP.Communicates)
          continue;
        for (const CommRef &CR : EP.In.Refs)
          SRefs.push_back({CR.RefMap, LayoutMine(EP.In.Array), CR.IsWrite});
      }
      NA.SS = computeLoopSplit(NA.GroupIters[0], SRefs);
      NA.DoSplit = true;
    });
  }

  void dump(const CompileContext &Ctx, std::ostream &OS) const override {
    for (size_t I = 0; I != Ctx.Nests.size(); ++I) {
      const NestAnalysis &NA = Ctx.NestAnalyses[I];
      OS << "nest " << Ctx.Nests[I]->Name << ": "
         << (NA.DoSplit ? "split" : "not split") << "\n";
      if (!NA.DoSplit)
        continue;
      OS << "  local = " << NA.SS.LocalIters.toString() << "\n";
      OS << "  nlro  = " << NA.SS.NLROIters.toString() << "\n";
      OS << "  nlwo  = " << NA.SS.NLWOIters.toString() << "\n";
      OS << "  nlrw  = " << NA.SS.NLRWIters.toString() << "\n";
    }
  }
};

//===----------------------------------------------------------------------===//
// DepPass: the dependence relation and the loop order it admits
//===----------------------------------------------------------------------===//

class DepPass : public Pass {
public:
  const char *name() const override { return "dep"; }

  void run(CompileContext &Ctx) override {
    Ctx.forEachNest([&](size_t I) {
      const ComputeNest &Nest = *Ctx.Nests[I];
      NestAnalysis &NA = Ctx.NestAnalyses[I];
      checkPlacement(Ctx, Nest, NA);
      NA.LoopOrder.resize(Nest.Loops.size());
      std::iota(NA.LoopOrder.begin(), NA.LoopOrder.end(), 0u);
      bool Reorder = Ctx.Opts.ReorderLoops;
      std::vector<unsigned> Wanted =
          storageOrder(Nest, effectiveVectorizeLevel(Nest));
      bool WantOrder = Reorder && Wanted != NA.LoopOrder;
      if (!WantOrder && !NA.DoSplit)
        return;
      obs::TraceSpan Span(&obs::TraceBuffer::global(), "dep:" + Nest.Name,
                          "compile.nest");
      Relation NonLocal;
      bool Free; // no dependence at all
      {
        PhaseTimers::Scope S(NA.Timers, phase::Dependences);
        NA.Dep = dependenceRelation(Ctx.MB, Nest);
        NA.HasDep = true;
        Free = NA.Dep.isEmpty();
        const Relation &D = NA.Dep;
        if (NA.DoSplit) {
          NonLocal = NA.SS.NLROIters.unionWith(NA.SS.NLRWIters);
          // Figure 4(b) runs nlwo, then local, then nonlocal: no pair may
          // have its source in a later section than its sink.
          auto Backward = [&](const Relation &Later, const Relation &Earlier) {
            return !D.restrictDomain(Later).restrictRange(Earlier).isEmpty();
          };
          if (!Free &&
              (Backward(NA.SS.LocalIters.unionWith(NonLocal),
                        NA.SS.NLWOIters) ||
               Backward(NonLocal, NA.SS.LocalIters))) {
            NA.DoSplit = false;
            NA.SS = SplitSets();
            NA.SplitRefused = true;
          }
        }
        if (WantOrder) {
          if (Free || orderKeepsDependences(D, Wanted)) {
            NA.LoopOrder = Wanted;
          } else {
            NA.OrderRefused = true;
            std::vector<unsigned> Unit = innermostOnly(Wanted);
            if (orderKeepsDependences(D, Unit))
              NA.LoopOrder = Unit;
          }
        }
      }
      if (!Reorder || !NA.DoSplit)
        return;
      // A union section is scanned as exact pieces, one after another,
      // when no pair of D lies inside it.
      const Relation *Sections[] = {&NA.SS.NLWOIters, &NA.SS.LocalIters,
                                    &NonLocal};
      for (unsigned K = 0; K != NA.SplitPieces.size(); ++K) {
        const Relation &Sec = *Sections[K];
        if (std::as_const(Sec).conjuncts().size() < 2)
          continue;
        if (!Free) {
          PhaseTimers::Scope S(NA.Timers, phase::Dependences);
          if (!NA.Dep.restrictDomain(Sec).restrictRange(Sec).isEmpty())
            continue;
        }
        PhaseTimers::Scope S(NA.Timers, phase::LoopSplitting);
        NA.SplitPieces[K] = disjointPieces(Sec);
        if (NA.SplitPieces[K].size() < 2)
          NA.SplitPieces[K].clear();
      }
    });
    for (size_t I = 0; I != Ctx.Nests.size(); ++I) {
      unsigned Need = Ctx.NestAnalyses[I].NeededLevel;
      if (!Need)
        continue;
      Ctx.Refused = true;
      if (Ctx.Diags)
        Ctx.Diags->error(
            SourceLoc(Ctx.P.name().empty() ? "<program>" : Ctx.P.name()),
            "nest '" + Ctx.Nests[I]->Name +
                "' reads on one processor a value another writes inside "
                "its communication level, where no message can carry it; "
                "write 'nest " +
                Ctx.Nests[I]->Name + " vectorize " + std::to_string(Need) +
                "'");
    }
  }

private:
  /// Flow dependences across processors must be carried by the loops
  /// outside the communication level (Dependence.h).
  static void checkPlacement(CompileContext &Ctx, const ComputeNest &Nest,
                             NestAnalysis &NA) {
    std::set<std::string> Written;
    for (const Statement &St : Nest.Stmts)
      Written.insert(St.Write.Array);
    bool ReadsWritten = false;
    for (const Statement &St : Nest.Stmts)
      for (const Reference &R : St.Reads)
        ReadsWritten |= Written.count(R.Array) != 0;
    if (!ReadsWritten)
      return;
    PhaseTimers::Scope S(NA.Timers, phase::Dependences);
    std::vector<const Relation *> Iters;
    for (size_t J = 0; J != Nest.Stmts.size(); ++J)
      Iters.push_back(NA.CPs[J].Replicated ? nullptr
                                           : &NA.GroupIters[NA.Groups[J]]);
    unsigned V = effectiveVectorizeLevel(Nest);
    unsigned Need =
        placementLevelFor(crossProcessorFlow(Ctx.MB, Nest, Iters), V,
                          static_cast<unsigned>(Nest.Loops.size()));
    if (Need != V)
      NA.NeededLevel = Need;
  }

  void dump(const CompileContext &Ctx, std::ostream &OS) const override {
    static const char *const Tags[] = {"nlwo", "local", "nonlocal"};
    for (size_t I = 0; I != Ctx.Nests.size(); ++I) {
      const ComputeNest &Nest = *Ctx.Nests[I];
      const NestAnalysis &NA = Ctx.NestAnalyses[I];
      OS << "nest " << Nest.Name << ": order (";
      for (size_t K = 0; K != NA.LoopOrder.size(); ++K)
        OS << (K ? "," : "") << Nest.Loops[NA.LoopOrder[K]].Var;
      OS << ")" << (NA.OrderRefused ? ", storage order refused" : "")
         << (NA.SplitRefused ? ", split refused" : "");
      if (NA.NeededLevel)
        OS << ", needs vectorize " << NA.NeededLevel;
      OS << "\n";
      if (NA.HasDep)
        OS << "  dep = " << NA.Dep.toString() << "\n";
      for (size_t K = 0; K != NA.SplitPieces.size(); ++K)
        if (!NA.SplitPieces[K].empty())
          OS << "  " << Tags[K] << ": " << NA.SplitPieces[K].size()
             << " exact pieces\n";
    }
  }
};

//===----------------------------------------------------------------------===//
// VPPass: the busy virtual-processor union (Figure 6)
//===----------------------------------------------------------------------===//

class VPPass : public Pass {
public:
  const char *name() const override { return "vp"; }

  void run(CompileContext &Ctx) override {
    Ctx.forEachNest([&](size_t I) {
      NestAnalysis &NA = Ctx.NestAnalyses[I];
      obs::TraceSpan Span(&obs::TraceBuffer::global(),
                          "vp:" + Ctx.Nests[I]->Name, "compile.nest");
      for (const CPInfo &CP : NA.CPs) {
        if (CP.Replicated)
          continue;
        Relation D = CP.CPMap.domain();
        NA.BusyVP = NA.AnyBusy ? NA.BusyVP.unionWith(D) : D;
        NA.AnyBusy = true;
      }
      if (NA.AnyBusy)
        NA.BusyVP = NA.BusyVP.simplify().coalesce();
    });
  }

  void dump(const CompileContext &Ctx, std::ostream &OS) const override {
    for (size_t I = 0; I != Ctx.Nests.size(); ++I) {
      const NestAnalysis &NA = Ctx.NestAnalyses[I];
      OS << "nest " << Ctx.Nests[I]->Name << ": busy VPs = "
         << (NA.AnyBusy ? NA.BusyVP.toString() : "(all replicated)") << "\n";
    }
  }
};

} // namespace

std::unique_ptr<Pass> core::createPartitionPass() {
  return std::make_unique<PartitionPass>();
}
std::unique_ptr<Pass> core::createCommPass() {
  return std::make_unique<CommPass>();
}
std::unique_ptr<Pass> core::createSplitPass() {
  return std::make_unique<SplitPass>();
}
std::unique_ptr<Pass> core::createDepPass() {
  return std::make_unique<DepPass>();
}
std::unique_ptr<Pass> core::createVPPass() {
  return std::make_unique<VPPass>();
}
