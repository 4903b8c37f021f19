//===- rt/Session.cpp - Shared program/semantics resolution --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Session.h"

#include "hpf/HpfPrinter.h"
#include "placement/Placement.h"

#include <cmath>
#include <set>

using namespace dhpf;
using namespace dhpf::rt;

namespace {

/// Fallback semantics for programs with no registered benchmark: a
/// deterministic function of the values read, plus a deterministic array
/// initialization, so any valid .hpf input is runnable end to end.
void genericSetup(spmd::Interpreter &I, const spmd::SpmdProgram &SP) {
  std::set<int> Sems;
  for (const spmd::CompiledStmt &S : SP.Stmts)
    if (S.SemanticsId >= 0)
      Sems.insert(S.SemanticsId);
  for (int Id : Sems)
    I.setSemantics(Id, [](const std::vector<double> &Reads,
                          const std::vector<int64_t> &, spmd::AccumMap &) {
      double V = 1.0;
      for (double R : Reads)
        V += 0.25 * R;
      return V;
    });
  if (!SP.Source)
    return;
  for (const auto &A : SP.Source->arrays())
    I.initArray(A.first, [](const std::vector<int64_t> &Idx) {
      double V = 0.5;
      for (int64_t X : Idx)
        V = V * 1.9 + 0.3 * static_cast<double>(X);
      return std::sin(V);
    });
}

} // namespace

void Session::setup(const spmd::SpmdProgram &SP,
                    spmd::Interpreter &I) const {
  if (Reg && Canonical) {
    apps::AppInstance App = Reg->MakeCanonical();
    App.Setup(I);
  } else {
    genericSetup(I, SP);
  }
}

std::optional<Session> rt::resolveSession(const spmd::SpmdProgram &SP,
                                          const SessionOptions &Opts,
                                          std::string &Err) {
  Session S;
  S.ProgName = SP.Source ? SP.Source->name() : "<unknown>";
  S.Config.Params = Opts.Params;
  S.Config.CheckValidity = Opts.CheckValidity;
  S.Reg = apps::findApp(S.ProgName);
  if (S.Reg) {
    apps::AppInstance App = S.Reg->MakeCanonical();
    S.Canonical = SP.Source && hpf::printHpfProgram(*App.Prog) ==
                                   hpf::printHpfProgram(*SP.Source);
  }

  // Processor-array extents: an explicit --procs wins; otherwise map -p
  // onto the benchmark's grid, or put all processors on the first
  // symbolic dimension.
  bool AnySymbolic = false;
  for (const hpf::VPDimInfo &D : SP.ProcDims)
    AnySymbolic |= !D.ProcSym.empty();
  S.Shape = Opts.ProcShape;
  if (S.Shape.empty() && AnySymbolic && Opts.UsePlacement) {
    // Cost-model placement: price every factorization of the requested
    // processor count by its comm-set traffic and take the cheapest.
    S.Shape = placement::bestShape(SP, Opts.NumProcs, Opts.Params);
    if (S.Shape.empty()) {
      Err = "placement found no shape laying " +
            std::to_string(Opts.NumProcs) + " processors onto the '" +
            S.ProgName + "' grid";
      return std::nullopt;
    }
  }
  if (S.Shape.empty() && AnySymbolic) {
    if (S.Reg) {
      S.Shape = S.Reg->ProcShape(Opts.NumProcs);
      if (S.Shape.empty()) {
        Err = "cannot map " + std::to_string(Opts.NumProcs) +
              " processors onto the '" + S.ProgName + "' grid";
        return std::nullopt;
      }
    } else {
      bool First = true;
      for (const hpf::VPDimInfo &D : SP.ProcDims) {
        if (D.ProcSym.empty())
          S.Shape.push_back(D.ProcFixed);
        else {
          S.Shape.push_back(First ? Opts.NumProcs : 1);
          First = false;
        }
      }
    }
  }
  if (!S.Shape.empty()) {
    if (S.Shape.size() != SP.ProcDims.size()) {
      Err = "processor shape has " + std::to_string(S.Shape.size()) +
            " extents but '" + SP.ProcName + "' has " +
            std::to_string(SP.ProcDims.size()) + " dimensions";
      return std::nullopt;
    }
    S.Config.ProcExtents[SP.ProcName] = S.Shape;
  }
  return S;
}
