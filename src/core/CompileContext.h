//===- core/CompileContext.h - Shared state of the pass pipeline ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler is structured as an explicit pass pipeline over a shared
/// CompileContext:
///
///   PartitionPass -> CommPass -> SplitPass -> DepPass -> VPPass -> EmitPass
///
/// The five analysis passes fill per-nest NestAnalysis records — each nest
/// independent of the others, so every analysis pass runs its nests on a
/// thread pool — and EmitPass consumes them strictly in program order, so
/// the compiled SPMD program is independent of the analysis schedule. The
/// CompilerDriver (core/CompilerDriver.h) owns the context, sequences the
/// passes, and renders per-pass IR dumps (-dump-after=<pass>).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMPILECONTEXT_H
#define DHPF_CORE_COMPILECONTEXT_H

#include "core/Comm.h"
#include "core/Compiler.h"
#include "core/LoopSplit.h"
#include "core/Partition.h"
#include "support/Diag.h"
#include "support/ThreadPool.h"

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

namespace dhpf {
namespace core {

/// One planned communication event during nest compilation.
struct EventPlan {
  CommEventInput In;
  CommSets CS;
  bool IsWrite = false;
  bool Communicates = false;
  int EventId = -1;
};

/// Everything about one compute nest that can be derived without touching
/// shared compiler state. Filled field-by-field by the analysis passes —
/// possibly on worker threads — and consumed sequentially by EmitPass.
struct NestAnalysis {
  // PartitionPass
  std::vector<CPInfo> CPs;
  std::vector<unsigned> Groups;
  std::vector<Relation> GroupIters; // per group, bound to mv*
  // CommPass
  std::vector<EventPlan> Plans;
  // SplitPass (DepPass may refuse the split)
  bool DoSplit = false;
  SplitSets SS;
  // DepPass
  /// The order EmitPass scans the loops in: source indices, outermost
  /// first.
  std::vector<unsigned> LoopOrder;
  /// Per split section in schedule order (nlwo, local, nonlocal), the
  /// disjoint pieces scanned instead of the section's hull; empty: the
  /// hull.
  std::array<std::vector<Relation>, 3> SplitPieces;
  bool HasDep = false; ///< Dep was computed
  Relation Dep;        ///< the dependence relation (core/Dependence.h)
  bool OrderRefused = false;
  bool SplitRefused = false;
  /// The communication level a flow dependence across processors needs,
  /// when it is deeper than the nest's own (the program is refused).
  unsigned NeededLevel = 0;
  // VPPass
  Relation BusyVP;
  bool AnyBusy = false;
  /// Private per-nest timers, merged into the context total in nest order.
  PhaseTimers Timers;
};

/// Everything the passes share. Owned by the CompilerDriver for one
/// compilation.
struct CompileContext {
  const hpf::Program &P;
  CompilerOptions Opts;
  hpf::MapBuilder MB;
  /// Optional diagnostics sink; when null, driver-level validation is
  /// skipped (trusted builder-API input).
  DiagnosticEngine *Diags = nullptr;
  CompileOutput *Out = nullptr;
  spmd::SpmdProgram *SP = nullptr;
  PhaseTimers *T = nullptr;
  /// Compute nests in the order EmitPass visits them (SeqLoop bodies
  /// recursed in place), with their analyses at matching indices.
  std::vector<const hpf::ComputeNest *> Nests;
  std::vector<NestAnalysis> NestAnalyses;
  /// Worker count for the analysis passes (1 = sequential).
  unsigned Threads = 1;
  /// Shared worker pool for the analysis passes (null = sequential).
  std::unique_ptr<ThreadPool> Pool;
  /// A pass refused the program (reported into Diags when there is one);
  /// the driver stops and returns no output.
  bool Refused = false;

  CompileContext(const hpf::Program &P, CompilerOptions Opts)
      : P(P), Opts(std::move(Opts)), MB(P) {}

  /// Runs \p Fn(I) for every nest index, on the context's thread pool when
  /// profitable. Results must not depend on the schedule.
  void forEachNest(const std::function<void(size_t)> &Fn);
};

/// One pipeline stage.
class Pass {
public:
  virtual ~Pass() = default;
  /// The stable name used by -dump-after=<name>.
  virtual const char *name() const = 0;
  virtual void run(CompileContext &Ctx) = 0;
  /// Renders this pass's per-nest results (relations in the set syntax).
  virtual void dump(const CompileContext &Ctx, std::ostream &OS) const;
};

std::unique_ptr<Pass> createPartitionPass();
std::unique_ptr<Pass> createCommPass();
std::unique_ptr<Pass> createSplitPass();
std::unique_ptr<Pass> createDepPass();
std::unique_ptr<Pass> createVPPass();
std::unique_ptr<Pass> createEmitPass();

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMPILECONTEXT_H
