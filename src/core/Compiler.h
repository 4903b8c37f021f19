//===- core/Compiler.h - The dHPF-style compiler driver ------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver: runs the set-based analyses over a mini-HPF program
/// and produces a compiled SPMD node program. Phases (timed for the Table 1
/// reproduction):
///
///   - interprocedural analysis (array access summaries)
///   - partitioning computation (CPMap construction, statement grouping)
///   - loop splitting (Figure 4)
///   - loop bounds reduction (partitioned-loop code generation)
///   - communication generation (Figure 3 equations, pack/unpack and
///     partner loops, contiguity and rectangular-section checks)
///   - optimization of generated code (AST cleanup post-pass)
///
/// Every code-generation problem goes through the multiple-mappings Codegen
/// operation, whose cumulative time is reported separately (the paper's
/// "mult mappings code generation" row).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMPILER_H
#define DHPF_CORE_COMPILER_H

#include "hpf/Maps.h"
#include "pset/OpCache.h"
#include "spmd/SpmdProgram.h"
#include "support/Timer.h"

#include <memory>
#include <string>

namespace dhpf {
namespace core {

struct CompilerOptions {
  /// Apply non-local index-set splitting (Figure 4) to overlap
  /// communication with computation and avoid buffer-access checks.
  bool LoopSplitting = true;
  /// Coalesce communication for references to the same array into one
  /// logical event (Figure 3's unified formulation).
  bool Coalescing = true;
  /// Run the Section 3.3 in-place (contiguity) analysis per event.
  bool InPlaceAnalysis = true;
  /// Use the Section 5 formulation that combines DataAccessed before the
  /// per-reference equations (ablation: the naive per-reference form).
  bool CombinedFormulation = true;
  /// Scan each compute nest in storage order and a split section that is
  /// a union as exact disjoint pieces, wherever the nest's dependence
  /// relation admits it (core/Dependence.h). Off keeps source loop order
  /// and guarded hulls, for tests and ablations; splits are checked
  /// against the dependences either way.
  bool ReorderLoops = true;
  /// Workers for the per-nest analyses (partitioning, communication
  /// equations, loop splitting): 1 runs them sequentially, 0 selects the
  /// hardware concurrency. Emission stays sequential, so the compiled
  /// program is identical for any thread count.
  unsigned AnalysisThreads = 0;
  /// Comma-separated pass names (or "all") whose state is dumped to
  /// stderr right after they run; empty disables dumping. See
  /// CompilerDriver.
  std::string DumpAfter;
};

/// Phase names used in the timing report (Table 1 rows).
namespace phase {
inline const char *Total = "total compilation";
inline const char *Interproc = "interprocedural analysis";
inline const char *Partitioning = "partitioning computation";
inline const char *LoopSplitting = "loop splitting";
inline const char *Dependences = "dependence analysis";
inline const char *BoundsReduction = "loop bounds reduction";
inline const char *CommGeneration = "communication generation";
inline const char *CommEquations = "  comm set equations";
inline const char *CommLoops = "  loops to pack/unpack + partners";
inline const char *ContigCheck = "  check if msg is contiguous";
inline const char *RectCheck = "  check if msg is rect section";
inline const char *OptGenerated = "opt of generated code";
inline const char *MMCodegen = "mult mappings code generation";
} // namespace phase

struct CompileOutput {
  spmd::SpmdProgram Program;
  PhaseTimers Timers;
  unsigned NumCommEvents = 0;
  unsigned NumContiguousProven = 0;
  unsigned NumRectSections = 0;
  unsigned NumSplitNests = 0;
  /// Splits refused because a dependence would run backwards.
  unsigned NumSplitRefused = 0;
  /// Nests scanned in a loop order other than the source's, and nests
  /// whose storage order the dependences refused (they keep a fallback
  /// or the source order).
  unsigned NumPermutedNests = 0;
  unsigned NumOrderRefused = 0;
  /// Split sections emitted as exact disjoint pieces, and those pieces.
  unsigned NumExactSections = 0;
  unsigned NumExactPieces = 0;
  unsigned NodesRemovedByOpt = 0;
  /// Set-operation cache and fast-path activity during this compile
  /// (delta of the process-wide counters over the run).
  pset::CacheStats Cache;
  /// Number of analysis threads used (1 = sequential).
  unsigned ThreadsUsed = 1;
};

/// True if set \p S provably equals the cross product of its per-dimension
/// projections (a "rectangular section" in the Table 1 row's sense).
bool isRectSectionProven(const Relation &S);

/// Compiles \p P into an SPMD node program.
std::unique_ptr<CompileOutput> compileProgram(const hpf::Program &P,
                                              CompilerOptions Opts = {});

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMPILER_H
