//===- core/CompilerDriver.h - Pass-pipeline compiler driver -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver that owns a CompileContext and sequences the pass pipeline
///
///   PartitionPass -> CommPass -> SplitPass -> DepPass -> VPPass -> EmitPass
///
/// over it. Construct with an optional DiagnosticEngine to get structural
/// validation of the input program (undeclared arrays, rank mismatches)
/// reported as recoverable diagnostics instead of assertion failures; with
/// diagnostics attached, run() returns null when validation fails.
///
/// Per-pass IR dumps: set CompilerOptions::DumpAfter to a comma-separated
/// list of pass names (or "all") and each named pass renders its state —
/// relations in the set syntax, the SPMD program after emit — to stderr
/// right after it runs.
///
/// compileProgram (core/Compiler.h) remains as a thin wrapper over this
/// driver for trusted builder-API input.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMPILERDRIVER_H
#define DHPF_CORE_COMPILERDRIVER_H

#include "core/CompileContext.h"

#include <memory>
#include <vector>

namespace dhpf {
namespace core {

class CompilerDriver {
public:
  /// \p Diags, when non-null, receives validation and driver diagnostics
  /// and must outlive the driver.
  CompilerDriver(const hpf::Program &P, CompilerOptions Opts = {},
                 DiagnosticEngine *Diags = nullptr);

  /// Runs the full pipeline. Returns null iff validation failed (only
  /// possible when a DiagnosticEngine was attached; the errors are in it)
  /// or a pass refused the program (a flow dependence that communication
  /// placement cannot serve; reported when one is attached).
  std::unique_ptr<CompileOutput> run();

  /// The pipeline's pass names in order (the values -dump-after accepts).
  static std::vector<std::string> passNames();

private:
  CompileContext Ctx;
  std::unique_ptr<CompileOutput> Out;
};

/// Structural validation of a program (builder- or parser-produced):
/// every referenced array is declared with matching rank, alignments and
/// distributions are well-formed, statement ids are consistent, and every
/// write, read and ON_HOME subscript stays inside its array's declared
/// bounds over the whole iteration space (checked with the set engine).
/// Reports into \p Diags; returns true when no new errors were added.
bool validateProgram(const hpf::Program &P, DiagnosticEngine &Diags);

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMPILERDRIVER_H
