//===- spmd/Serialize.h - SPMD program round-trip serialization ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A canonical textual form for compiled SPMD programs, so compilation and
/// execution can run in separate processes (dhpfc compile -> .spmd file ->
/// dhpfc run). serializeSpmdProgram renders every component — the variable
/// table, compiled statements with their bodies and accumulator clauses,
/// communication events (loop ASTs and the compile-time in-place verdict),
/// and the node tree — as a single s-expression, and embeds the mini-HPF
/// source text (via printHpfProgram) because the interpreter rebuilds
/// layouts, array extents and initial values from it. No relation is
/// serialized: a run needs none. parseSpmdProgram reads the form back; the
/// reparsed program executes bit-identically to the in-memory original.
/// The form is version 3 (`(spmd 3`); an older version is refused.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_SERIALIZE_H
#define DHPF_SPMD_SERIALIZE_H

#include "spmd/SpmdProgram.h"
#include "support/Diag.h"

#include <memory>
#include <string>

namespace dhpf {
namespace spmd {

/// Renders \p P in the canonical textual form. Serialization requires
/// P.Source (set by the compiler) for the embedded program text.
std::string serializeSpmdProgram(const SpmdProgram &P);

/// Parses a serialized program, reporting malformed input into \p Diags
/// with line:col locations (works identically in Debug and Release
/// builds). Returns null on failure. On success the result owns its
/// source program.
std::unique_ptr<SpmdProgram>
parseSpmdProgram(const std::string &Text, DiagnosticEngine &Diags,
                 const std::string &FileName = "<spmd>");

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_SERIALIZE_H
