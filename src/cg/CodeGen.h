//===- cg/CodeGen.h - Loop-nest generation from integer sets -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates loop nests that enumerate integer sets: the paper's
/// Codegen(S1..Sv | Known) operation (Appendix B), after Kelly, Pugh and
/// Rosser's multiple-mappings code generation. Given the iteration sets of
/// v statements over a common loop space, it synthesizes a shared loop nest
/// that enumerates the union of tuples in lexicographic order, executing
/// statement j before statement k (j < k) for equal tuples; per-statement
/// membership is enforced by bounds when possible and guards otherwise.
///
/// Differences from full KPR (documented in DESIGN.md): guards that differ
/// across statements are attached to the statements rather than used to
/// split loop ranges, so no code is replicated; the \p Known set prunes
/// parameter-only conditions.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CG_CODEGEN_H
#define DHPF_CG_CODEGEN_H

#include "cg/Ast.h"
#include "pset/Relation.h"

#include <string>
#include <vector>

namespace dhpf {
namespace cg {

/// One statement to be enumerated: its iteration set and identity.
struct StmtInstance {
  int LeafId = 0;
  std::string Label;
  Relation Iters; // a set whose rank equals the loop-variable count
};

/// Generates loop nests from integer sets. The VarTable assigns environment
/// slots shared with the interpreter: parameters and loop variables are
/// registered by name.
class CodeGen {
public:
  explicit CodeGen(VarTable &Vars) : Vars(Vars) {}

  /// The paper's Codegen(S1..Sv | Known): emits a loop nest over
  /// \p LoopVars enumerating every statement's set in lexicographic order.
  /// \p Known (may be null) is a rank-0 set of parameter constraints
  /// guaranteed true in the enclosing scope; implied conditions are pruned.
  AstPtr codegen(const std::vector<StmtInstance> &Stmts,
                 const std::vector<std::string> &LoopVars,
                 const Relation *Known = nullptr);

  /// Convenience wrapper for a single set.
  AstPtr codegenSet(const Relation &S, const std::vector<std::string> &LoopVars,
                    int LeafId = 0, const std::string &Label = "",
                    const Relation *Known = nullptr);

  /// Generates one loop nest per conjunct of \p S, concatenated in a block
  /// — the strategy the paper's MM-CODEGEN applies to disjunctive sets
  /// ("computes disjoint disjunctive form and then generates separate code
  /// for each of the resulting terms"). Each nest gets exact bounds instead
  /// of a shared hull with membership guards, avoiding hull-sized scans for
  /// sparse unions (communication sets). Tuples in overlapping conjuncts
  /// are visited once per conjunct; callers must tolerate or deduplicate.
  AstPtr codegenSetPerConjunct(const Relation &S,
                               const std::vector<std::string> &LoopVars,
                               int LeafId = 0, const std::string &Label = "",
                               const Relation *Known = nullptr);

  VarTable &vars() { return Vars; }

private:
  VarTable &Vars;
};

} // namespace cg
} // namespace dhpf

#endif // DHPF_CG_CODEGEN_H
