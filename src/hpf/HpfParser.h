//===- hpf/HpfParser.h - Textual front end for the mini-HPF IR -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small line-oriented surface syntax for mini-HPF programs, so compiler
/// inputs can be written as text (examples, tests, fuzzing) instead of only
/// through the builder API. One declaration or statement per line; '!'
/// starts a comment. Keywords:
///
///   program <name>
///   param <name>...
///   processors <name>(<extent|*sym>, ...)
///   template <name>(<lo>:<hi>, ...)
///   array <name>(<lo>:<hi>, ...) [align (<i>,<j>,..) with T(<expr>|*,..)]
///       [init (<i>,<j>,..) <value>]
///   distribute <T>(block|cyclic|cyclic(k)|*, ...) onto <P>
///   procedure <name> ... endprocedure
///   timeloop <var> = <lo>, <hi> ... endloop
///   nest <name> [vectorize <level>]
///     do <var> = <lo-expr>, <hi-expr>
///     <W>(<subs>) = <value> [onhome <A>(<subs>)] [cost <c>]
///         [accum sum|max <reduce-name> <value>]
///   endnest
///   reduce sum|max|maxloc <name> [elems <n>]
///
/// Bound and subscript expressions are affine over loop variables and
/// parameters: terms like `2*i`, `i+1`, `N-1`, `pv+1`, constants.
///
/// Values are double-valued (ValueExpr.h): decimal literals (`0.25`,
/// `1e-3`), `+ - * /`, unary `-`, parentheses, and `abs`, `min`, `max`;
/// an init value may also call `sin` and `cos`. A statement's value reads
/// array references, `0.25*(U(i-1,j) + U(i+1,j))`, which become its reads
/// in order of first appearance; inside the accum clause the statement's
/// written reference stands for the value just computed, and the name
/// must be a reduce of the enclosing procedure. An init value reads its
/// index names: `init (i,j) sin(0.05*i) + cos(0.07*j)`. Arrays without
/// one start at 0.
///
/// Malformed input is rejected with recoverable, source-located
/// diagnostics (file:line:col) in Debug and Release builds alike: a bad
/// line is reported and the parser resynchronizes at the next line, so one
/// invocation surfaces every error in the input.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_HPF_HPFPARSER_H
#define DHPF_HPF_HPFPARSER_H

#include "hpf/Program.h"
#include "support/Diag.h"

#include <memory>
#include <string>

namespace dhpf {
namespace hpf {

/// Parses the textual syntax above into a Program, reporting malformed
/// input into \p Diags (locations use \p FileName). Fails — after scanning
/// the whole input for further diagnostics — iff any error was reported.
Expected<std::unique_ptr<Program>>
parseHpfProgram(const std::string &Text, DiagnosticEngine &Diags,
                const std::string &FileName = "<hpf>");

/// Convenience wrapper for trusted input (tests, examples): prints any
/// diagnostics to stderr and aborts on malformed input — unconditionally,
/// not via assert(), so Release builds reject bad input identically.
std::unique_ptr<Program> parseHpfProgram(const std::string &Text);

/// One statement line in the syntax above, for the builder API (trusted
/// input: aborts like the wrapper above). Arrays and reduce names are
/// checked when the program is validated (core::validateProgram).
Statement parseStatement(const std::string &Text);

/// An initial value, "(<i>,<j>,..) <value>", for the builder API (trusted).
ValueExpr parseInit(const std::string &Text);

} // namespace hpf
} // namespace dhpf

#endif // DHPF_HPF_HPFPARSER_H
