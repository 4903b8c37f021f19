//===- spmd/Bytecode.h - Postfix bytecode for generated expressions -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact postfix instruction set for the integer expressions of
/// generated SPMD code. The tree interpreter walks shared_ptr `cg::Expr`
/// nodes for every loop bound, guard and subscript; the bytecode engine
/// compiles each expression once, at plan-build time, into a flat vector of
/// instructions evaluated on a register file (the per-processor environment
/// vector) and a small scratch stack.
///
/// Compilation folds constants aggressively: slots whose values are fixed
/// for the whole run (program parameters, processor extents, the B$ block
/// sizes of the virtual-processor layouts) are resolved through a SlotConsts
/// map, so symbolic block sizes become literal constants. That in turn
/// enables the strength reductions that matter for the block-layout forms of
/// Section 4: floordiv/ceildiv/mod by a power of two become an arithmetic
/// shift or mask, and constant-by-variable products become a single MulK.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_BYTECODE_H
#define DHPF_SPMD_BYTECODE_H

#include "cg/Expr.h"
#include "hpf/ValueExpr.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dhpf {
namespace spmd {
namespace bc {

enum class Op : uint8_t {
  PushK,        // push K
  PushVar,      // push Regs[A]
  PushVarK,     // push Regs[A] + K (fused leading term of a sum)
  Add,          // pop b, a; push a + b
  AddK,         // top += K
  Mul,          // pop b, a; push a * b
  MulK,         // top *= K
  FloorDivK,    // top = floorDiv(top, K), K > 0
  FloorDivPow2, // top >>= A (arithmetic shift; K == 1 << A)
  CeilDivK,     // top = ceilDiv(top, K), K > 0
  CeilDivPow2,  // top = (top + K - 1) >> A
  ModK,         // top = floorMod(top, K), K > 0
  ModPow2,      // top &= K - 1 (two's-complement floorMod for K == 1 << A)
  FloorDiv,     // pop b, a; push floorDiv(a, b)
  Mod,          // pop b, a; push floorMod(a, b)
  Min,          // pop b, a; push min(a, b)
  Max,          // pop b, a; push max(a, b)
};

struct Insn {
  Op O = Op::PushK;
  uint32_t A = 0; // register slot, or shift amount for the Pow2 forms
  int64_t K = 0;  // immediate
};

/// One compiled expression. Evaluation needs a register file indexed by
/// variable slot and a scratch stack of at least depth() entries.
class Prog {
public:
  int64_t eval(const int64_t *Regs, int64_t *Stack) const;

  bool isConst() const {
    return Code.size() == 1 && Code[0].O == Op::PushK;
  }
  int64_t constVal() const { return Code[0].K; }
  unsigned depth() const { return Depth; }
  const std::vector<Insn> &code() const { return Code; }

  std::vector<Insn> Code;
  unsigned Depth = 0;
};

/// A double-valued expression (hpf::ValueExpr), flattened to postfix: the
/// bytecode engine's statement bodies and accumulator operands, and every
/// engine's initial values. The operations and their order are the tree's
/// exactly; nothing is folded.
enum class VOp : uint8_t {
  PushK,     // push K
  PushRead,  // push Reads[A]
  PushValue, // push the value just computed
  PushIndex, // push Idx[A] as a double
  Neg,       // top = -top
  Add,       // pop b, a; push a + b (Sub, Mul, Div alike)
  Sub,
  Mul,
  Div,
  Abs,       // top = fabs(top)
  Min,       // pop b, a; push std::min(a, b)
  Max,       // pop b, a; push std::max(a, b)
  Sin,       // top = sin(top)
  Cos,
};

struct VInsn {
  VOp O = VOp::PushK;
  uint32_t A = 0;
  double K = 0;
};

/// An operand of ValueProg::evalRun: \p P[0 .. Len) when Vec, else the one
/// value *P every element of the run shares.
struct RunVal {
  const double *P = nullptr;
  bool Vec = false;
};

class ValueProg {
public:
  /// \p Stack needs depth() entries.
  double eval(const double *Reads, double Value, const int64_t *Idx,
              double *Stack) const;
  /// eval over a run of \p Len elements that share every index but the
  /// first, which counts up from Idx[0], one instruction at a time over
  /// the whole run; the results go to \p Out[0 .. Len). Read k is
  /// \p Reads[k]; the program reads no Value. Every element sees eval's
  /// operations on the same operand bits. \p Buf needs depth() * (Len + 1)
  /// entries.
  void evalRun(const RunVal *Reads, const int64_t *Idx, int64_t Len,
               double *Out, double *Buf) const;
  unsigned depth() const { return Depth; }

  std::vector<VInsn> Code;
  unsigned Depth = 0;
};

ValueProg compileValue(const hpf::ValueExpr &E);

/// An init value split for seeding by tables (DESIGN.md §7). A term is a
/// maximal non-leaf subtree that reads at most one index: a seeder
/// evaluates it once per index value along that dimension. The residual is
/// the rest of the tree, with Read k standing for term k's value.
struct SeedProg {
  struct Term {
    ValueProg Prog;
    int Dim = -1; ///< the index the term reads; -1 when it reads none
  };
  std::vector<Term> Terms;
  ValueProg Residual;
};

/// Splits the init value \p E (no Read or Value leaves) into a SeedProg.
SeedProg compileSeed(const hpf::ValueExpr &E);

/// Slots with run-constant values, resolved during compilation.
using SlotConsts = std::unordered_map<unsigned, int64_t>;

/// Compiles \p E, folding every subtree whose leaves are constants or
/// slots present in \p Fixed.
Prog compileExpr(const cg::Expr &E, const SlotConsts &Fixed);

} // namespace bc
} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_BYTECODE_H
