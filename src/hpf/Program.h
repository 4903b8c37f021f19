//===- hpf/Program.h - Mini-HPF program model ----------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input IR of the compiler: a miniature HPF program. It carries the
/// pieces the paper's analyses consume — PROCESSORS arrays (with fixed or
/// symbolic extents), TEMPLATEs, arrays with ALIGN directives, DISTRIBUTE
/// directives (*, BLOCK, CYCLIC, CYCLIC(k)), and a sequence of phases:
/// perfect loop nests whose statements make affine references and carry
/// ON_HOME computation partitionings, global reductions, and sequential
/// (time-step) loops.
///
/// Statements carry their arithmetic (ValueExpr.h): a right-hand side over
/// the statement's reads, an optional accumulator clause feeding a
/// reduction, and arrays an optional initial value, so every program runs
/// its own computation on every engine. The benchmark applications in
/// src/apps construct programs with the builder API here, writing
/// statements and initial values in the textual syntax (HpfParser.h).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_HPF_PROGRAM_H
#define DHPF_HPF_PROGRAM_H

#include "hpf/ValueExpr.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dhpf {
namespace hpf {

/// A linear expression over named loop variables and symbolic parameters:
/// K + sum(Coef * Name). Names are resolved against enclosing loop
/// variables first, then registered as parameters.
struct AffineExpr {
  int64_t K = 0;
  std::vector<std::pair<std::string, int64_t>> Terms;

  AffineExpr() = default;
  AffineExpr(int64_t Konst) : K(Konst) {} // implicit: plain constants
  AffineExpr(int Konst) : K(Konst) {}     // disambiguates literal 0
  AffineExpr(const std::string &Name, int64_t Coef = 1, int64_t Konst = 0)
      : K(Konst) {
    Terms.push_back({Name, Coef});
  }
  AffineExpr(const char *Name) : AffineExpr(std::string(Name)) {}

  AffineExpr operator+(const AffineExpr &O) const {
    AffineExpr R = *this;
    R.K += O.K;
    for (auto &T : O.Terms)
      R.Terms.push_back(T);
    return R;
  }
  AffineExpr operator+(int64_t C) const {
    AffineExpr R = *this;
    R.K += C;
    return R;
  }
  AffineExpr operator-(int64_t C) const { return *this + (-C); }
  AffineExpr operator-(const AffineExpr &O) const {
    AffineExpr R = *this;
    R.K -= O.K;
    for (auto &T : O.Terms)
      R.Terms.push_back({T.first, -T.second});
    return R;
  }
};

/// An inclusive index range with affine bounds (e.g. 1..N or 0..99).
struct DimRange {
  AffineExpr Lo, Hi;
};
inline DimRange range(AffineExpr Lo, AffineExpr Hi) {
  return {std::move(Lo), std::move(Hi)};
}

/// PROCESSORS array: each dimension's extent is a positive constant or a
/// symbolic parameter (unknown number of processors, paper Section 4).
struct ProcArray {
  std::string Name;
  struct Dim {
    int64_t Fixed = 0;  // > 0 when the extent is a compile-time constant
    std::string Symbol; // parameter name when symbolic
    bool isSymbolic() const { return Fixed == 0; }
  };
  std::vector<Dim> Dims;
  unsigned rank() const { return Dims.size(); }
};

/// TEMPLATE declaration.
struct TemplateDecl {
  std::string Name;
  std::vector<DimRange> Dims;
  unsigned rank() const { return Dims.size(); }
};

/// Distribution of one template dimension.
struct DistSpec {
  enum class Kind : uint8_t { Star, Block, Cyclic, CyclicK };
  Kind K = Kind::Star;
  int64_t BlockK = 0; // for CyclicK
};
inline DistSpec distStar() { return {DistSpec::Kind::Star, 0}; }
inline DistSpec distBlock() { return {DistSpec::Kind::Block, 0}; }
inline DistSpec distCyclic() { return {DistSpec::Kind::Cyclic, 0}; }
inline DistSpec distCyclicK(int64_t K) { return {DistSpec::Kind::CyclicK, K}; }

/// DISTRIBUTE directive: template onto a processor array. The number of
/// non-Star entries must equal the processor array rank.
struct Distribute {
  std::string TemplateName;
  std::string ProcName;
  std::vector<DistSpec> Specs; // one per template dimension
};

/// One template-dimension position of an ALIGN directive.
struct AlignTerm {
  enum class Kind : uint8_t { ArrayDim, Constant, Replicated };
  Kind K = Kind::ArrayDim;
  unsigned ArrayDim = 0; // for ArrayDim: t = Stride*a(ArrayDim) + Offset
  int64_t Stride = 1;
  int64_t Offset = 0;
  int64_t Constant = 0; // for Constant
};
inline AlignTerm alignDim(unsigned ArrayDim, int64_t Stride = 1,
                          int64_t Offset = 0) {
  AlignTerm T;
  T.K = AlignTerm::Kind::ArrayDim;
  T.ArrayDim = ArrayDim;
  T.Stride = Stride;
  T.Offset = Offset;
  return T;
}
inline AlignTerm alignConst(int64_t C) {
  AlignTerm T;
  T.K = AlignTerm::Kind::Constant;
  T.Constant = C;
  return T;
}
inline AlignTerm alignStar() {
  AlignTerm T;
  T.K = AlignTerm::Kind::Replicated;
  return T;
}

/// ALIGN directive: array with template.
struct Align {
  std::string ArrayName;
  std::string TemplateName;
  std::vector<AlignTerm> Terms; // one per template dimension
};

/// Array declaration (distributed via its Align, or fully replicated when
/// it has none).
struct ArrayDecl {
  std::string Name;
  std::vector<DimRange> Dims;
  unsigned ElemBytes = 8;
  /// The initial value over the index variables (Index d is subscript d);
  /// every element is 0 without one.
  std::optional<ValueExpr> Init;
  unsigned rank() const { return Dims.size(); }
};

/// An array reference with affine subscripts over loop variables/params.
struct Reference {
  std::string Array;
  std::vector<AffineExpr> Subs;
};
inline Reference ref(std::string Array, std::vector<AffineExpr> Subs) {
  return {std::move(Array), std::move(Subs)};
}

/// A statement's accumulator clause: after each instance the executing
/// processor folds Operand into its copy of the reduction variable Name
/// (Sum: acc + v; Max: std::max(acc, v)).
struct Accumulate {
  enum class Op : uint8_t { Sum, Max };
  Op O = Op::Sum;
  std::string Name;
  ValueExpr Operand; ///< over the reads and Value, the value just computed
};

/// One assignment statement inside a loop nest.
struct Statement {
  int Id = -1;           // assigned by the Program builder
  Reference Write;
  /// The distinct array references of Body and then of Acc's operand, in
  /// order of first appearance: the reads the analyses see.
  std::vector<Reference> Reads;
  ValueExpr Body; ///< the right-hand side; Read k is Reads[k]
  std::optional<Accumulate> Acc;
  /// ON_HOME terms; when empty the owner-computes rule applies (the CP is
  /// ON_HOME of the write reference). Paper Section 3.1's general CP model:
  /// a union of arbitrary references.
  std::vector<Reference> OnHome;
  double Cost = 1.0;     // simulator work units per dynamic instance
};

/// A counted loop with affine bounds (step 1).
struct Loop {
  std::string Var;
  AffineExpr Lo, Hi;
};
inline Loop loop(std::string Var, AffineExpr Lo, AffineExpr Hi) {
  return {std::move(Var), std::move(Lo), std::move(Hi)};
}

/// A perfect loop nest with statements in its innermost body.
struct ComputeNest {
  std::string Name; // for diagnostics and timing reports
  std::vector<Loop> Loops;
  std::vector<Statement> Stmts;
  /// Communication placement: loops at depth >= VectorizeLevel may carry
  /// dependences, so messages hoist only out of loops deeper than this
  /// level (0 = hoist out of everything; see Section 3.2).
  unsigned VectorizeLevel = 0;
};

/// A global reduction (paper Section 7's maxloc/convergence reductions).
struct Reduction {
  enum class Op : uint8_t { Sum, Max, MaxLoc };
  Op O = Op::Sum;
  std::string Name;   // reduced scalar/array name (for reports)
  uint64_t Elems = 1; // message payload element count
  double Cost = 1.0;  // local work before combining
};

/// One phase of the (sequentially composed) program.
struct Phase {
  enum class Kind : uint8_t { Nest, Reduce, SeqLoop };
  Kind K = Kind::Nest;
  ComputeNest Nest;   // Kind::Nest
  Reduction Reduce;   // Kind::Reduce
  // Kind::SeqLoop: a replicated sequential loop (e.g. time stepping).
  std::string SeqVar;
  int64_t SeqCount = 0;
  std::vector<Phase> Body;
};

/// A procedure: a named sequence of phases (the NAS SP subject has 30).
struct Procedure {
  std::string Name;
  std::vector<Phase> Phases;
};

/// A complete mini-HPF program.
class Program {
public:
  explicit Program(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  //===------------------------- declarations ----------------------------===//

  void addParam(const std::string &P) { Params.push_back(P); }
  const std::vector<std::string> &params() const { return Params; }

  ProcArray &addProcs(const std::string &N,
                      std::vector<ProcArray::Dim> Dims) {
    ProcArray P;
    P.Name = N;
    P.Dims = std::move(Dims);
    Procs[N] = std::move(P);
    return Procs[N];
  }
  static ProcArray::Dim procDim(int64_t Fixed) { return {Fixed, ""}; }
  static ProcArray::Dim procDimSym(const std::string &S) { return {0, S}; }

  TemplateDecl &addTemplate(const std::string &N, std::vector<DimRange> Dims) {
    TemplateDecl T;
    T.Name = N;
    T.Dims = std::move(Dims);
    Templates[N] = std::move(T);
    return Templates[N];
  }

  ArrayDecl &addArray(const std::string &N, std::vector<DimRange> Dims,
                      unsigned ElemBytes = 8) {
    ArrayDecl A;
    A.Name = N;
    A.Dims = std::move(Dims);
    A.ElemBytes = ElemBytes;
    Arrays[N] = std::move(A);
    return Arrays[N];
  }

  void addAlign(Align A) { Aligns[A.ArrayName] = std::move(A); }
  void addDistribute(Distribute D) {
    Distributes[D.TemplateName] = std::move(D);
  }

  //===--------------------------- structure -----------------------------===//

  Procedure &addProcedure(const std::string &N) {
    Procedures.push_back(Procedure{N, {}});
    return Procedures.back();
  }

  /// Appends a compute-nest phase to \p Proc and numbers its statements.
  ComputeNest &addNest(Procedure &Proc, ComputeNest N) {
    for (Statement &S : N.Stmts)
      S.Id = NextStmtId++;
    Phase Ph;
    Ph.K = Phase::Kind::Nest;
    Ph.Nest = std::move(N);
    Proc.Phases.push_back(std::move(Ph));
    return Proc.Phases.back().Nest;
  }

  void addReduction(Procedure &Proc, Reduction R) {
    Phase Ph;
    Ph.K = Phase::Kind::Reduce;
    Ph.Reduce = std::move(R);
    Proc.Phases.push_back(std::move(Ph));
  }

  /// Opens a sequential (time-step) loop phase; fill its Body directly.
  Phase &addSeqLoop(Procedure &Proc, const std::string &Var, int64_t Count) {
    Phase Ph;
    Ph.K = Phase::Kind::SeqLoop;
    Ph.SeqVar = Var;
    Ph.SeqCount = Count;
    Proc.Phases.push_back(std::move(Ph));
    return Proc.Phases.back();
  }

  /// Appends a nest inside a SeqLoop phase.
  ComputeNest &addNestIn(Phase &Seq, ComputeNest N) {
    assert(Seq.K == Phase::Kind::SeqLoop);
    for (Statement &S : N.Stmts)
      S.Id = NextStmtId++;
    Phase Ph;
    Ph.K = Phase::Kind::Nest;
    Ph.Nest = std::move(N);
    Seq.Body.push_back(std::move(Ph));
    return Seq.Body.back().Nest;
  }
  void addReductionIn(Phase &Seq, Reduction R) {
    assert(Seq.K == Phase::Kind::SeqLoop);
    Phase Ph;
    Ph.K = Phase::Kind::Reduce;
    Ph.Reduce = std::move(R);
    Seq.Body.push_back(std::move(Ph));
  }

  //===---------------------------- lookups ------------------------------===//

  const ProcArray &procArray(const std::string &N) const {
    auto It = Procs.find(N);
    assert(It != Procs.end() && "unknown processor array");
    return It->second;
  }
  const TemplateDecl &templateDecl(const std::string &N) const {
    auto It = Templates.find(N);
    assert(It != Templates.end() && "unknown template");
    return It->second;
  }
  const ArrayDecl &array(const std::string &N) const {
    auto It = Arrays.find(N);
    assert(It != Arrays.end() && "unknown array");
    return It->second;
  }
  const Align *alignOf(const std::string &ArrayName) const {
    auto It = Aligns.find(ArrayName);
    return It == Aligns.end() ? nullptr : &It->second;
  }
  const Distribute &distributeOf(const std::string &TemplateName) const {
    auto It = Distributes.find(TemplateName);
    assert(It != Distributes.end() && "template is not distributed");
    return It->second;
  }
  const std::vector<Procedure> &procedures() const { return Procedures; }
  std::vector<Procedure> &procedures() { return Procedures; }
  const std::map<std::string, ArrayDecl> &arrays() const { return Arrays; }
  const std::map<std::string, ProcArray> &procArrays() const { return Procs; }
  const std::map<std::string, TemplateDecl> &templates() const {
    return Templates;
  }
  const std::map<std::string, Distribute> &distributes() const {
    return Distributes;
  }
  const std::map<std::string, Align> &aligns() const { return Aligns; }

  int numStatements() const { return NextStmtId; }

private:
  std::string Name;
  std::vector<std::string> Params;
  std::map<std::string, ProcArray> Procs;
  std::map<std::string, TemplateDecl> Templates;
  std::map<std::string, ArrayDecl> Arrays;
  std::map<std::string, Align> Aligns;     // keyed by array name
  std::map<std::string, Distribute> Distributes; // keyed by template name
  std::vector<Procedure> Procedures;
  int NextStmtId = 0;
};

} // namespace hpf
} // namespace dhpf

#endif // DHPF_HPF_PROGRAM_H
