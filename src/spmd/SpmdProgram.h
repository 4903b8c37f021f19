//===- spmd/SpmdProgram.h - Compiled SPMD node program --------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of the compiler: a single-program-multiple-data node program.
/// Every processor executes the same tree of items; partitioned loop nests
/// (generated from CPMap by the set-based code generation), explicit
/// pack/send and recv/unpack events (generated from SendCommMap and
/// RecvCommMap), global reductions, and sequential time-step loops. The
/// interpreter in Interp.h runs the tree against real array storage on the
/// simulated machine, verifying that every non-local access was actually
/// communicated.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_SPMDPROGRAM_H
#define DHPF_SPMD_SPMDPROGRAM_H

#include "cg/Ast.h"
#include "cg/Expr.h"
#include "hpf/Maps.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dhpf {
namespace core {
struct InPlaceResult;
} // namespace core
namespace spmd {

/// One compiled statement: subscripts resolved to expressions over the
/// shared variable table, and the source statement's arithmetic. LeafId
/// in compute ASTs indexes these.
struct CompiledStmt {
  int Id = -1;
  std::string WriteArray;
  std::vector<cg::Expr> WriteSubs;
  struct Read {
    std::string Array;
    std::vector<cg::Expr> Subs;
  };
  std::vector<Read> Reads;
  hpf::ValueExpr Body; ///< Read k is Reads[k]
  std::optional<hpf::Accumulate> Acc;
  double Cost = 1.0;
  std::string Label;
};

/// One compiled logical communication event. The loop ASTs enumerate
/// (partner tuple, element tuple) pairs: the leaf environment holds the
/// partner coordinates in PartnerSlots and the element subscripts in
/// ElemSlots.
struct CommEvent {
  int Id = -1;
  std::string Array;
  cg::AstPtr SendLoops; // what I own that each partner needs
  cg::AstPtr RecvLoops; // what each partner owns that I need
  std::vector<unsigned> PartnerSlots;
  std::vector<unsigned> ElemSlots;
  /// The compiler proved every per-partner message section contiguous
  /// (Section 3.3), so the simulated machine charges no pack for it. The
  /// executors decide the real zero-copy send per message, exactly.
  bool InPlaceProven = false;
};

/// A node of the compiled program tree.
struct SpmdNode {
  enum class Kind : uint8_t { Seq, TimeLoop, Compute, Send, Recv, Reduce };
  Kind K = Kind::Seq;

  // TimeLoop: a sequential loop every processor executes identically (a
  // time-step loop, or the placement loop of partially vectorized
  // communication, whose variable is the J* parameter).
  std::string SeqVar;
  unsigned SeqSlot = 0;
  cg::Expr SeqLo, SeqHi;

  // Compute: a generated loop nest whose leaves are CompiledStmt ids.
  cg::AstPtr Loops;
  std::string NestName;

  // Send/Recv: index into SpmdProgram::Events.
  int EventId = -1;

  // Reduce
  enum class ReduceOp : uint8_t { Sum, Max } RedOp = ReduceOp::Sum;
  std::string RedName; ///< accumulator name combined across processors
  uint64_t RedBytes = 8;
  double RedCost = 1.0;

  std::vector<std::unique_ptr<SpmdNode>> Children;

  static std::unique_ptr<SpmdNode> make(Kind K) {
    auto N = std::make_unique<SpmdNode>();
    N->K = K;
    return N;
  }
};

/// The complete compiled program.
struct SpmdProgram {
  const hpf::Program *Source = nullptr;
  /// Set when the program owns its source (a program reconstructed by
  /// parseSpmdProgram); Source points at it. Compiler output leaves this
  /// null and borrows the caller's program.
  std::shared_ptr<const hpf::Program> OwnedSource;
  std::string ProcName; ///< the (single) processor array
  std::vector<hpf::VPDimInfo> ProcDims;
  cg::VarTable Vars;
  std::vector<CompiledStmt> Stmts;   // indexed by leaf id
  std::vector<CommEvent> Events;     // indexed by EventId
  std::unique_ptr<SpmdNode> Root;
  /// mv* variable slot per processor dimension (bound per processor or by
  /// enclosing VP loops).
  std::vector<unsigned> MySlots;
  /// mc* slots: the physical coordinate of the executing processor per
  /// dimension (used by VP loop bounds, Figure 6).
  std::vector<unsigned> CoordSlots;

  /// Unread. It stays only because perfbench still assigns it (ROADMAP
  /// item 9 deletes it); the run-time side of Section 3.3 is the
  /// executors' exact per-message contiguity test.
  bool (*InPlaceRuntimeCheck)(const core::InPlaceResult &,
                              const std::map<std::string, int64_t> &) =
      nullptr;

  /// Pretty-prints the node program (loops as pseudo-Fortran).
  std::string print() const;

  /// The accumulator names, sorted: every reduce node's and every
  /// statement accumulator's. An accumulator's slot is its index here.
  std::vector<std::string> accumulators() const;
};

/// The slot of accumulator \p Name in \p Names (SpmdProgram::accumulators).
uint32_t accumSlot(const std::vector<std::string> &Names,
                   const std::string &Name);

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_SPMDPROGRAM_H
