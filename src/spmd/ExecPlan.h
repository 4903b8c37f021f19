//===- spmd/ExecPlan.h - Lowered SPMD execution plan ----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan executor, the one execution engine besides the tree oracle: a
/// load-time lowering pass that walks a compiled SpmdProgram once and
/// produces a flat, fully pre-resolved plan, plus the executor that runs it
/// as bytecode or native kernels. Lowering resolves array names to dense
/// ids with cached stores and precomputed strides (subscript tuples become
/// one fused flatten expression), compiles every Expr to postfix bytecode
/// (Bytecode.h) with run-constant slots folded, drops statically dead
/// guards and loops, and precomputes the per-dimension virtual-processor
/// mapping with block sizes bound to constants.
///
/// The executor runs the plan for the ranks that live in its process — all
/// of them in-process, one in a distributed rank process — and leaves the
/// movement of messages and reductions to a Comm (Comm.h). It preserves
/// the tree interpreter's observable behaviour bit-for-bit (array state,
/// message traffic, simulated clocks, violation reports) while
/// restructuring the hot paths:
///
///  - per-partner element lists are sorted flat vectors (dedup by
///    sort+unique instead of per-element ordered-set insertion), built once
///    and reused across time steps when the event's loop nest does not
///    depend on a sequential loop variable;
///  - packing is zero-copy where the Section 3.3 analysis proved (or the
///    runtime check upgraded) contiguity: a message is a base + count span
///    of the array store, read by the comm straight from storage and
///    applied with one copy;
///  - independent processor ranks of an event run in parallel on a
///    ThreadPool, with all shared-state mutation (comm calls, violations)
///    replayed in processor order afterwards, so the result is identical
///    for any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_EXECPLAN_H
#define DHPF_SPMD_EXECPLAN_H

#include "spmd/Bytecode.h"
#include "spmd/Comm.h"
#include "spmd/Interp.h"
#include "spmd/KernelABI.h"
#include "spmd/SpmdProgram.h"
#include "support/CacheLine.h"
#include "support/ThreadPool.h"

#include <map>
#include <memory>
#include <vector>

namespace dhpf {
namespace spmd {

/// One lowered guard atom; Kind/Mod mirror cg::GuardAtom.
struct PlanAtom {
  bc::Prog E;
  cg::GuardAtom::Kind K = cg::GuardAtom::Kind::NonNeg;
  int64_t Mod = 0;
};

/// A guard in DNF; statically true atoms/conjuncts are folded away at
/// lowering time, so an empty AnyOf here means "false" was impossible and
/// the guard was dropped entirely.
struct PlanGuard {
  std::vector<std::vector<PlanAtom>> AnyOf;
};

/// A generated loop nest lowered to a flat preorder array. Each node knows
/// the index one past its subtree, so child iteration needs no pointers.
struct PlanAst {
  struct Node {
    enum class Kind : uint8_t { Loop, If, Leaf };
    Kind K = Kind::Leaf;
    unsigned VarSlot = 0;               // Loop
    int32_t LB = -1, UB = -1, Step = -1; // Loop: Exprs index; Step<0 => 1
    uint32_t GuardBegin = 0, GuardEnd = 0; // If: range in Guards
    int32_t LeafId = -1;                // Leaf
    uint32_t SubtreeEnd = 0;
  };
  std::vector<Node> Nodes; // forest in preorder
  std::vector<bc::Prog> Exprs;
  std::vector<PlanGuard> Guards;
};

/// One compiled statement with subscripts fused into flat-index bytecode.
struct StmtPlan {
  uint32_t WriteArray = 0;
  bc::Prog WriteFlat;
  struct Read {
    uint32_t Array = 0;
    bc::Prog Flat;
  };
  std::vector<Read> Reads;
  double Cost = 1.0;
  int SemanticsId = -1;
};

/// One lowered communication event.
struct EventPlan {
  int Id = -1;
  uint32_t Array = 0;
  PlanAst Send, Recv;
  std::vector<unsigned> PartnerSlots, ElemSlots;
  bc::Prog ElemFlat; // flat element index from the leaf environment
  /// True when neither loop nest reads a sequential-loop variable, so the
  /// enumerated (partner, element) lists are identical every execution.
  bool Cacheable = false;
  /// Effective in-place flag (compile-proven or runtime-upgraded).
  bool InPlace = false;
  unsigned ElemBytes = 8;
};

/// A node of the lowered program tree.
struct PlanNode {
  SpmdNode::Kind K = SpmdNode::Kind::Seq;
  // TimeLoop
  unsigned SeqSlot = 0;
  bc::Prog SeqLo, SeqHi;
  // Compute
  PlanAst Loops;
  /// Every written array has full per-element ownership, so distinct ranks
  /// touch distinct elements and may run concurrently.
  bool ParallelSafe = false;
  std::string SpanName; ///< "compute:<nest>", the node's trace span
  /// Native compute-kernel index, assigned by buildExecPlan in preorder.
  int32_t NativeComputeId = -1;
  // Send/Recv
  int EventId = -1;
  // Reduce
  SpmdNode::ReduceOp RedOp = SpmdNode::ReduceOp::Sum;
  std::string RedName;
  uint64_t RedBytes = 8;
  double RedCost = 1.0;
  std::vector<PlanNode> Children;
};

/// Per-dimension processor mapping with run-time bindings pre-resolved.
struct DimPlan {
  hpf::DistSpec::Kind Kind = hpf::DistSpec::Kind::Block;
  bool Virtualized = false;
  int64_t TmplLo = 1;
  int64_t Block = 1;   // bound block size (Block layouts)
  int64_t CyclicK = 1; // for CyclicK
  int64_t Extent = 1;  // processor-array extent along this dimension
};

/// The complete lowered program.
struct ExecPlan {
  std::vector<std::string> ArrayNames; // dense id -> name
  std::vector<StmtPlan> Stmts;         // indexed by leaf id
  std::vector<EventPlan> Events;       // indexed by EventId
  PlanNode Root;
  std::vector<DimPlan> Dims;
  unsigned StackDepth = 1; // max bytecode stack depth over the whole plan
};

/// Everything lowering needs from an execution context. Every Interpreter —
/// in-process or one rank of a launch — builds its plan from the same
/// inputs, so a plan, and the native kernel source generated from it, is
/// identical wherever it is built, which is what lets every rank of a
/// launch share one kernel-cache entry with the driver.
struct PlanBuildInputs {
  std::map<std::string, ArrayStore> *Arrays = nullptr;
  const std::map<std::string, int64_t> *AllBindings = nullptr;
  const std::vector<int64_t> *ProcShape = nullptr;
  const std::vector<char> *EventInPlace = nullptr;
};

/// A built plan plus the array-name resolution used to build it.
struct PlanBuild {
  ExecPlan Plan;
  std::map<std::string, uint32_t> ArrayIds;
  std::vector<ArrayStore *> Stores; // by array id
};

/// Lowers \p Prog once against \p In (see PlanBuildInputs). Deterministic:
/// identical inputs produce an identical plan.
PlanBuild buildExecPlan(const SpmdProgram &Prog, const PlanBuildInputs &In);

/// Runs one lowered plan against an Interpreter's state (arrays,
/// environments, simulated machine) for the ranks \p C assigns to this
/// process. Built by the Interpreter constructor whenever the tree engine
/// is not selected.
class PlanExecutor {
  friend struct RankLayoutProbe; // tests/exec_layout_test.cpp

public:
  /// \p Engine must be Bytecode or Native. Native compiles the plan's hot
  /// loops through the kernel cache at construction time and falls back to
  /// bytecode dispatch (with one stderr note) when no compiler is usable.
  PlanExecutor(const SpmdProgram &Prog, Interpreter &I, Comm &C,
               unsigned Threads, EngineKind Engine);
  ~PlanExecutor();

  RunResult run();

private:
  /// One partner's cached element list for one (event, proc) side.
  struct PartnerList {
    unsigned Q = 0;
    std::shared_ptr<std::vector<int64_t>> Flats; // sorted, unique
    int64_t Base = 0;
    bool Contig = false;
    enum class OwnClass : uint8_t { AllLocal, NoneLocal, Mixed } Own =
        OwnClass::AllLocal;
  };
  struct SideCache {
    bool Built = false;
    std::vector<PartnerList> Partners;
  };

  /// Everything one rank writes while it runs, reused across nodes.
  /// Parallel phases write only their own rank's record. The record and
  /// the blocks a compute nest writes on every statement instance (loop
  /// registers, bytecode stack, read buffer) own their cache lines, so
  /// ranks on different threads never write the same line (DESIGN.md §7).
  struct alignas(CacheLine) Scratch {
    /// Loop registers: the rank's variable environment, seeded from
    /// Interpreter::Env and written on every loop iteration.
    LineVector<int64_t> Regs;
    LineVector<int64_t> Stack;
    /// The statement read buffer, as wide as the widest statement. Compute
    /// fills it (native kernels through Ctx.Reads) and hands it to the
    /// statement semantics as a span.
    LineVector<double> Reads;
    /// The native kernels' view of this rank (unused under bytecode).
    DhpfCtx Ctx = {};
    /// Raw (partner, flat) enumeration, split into parallel arrays so the
    /// native event kernels can fill them directly through the DhpfCtx
    /// pair buffer. In native mode the vectors are capacity storage and
    /// RawLen is the element count; in bytecode mode RawLen == size().
    std::vector<uint32_t> RawQ;
    std::vector<int64_t> RawF;
    size_t RawLen = 0;
    std::vector<int32_t> PartnerPos;
    std::vector<PartnerList> Lists; // rebuilt lists (uncacheable events)
    std::vector<Payload> Out;
    std::vector<unsigned> OutQ;
    std::vector<std::string> Viol;
    uint64_t Stmts = 0;
    uint64_t SinceProgress = 0; ///< statement instances since progress()
  };
  static_assert(alignof(Scratch) == CacheLine &&
                    sizeof(Scratch) % CacheLine == 0,
                "each rank's record owns whole cache lines");

  const SpmdProgram &Prog;
  Interpreter &I;
  Comm &Com;
  unsigned NP;     // processor count of the whole mesh
  unsigned Lo, Hi; // this process runs ranks [Lo, Hi)
  /// Node-dispatch counts by SpmdNode::Kind, flushed to the obs registry
  /// ("spmd.bytecode.dispatch.*") once at the end of run().
  uint64_t Dispatch[6] = {};
  ExecPlan Plan;
  std::unique_ptr<ThreadPool> Pool;
  std::map<std::string, uint32_t> ArrayIds;
  std::vector<ArrayStore *> Stores;   // by array id
  std::vector<const StmtFn *> Sems;   // by stmt id, resolved at run()
  std::vector<Scratch> PerProc;
  std::vector<std::vector<SideCache>> SendCache, RecvCache; // [event][proc]
  /// Engine-private overlay/pending stores indexed [proc][array id]
  /// (the tree engine's string-keyed maps stay untouched).
  std::vector<std::vector<std::unordered_map<int64_t, double>>> OvV, PdV;

  /// Native-engine state: the loaded kernel table and the array tables
  /// every rank's Scratch::Ctx points at (defined in ExecPlan.cpp; null
  /// when the engine is bytecode or the native setup fell back).
  struct NativeState;
  std::unique_ptr<NativeState> Native;
  void setupNative();
  /// Runs statement \p Leaf's semantics on the first \p N values of rank
  /// \p P's read buffer.
  double runStmt(unsigned P, int32_t Leaf, size_t N);

  // Execution.
  void runNode(const PlanNode &N);
  void runCompute(const PlanNode &N);
  void runSend(const PlanNode &N);
  void runRecv(const PlanNode &N);
  void runReduce(const PlanNode &N);
  template <typename Fn> void forProcs(bool Parallel, Fn &&F);
  void mergeScratch();

  template <typename LeafFn>
  void walk(const PlanAst &A, uint32_t Idx, int64_t *Regs, int64_t *Stack,
            const LeafFn &F) const;
  template <typename LeafFn>
  void walkAll(const PlanAst &A, int64_t *Regs, int64_t *Stack,
               const LeafFn &F) const;
  bool guardHolds(const PlanGuard &G, const int64_t *Regs,
                  int64_t *Stack) const;

  bool isRealVP(const int64_t *PT) const;
  unsigned rankOfPartner(const int64_t *PT) const;
  void buildLists(const PlanAst &A, const EventPlan &EP, unsigned P,
                  std::vector<PartnerList> &Lists, bool RecvSide);
  double readFast(unsigned P, uint32_t AId, int64_t Flat, Scratch &S);
  void writeFast(unsigned P, uint32_t AId, int64_t Flat, double V);
};

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_EXECPLAN_H
