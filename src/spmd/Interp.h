//===- spmd/Interp.h - SPMD node-program interpreter ----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled SPMD program on the simulated machine, against real
/// array storage. Every processor runs the same tree; the interpreter
/// advances per-processor clocks, routes messages generated by the
/// compiler's send/recv loop nests, and *verifies* the communication
/// analysis at run time: a processor may only read an element it owns, one
/// delivered by a preceding receive or one it wrote itself, may send a
/// non-owned element only after writing it, and every received message
/// must match the elements the receiver's own sets expect.
///
/// Two executors run the same program with identical observable results:
/// the original tree-walking interpreter (the differential oracle), and
/// the plan executor of ExecPlan.h, which lowers the program once into flat
/// pre-resolved plans and runs them as bytecode or — the native engine —
/// as C kernels compiled from the same plans (NativeGen/KernelCache).
/// RunConfig::Engine selects one; Auto consults DHPF_SPMD_ENGINE ("tree" |
/// "bytecode" | "native") and defaults to bytecode.
///
/// An Interpreter runs either every rank of the program in this process,
/// on the simulated machine, or — given a Comm — the one rank of a
/// distributed run that lives in this process (the `dhpf_rt` worker). A
/// rank always runs the plan executor; the tree walk stays the in-process
/// oracle that distributed runs are checked against.
///
/// Every engine computes the program's own arithmetic: statement bodies and
/// accumulator clauses (hpf/ValueExpr.h) — the tree walk evaluates the
/// trees, the plan executor a flat program or inline C — and seedArrays()
/// seeds arrays from their init values on the host. So the same compiled
/// program both measures simulated time and produces numerically checkable
/// results. Accumulators are per-processor slots, one per name of
/// SpmdProgram::accumulators().
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_INTERP_H
#define DHPF_SPMD_INTERP_H

#include "sim/Machine.h"
#include "spmd/SpmdProgram.h"
#include "support/MathExtras.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dhpf {
namespace spmd {

/// Accumulator values by name (RunResult::FinalAccums).
using AccumMap = std::map<std::string, double>;

/// Which execution engine runs the program.
enum class EngineKind : uint8_t {
  Auto,     ///< DHPF_SPMD_ENGINE, defaulting to Bytecode
  Tree,     ///< the original tree-walking interpreter
  Bytecode, ///< the lowered-plan engine (ExecPlan.h)
  Native,   ///< compiled C kernels (NativeGen/KernelCache) over the same
            ///< lowered plans; falls back to Bytecode without a compiler
};

struct RunConfig {
  std::map<std::string, int64_t> Params; ///< program parameter values
  std::map<std::string, std::vector<int64_t>> ProcExtents;
  sim::MachineParams Machine;
  EngineKind Engine = EngineKind::Auto;
  /// Worker threads the plan executor (bytecode and native engines) runs
  /// in-process ranks on: 1 runs fully sequential, 0 selects the hardware
  /// concurrency. The tree engine is always sequential. Results are
  /// identical for any value.
  unsigned ExecThreads = 0;
};

struct RunResult {
  /// Simulated parallel completion time (sim::Machine). Only in-process
  /// runs simulate; a rank of a distributed run reports 0.
  double SimSeconds = 0;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  uint64_t StmtInstances = 0;
  /// Messages whose (deduplicated) element set was a contiguous flat span
  /// gathered straight from locally-owned storage — the Section 3.3 shape.
  /// This exact per-message test is Section 3.3's run-time check; the
  /// simulated pack cost follows CommEvent::InPlaceProven alone.
  /// Engine-independent: every engine classifies the same logical message
  /// identically, so these counters compare bit-for-bit across engines and
  /// against the distributed runtime.
  uint64_t SpanCopies = 0;
  /// Messages that needed an element-by-element buffer pack.
  uint64_t PackedCopies = 0;
  /// Fraction of wire bytes flushed while computation proceeded (the
  /// Figure 4 overlap). Only the distributed runtime measures real
  /// overlap; the simulated engines report 0.
  double OverlapRatio = 0;
  /// Physical frames this rank posted + received inside reductions (the
  /// gather to rank 0 and the broadcast back), and their payload bytes.
  /// They count the wire schedule, not the logical Messages/Bytes above,
  /// so they are excluded from cross-engine bit comparison. Only the
  /// distributed runtime reports them; simulated engines report 0.
  uint64_t CollMessages = 0;
  uint64_t CollBytes = 0;
  bool Valid = true;
  std::vector<std::string> Violations; ///< first few validity failures
  AccumMap FinalAccums;                ///< post-reduction accumulator values
  /// Always 0: no run upgrades a compile-time contiguity verdict. It stays
  /// only because perfbench still compares it (ROADMAP item 9 deletes it).
  unsigned InPlaceRuntimeUpgrades = 0;

  /// Marks the run invalid, keeping the first 20 messages.
  void addViolation(const std::string &Msg) {
    Valid = false;
    if (Violations.size() < 20)
      Violations.push_back(Msg);
  }
};

/// Dense column-major storage of a box of an array's index space: the
/// whole array (the tree oracle's arrays, merged and assembled results) or
/// one rank's box (Layout.h).
class ArrayStore {
public:
  ArrayStore() = default;
  ArrayStore(std::vector<int64_t> Lo, std::vector<int64_t> Extent,
             unsigned ElemBytes);

  int64_t flatten(const std::vector<int64_t> &Idx) const {
    assert(Idx.size() == Lo.size());
    int64_t F = 0, Stride = 1;
    for (unsigned D = 0; D != Lo.size(); ++D) {
      int64_t Off = subOv(Idx[D], Lo[D]);
      assert(Off >= 0 && Off < Extent[D] && "array subscript out of bounds");
      F = addOv(F, mulOv(Off, Stride));
      Stride = mulOv(Stride, Extent[D]);
    }
    return F;
  }
  size_t size() const { return Values.size(); }
  unsigned rank() const { return Lo.size(); }
  int64_t lo(unsigned D) const { return Lo[D]; }
  int64_t extent(unsigned D) const { return Extent[D]; }
  unsigned elemBytes() const { return ElemBytes; }

  double &at(int64_t Flat) { return Values[Flat]; }
  double at(int64_t Flat) const { return Values[Flat]; }
  /// Raw storage, for span copies and bitwise result comparison.
  const std::vector<double> &values() const { return Values; }
  double *data() { return Values.data(); }

private:
  std::vector<int64_t> Lo, Extent;
  std::vector<double> Values;
  unsigned ElemBytes = 8;
};

class Comm;
class PlanExecutor;
struct StorageLayout;

/// Interprets one compiled program under one configuration.
class Interpreter {
public:
  /// Runs every rank in this process on the simulated machine.
  Interpreter(const SpmdProgram &Prog, RunConfig Config);
  /// Runs the ranks \p C assigns to this process on the plan executor,
  /// exchanging messages and reductions through \p C, which must outlive
  /// the interpreter and span the layout's processor count. A Tree engine
  /// runs the bytecode plan here.
  Interpreter(const SpmdProgram &Prog, RunConfig Config, Comm &C);
  ~Interpreter();

  /// Seeds every array that declares an init value from it (the others
  /// stay 0). The tree oracle evaluates the value per element; the plan
  /// executor evaluates its terms into tables and the rest over each owned
  /// run (DESIGN.md §7), with identical bits.
  void seedArrays();

  /// Seeds initial array contents: \p Init(indices) -> value. Each rank of
  /// the plan executor seeds only the elements it owns, and the ranks seed
  /// concurrently, so \p Init must be safe to call from several threads.
  void initArray(const std::string &Name,
                 const std::function<double(const std::vector<int64_t> &)>
                     &Init);

  /// Runs the whole program; callable once. Counters of a distributed rank
  /// are rank-local: summed over ranks they equal the in-process totals.
  RunResult run();

  /// Post-run access for result verification: the global array. Under
  /// the plan executor it is assembled from the owned blocks of the ranks
  /// in this process on first request (a rank of a launch fills only its
  /// own elements), and run() refreshes one requested before it; a
  /// replicated array is the first such rank's copy. Safe to call from
  /// several threads, but not while run() is running.
  const ArrayStore &array(const std::string &Name) const;

  /// What rank \p R reports to a launch (rt/RankResult.h), array by array
  /// in name order: \p Array(Name, Count), then \p Run(Values, Len) for
  /// each run of consecutive elements it owns, in increasing flat order,
  /// straight from its box. Rank 0 reports a replicated array whole, the
  /// others report it empty. \p R must run in this process on the plan
  /// executor.
  void reportOwned(
      unsigned R,
      const std::function<void(const std::string &, uint64_t)> &Array,
      const std::function<void(const double *, int64_t)> &Run) const;

  /// The engine a RunConfig resolves to (Auto consults DHPF_SPMD_ENGINE).
  static EngineKind resolveEngine(EngineKind E);

private:
  friend class PlanExecutor;
  friend struct RankLayoutProbe; // tests/exec_layout_test.cpp

  Interpreter(const SpmdProgram &Prog, RunConfig Config, Comm *C);

  const SpmdProgram &Prog;
  RunConfig Config;
  sim::Machine Mach;
  unsigned NumProcs;
  std::vector<int64_t> ProcShape; ///< extents of the processor array
  /// Program parameters plus processor extents and block sizes, bound once.
  std::map<std::string, int64_t> AllBindings;
  /// Every array's ownership and every rank's storage box.
  std::unique_ptr<const StorageLayout> Storage;
  std::map<std::string, uint32_t> ArrayIds; ///< index into Storage->Arrays

  /// The tree oracle's storage: per array one global store, or one copy
  /// per processor of a replicated array.
  std::map<std::string, std::vector<ArrayStore>> Global;
  /// Global arrays assembled by array() from the plan executor's ranks.
  mutable std::map<std::string, ArrayStore> Assembled;
  mutable std::mutex AssembledMu; ///< guards Assembled
  /// The tree engine's SpmdProgram::accumulators(): slot -> name.
  std::vector<std::string> AccNames;

  // Per-processor state.
  /// Variable environments. The tree engine walks these; the plan executor
  /// starts its per-rank loop registers from them (ExecPlan.h).
  std::vector<std::vector<int64_t>> Env;
  /// The tree engine's accumulators, [proc][slot], and each statement's
  /// accumulator slot.
  std::vector<std::vector<double>> Accums;
  std::vector<uint32_t> StmtAcc;
  /// The tree oracle's copies of non-owned elements, per proc and array:
  /// received values and non-owner writes, the last one winning.
  std::vector<std::map<std::string, std::unordered_map<int64_t, double>>>
      Overlay;
  /// Non-owned elements each proc wrote (and so may send to the owner).
  std::vector<std::map<std::string, std::unordered_set<int64_t>>> Pending;

  // In-flight message payloads keyed by (src, dst, event id).
  std::map<std::tuple<unsigned, unsigned, int>,
           std::queue<std::vector<std::pair<int64_t, double>>>>
      Payloads;

  std::unique_ptr<Comm> OwnComm;      // in-process runs of the plan executor
  std::unique_ptr<PlanExecutor> Exec; // plan executor, when selected

  /// Node-dispatch counts by SpmdNode::Kind, flushed to the obs registry
  /// ("spmd.tree.dispatch.*") once at the end of run().
  uint64_t Dispatch[6] = {};

  RunResult Result;

  void setupArrays();
  void setupEnvs();
  /// Maps a partner tuple from a comm loop (physical or VP indices per
  /// dimension) to a physical rank.
  unsigned partnerRank(const std::vector<int64_t> &Partner) const;
  /// The runtime check the paper attaches to VP communication code:
  /// fictitious virtual processors (block-VP indices that are not block
  /// starts, or VPs beyond the physical array) get no messages.
  bool isRealVP(const std::vector<int64_t> &Partner) const;

  void execNode(const SpmdNode &N);
  void execCompute(const SpmdNode &N);
  void execSend(const SpmdNode &N);
  void execRecv(const SpmdNode &N);
  void execReduce(const SpmdNode &N);

  void violation(const std::string &Msg) { Result.addViolation(Msg); }
  /// Proc \p P's store of \p Array (its own copy of a replicated one).
  ArrayStore &store(unsigned P, const std::string &Array);
  /// True when proc \p P owns the element of \p Array at \p Idx.
  bool owns(unsigned P, const std::string &Array,
            const std::vector<int64_t> &Idx) const;
  double readElem(unsigned P, const std::string &Array,
                  const std::vector<int64_t> &Idx);
  void writeElem(unsigned P, const std::string &Array,
                 const std::vector<int64_t> &Idx, double V);
};

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_INTERP_H
