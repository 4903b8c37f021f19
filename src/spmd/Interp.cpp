//===- spmd/Interp.cpp - SPMD node-program interpreter -------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/Interp.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "spmd/Comm.h"
#include "spmd/ExecPlan.h"
#include "spmd/Layout.h"
#include "support/MathExtras.h"
#include "support/ThreadPool.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::hpf;

namespace {

/// All ranks in one address space: payloads wait in per-(src, dst, event)
/// queues, and every message and reduction is charged to the simulated
/// machine, so RunResult::SimSeconds is the modelled parallel time.
class InProcessComm final : public Comm {
public:
  explicit InProcessComm(sim::Machine &M)
      : Comm(M.numProcs(), 0, M.numProcs(), &obs::TraceBuffer::global()),
        Mach(M) {}

  void post(unsigned P, unsigned Q, const EventPlan &EP,
            Payload &&Pay) override {
    // The receiver applies the values later, after the sender may have
    // overwritten them: snapshot a span now.
    if (Pay.Span) {
      Pay.Vals.assign(Pay.Span, Pay.Span + Pay.N);
      Pay.Span = nullptr;
    }
    uint64_t Bytes = Pay.N * EP.ElemBytes;
    Mach.send(P, Q, static_cast<uint64_t>(EP.Id), Bytes,
              EP.InPlace ? 0 : Bytes);
    Payloads[{P, Q, EP.Id}].push(std::move(Pay));
  }

  bool receive(unsigned P, unsigned Q, const EventPlan &EP,
               Payload &Out) override {
    auto It = Payloads.find({Q, P, EP.Id});
    if (It == Payloads.end())
      return false;
    Out = std::move(It->second.front());
    It->second.pop();
    if (It->second.empty())
      Payloads.erase(It);
    Mach.recv(Q, P, static_cast<uint64_t>(EP.Id),
              EP.InPlace ? 0 : Out.N * EP.ElemBytes);
    return true;
  }

  double allReduce(const PlanNode &N,
                   const std::vector<double> &Own) override {
    Mach.allReduce(N.RedBytes);
    Mach.addCompute(0, N.RedCost);
    return fold(N, Own);
  }

  void progress() override {}

  void finish(RunResult &R) override {
    if (!Payloads.empty())
      R.addViolation(
          "unconsumed messages remain (send/recv sets are not dual)");
    R.SimSeconds = Mach.elapsed();
    R.Messages = Mach.totalMessages();
    R.Bytes = Mach.totalBytes();
  }

private:
  sim::Machine &Mach;
  std::map<std::tuple<unsigned, unsigned, int>, std::queue<Payload>> Payloads;
};

} // namespace

double Comm::fold(const PlanNode &N, const std::vector<double> &ByRank) {
  bool Max = N.RedOp == SpmdNode::ReduceOp::Max;
  double Acc = Max ? -std::numeric_limits<double>::infinity() : 0.0;
  for (double V : ByRank)
    Acc = Max ? std::max(Acc, V) : Acc + V;
  return Acc;
}

//===----------------------------------------------------------------------===//
// ArrayStore
//===----------------------------------------------------------------------===//

ArrayStore::ArrayStore(std::vector<int64_t> LoV, std::vector<int64_t> ExtentV,
                       unsigned ElemBytesV)
    : Lo(std::move(LoV)), Extent(std::move(ExtentV)), ElemBytes(ElemBytesV) {
  int64_t N = 1;
  for (int64_t E : Extent) {
    assert(E >= 0 && "negative array extent");
    N = mulOv(N, E);
  }
  Values.assign(N, 0.0);
}

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

Interpreter::Interpreter(const SpmdProgram &ProgIn, RunConfig ConfigIn)
    : Interpreter(ProgIn, std::move(ConfigIn), nullptr) {}

Interpreter::Interpreter(const SpmdProgram &ProgIn, RunConfig ConfigIn,
                         Comm &C)
    : Interpreter(ProgIn, std::move(ConfigIn), &C) {}

Interpreter::Interpreter(const SpmdProgram &ProgIn, RunConfig ConfigIn,
                         Comm *C)
    : Prog(ProgIn), Config(std::move(ConfigIn)),
      Mach(1, Config.Machine) /* resized below */ {
  ProgramLayout L = resolveLayout(Prog, Config);
  Storage = std::make_unique<StorageLayout>(resolveStorage(Prog, L));
  EngineKind E = resolveEngine(Config.Engine);
  if (C && E == EngineKind::Tree)
    E = EngineKind::Bytecode;
  admitFootprint(*Storage, C                       ? Footprint::OneRank
                           : E == EngineKind::Tree ? Footprint::Global
                                                   : Footprint::AllRanks);
  for (const ArrayLayout &A : Storage->Arrays)
    ArrayIds.emplace(A.Name, static_cast<uint32_t>(ArrayIds.size()));
  ProcShape = L.ProcShape;
  NumProcs = L.NumProcs;
  AllBindings = std::move(L.AllBindings);
  Mach = sim::Machine(NumProcs, Config.Machine);
  setupEnvs();
  if (C && C->Size != NumProcs)
    throw std::runtime_error("comm spans " + std::to_string(C->Size) +
                             " ranks but the layout needs " +
                             std::to_string(NumProcs));
  if (E == EngineKind::Tree) {
    setupArrays();
    AccNames = Prog.accumulators();
    Accums.assign(NumProcs, std::vector<double>(AccNames.size(), 0.0));
    for (const CompiledStmt &S : Prog.Stmts)
      StmtAcc.push_back(S.Acc ? accumSlot(AccNames, S.Acc->Name) : 0);
    Overlay.resize(NumProcs);
    Pending.resize(NumProcs);
    return;
  }
  if (!C) {
    OwnComm = std::make_unique<InProcessComm>(Mach);
    C = OwnComm.get();
  }
  unsigned T = Config.ExecThreads ? Config.ExecThreads
                                  : ThreadPool::hardwareThreads();
  Exec = std::make_unique<PlanExecutor>(Prog, *this, *C, T, E);
}

Interpreter::~Interpreter() = default;

EngineKind Interpreter::resolveEngine(EngineKind E) {
  if (E != EngineKind::Auto)
    return E;
  const char *S = std::getenv("DHPF_SPMD_ENGINE");
  if (S && std::strcmp(S, "tree") == 0)
    return EngineKind::Tree;
  if (S && std::strcmp(S, "native") == 0)
    return EngineKind::Native;
  return EngineKind::Bytecode;
}

void Interpreter::seedArrays() {
  if (Exec) {
    Exec->seedInits();
    return;
  }
  if (!Prog.Source)
    return;
  for (const auto &[Name, A] : Prog.Source->arrays())
    if (A.Init)
      initArray(Name, [&Init = *A.Init](const std::vector<int64_t> &Idx) {
        return hpf::evalValue(Init, nullptr, 0, Idx.data());
      });
}

void Interpreter::initArray(
    const std::string &Name,
    const std::function<double(const std::vector<int64_t> &)> &Init) {
  if (Exec) {
    Exec->seed(ArrayIds.at(Name), Init);
    return;
  }
  std::vector<ArrayStore> &Copies = Global.at(Name);
  ArrayStore &A = Copies[0];
  std::vector<std::vector<int64_t>> All(A.rank());
  for (unsigned D = 0; D != A.rank(); ++D)
    for (int64_t I = 0; I != A.extent(D); ++I)
      All[D].push_back(A.lo(D) + I);
  int64_t F = 0;
  if (A.size() != 0)
    forEachIndex(All, [&](const std::vector<int64_t> &Idx) {
      A.at(F++) = Init(Idx);
    });
  for (size_t P = 1; P != Copies.size(); ++P)
    Copies[P] = A;
}

void Interpreter::setupArrays() {
  for (const ArrayLayout &A : Storage->Arrays)
    Global[A.Name].assign(A.Replicated ? NumProcs : 1,
                          ArrayStore(A.Lo, A.Extent, A.ElemBytes));
}

ArrayStore &Interpreter::store(unsigned P, const std::string &Array) {
  std::vector<ArrayStore> &Copies = Global.at(Array);
  return Copies[Copies.size() == 1 ? 0 : P];
}

bool Interpreter::owns(unsigned P, const std::string &Array,
                       const std::vector<int64_t> &Idx) const {
  const ArrayLayout &A = Storage->Arrays[ArrayIds.at(Array)];
  return A.Replicated || A.ownerOf(Idx, ProcShape) == P;
}

unsigned Interpreter::partnerRank(const std::vector<int64_t> &Partner) const {
  int64_t R = 0, M = 1;
  for (unsigned D = 0; D != Partner.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    int64_t Off = Partner[D] - Info.TmplLo, C = 0;
    if (!Info.Virtualized)
      C = Partner[D];
    else if (Info.Kind == DistSpec::Kind::Block)
      C = Off / AllBindings.at(Info.BlockParam);
    else if (Info.Kind == DistSpec::Kind::Cyclic)
      C = floorMod(Off, ProcShape[D]);
    else if (Info.Kind == DistSpec::Kind::CyclicK)
      C = floorMod(Off / Info.CyclicK, ProcShape[D]);
    assert(C >= 0 && C < ProcShape[D]);
    R += C * M;
    M *= ProcShape[D];
  }
  return static_cast<unsigned>(R);
}

bool Interpreter::isRealVP(const std::vector<int64_t> &Partner) const {
  for (unsigned D = 0; D != Partner.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    if (!Info.Virtualized)
      continue;
    // Every cyclic template cell is a real VP.
    int64_t Off = Partner[D] - Info.TmplLo;
    if (Info.Kind == DistSpec::Kind::Block) {
      int64_t B = AllBindings.at(Info.BlockParam);
      if (floorMod(Off, B) != 0 || Off / B >= ProcShape[D])
        return false; // fictitious: not a block start, or past the array
    } else if (Info.Kind == DistSpec::Kind::CyclicK &&
               floorMod(Off, Info.CyclicK) != 0) {
      return false; // not a block start
    }
  }
  return true;
}

void Interpreter::setupEnvs() {
  ProgramLayout L{ProcShape, NumProcs, AllBindings};
  Env.resize(NumProcs);
  for (unsigned P = 0; P != NumProcs; ++P)
    Env[P] = rankEnv(Prog, L, P);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

double Interpreter::readElem(unsigned P, const std::string &Array,
                             const std::vector<int64_t> &Idx) {
  ArrayStore &A = store(P, Array);
  int64_t Flat = A.flatten(Idx);
  if (owns(P, Array, Idx))
    return A.at(Flat);
  auto &Ov = Overlay[P][Array];
  auto It = Ov.find(Flat);
  if (It != Ov.end())
    return It->second;
  violation("proc " + std::to_string(P) + " read unreceived element " +
            std::to_string(Flat) + " of " + Array);
  return A.at(Flat);
}

void Interpreter::writeElem(unsigned P, const std::string &Array,
                            const std::vector<int64_t> &Idx, double V) {
  ArrayStore &A = store(P, Array);
  int64_t Flat = A.flatten(Idx);
  if (owns(P, Array, Idx)) {
    A.at(Flat) = V;
    return;
  }
  Overlay[P][Array][Flat] = V;
  Pending[P][Array].insert(Flat);
}

void Interpreter::execCompute(const SpmdNode &N) {
  for (unsigned P = 0; P != NumProcs; ++P) {
    std::vector<int64_t> Idx;
    std::vector<double> Reads;
    cg::execute(*N.Loops, Env[P],
                [&](int Leaf, const std::vector<int64_t> &E) {
                  const CompiledStmt &S = Prog.Stmts[Leaf];
                  Reads.clear();
                  for (const CompiledStmt::Read &Rd : S.Reads) {
                    Idx.clear();
                    for (const cg::Expr &Sub : Rd.Subs)
                      Idx.push_back(Sub.eval(E));
                    Reads.push_back(readElem(P, Rd.Array, Idx));
                  }
                  double V = hpf::evalValue(S.Body, Reads.data(), 0, nullptr);
                  if (S.Acc) {
                    double A = hpf::evalValue(S.Acc->Operand, Reads.data(),
                                              V, nullptr);
                    double &Acc = Accums[P][StmtAcc[Leaf]];
                    Acc = S.Acc->O == hpf::Accumulate::Op::Sum
                              ? Acc + A
                              : std::max(Acc, A);
                  }
                  Idx.clear();
                  for (const cg::Expr &Sub : S.WriteSubs)
                    Idx.push_back(Sub.eval(E));
                  writeElem(P, S.WriteArray, Idx, V);
                  Mach.addCompute(P, S.Cost);
                  ++Result.StmtInstances;
                });
  }
}

void Interpreter::execSend(const SpmdNode &N) {
  const CommEvent &Ev = Prog.Events[N.EventId];
  for (unsigned P = 0; P != NumProcs; ++P) {
    ArrayStore &A = store(P, Ev.Array);
    auto &Ov = Overlay[P][Ev.Array];
    auto &Pd = Pending[P][Ev.Array];
    // Ordered per-partner element lists (deduplicated: union conjuncts in
    // the comm sets may overlap).
    std::vector<unsigned> PartnerOrder;
    std::map<unsigned, std::vector<std::pair<int64_t, double>>> Msgs;
    std::map<unsigned, std::set<int64_t>> Seen;
    // Per-partner: did any element come from Pending (a non-local write)?
    // Such a message can never be gathered straight from array storage.
    std::map<unsigned, bool> NonLocal;
    cg::execute(*Ev.SendLoops, Env[P],
                [&](int, const std::vector<int64_t> &E) {
                  std::vector<int64_t> PT, Idx;
                  for (unsigned S : Ev.PartnerSlots)
                    PT.push_back(E[S]);
                  for (unsigned S : Ev.ElemSlots)
                    Idx.push_back(E[S]);
                  if (!isRealVP(PT))
                    return; // fictitious virtual processor
                  unsigned Q = partnerRank(PT);
                  if (Q == P)
                    return; // VP neighbours on the same physical processor
                  int64_t Flat = A.flatten(Idx);
                  if (!Seen[Q].insert(Flat).second)
                    return;
                  if (Msgs.find(Q) == Msgs.end())
                    PartnerOrder.push_back(Q);
                  double V;
                  if (owns(P, Ev.Array, Idx)) {
                    V = A.at(Flat); // forwarding data I own (read comm)
                  } else {
                    NonLocal[Q] = true;
                    if (!Pd.count(Flat)) {
                      violation("proc " + std::to_string(P) +
                                " sends unwritten non-local element of " +
                                Ev.Array);
                      V = A.at(Flat);
                    } else {
                      V = Ov.at(Flat); // transmitting a non-local write
                    }
                  }
                  Msgs[Q].push_back({Flat, V});
                });
    for (unsigned Q : PartnerOrder) {
      auto &Items = Msgs[Q];
      // Section 3.3 message-shape classification, identical in every
      // engine: a contiguous flat span of locally-owned elements can be
      // gathered (and, distributed, posted zero-copy) from array storage.
      const std::set<int64_t> &Fl = Seen[Q];
      bool Contig = *Fl.rbegin() - *Fl.begin() + 1 ==
                    static_cast<int64_t>(Fl.size());
      if (Contig && !NonLocal[Q])
        ++Result.SpanCopies;
      else
        ++Result.PackedCopies;
      uint64_t Bytes = Items.size() * A.elemBytes();
      uint64_t PackBytes = Ev.InPlaceProven ? 0 : Bytes;
      Mach.send(P, Q, static_cast<uint64_t>(Ev.Id), Bytes, PackBytes);
      Payloads[{P, Q, Ev.Id}].push(std::move(Items));
    }
  }
}

void Interpreter::execRecv(const SpmdNode &N) {
  const CommEvent &Ev = Prog.Events[N.EventId];
  for (unsigned P = 0; P != NumProcs; ++P) {
    ArrayStore &A = store(P, Ev.Array);
    auto &Ov = Overlay[P][Ev.Array];
    std::vector<unsigned> PartnerOrder;
    std::map<unsigned, std::vector<int64_t>> Expect;
    std::set<int64_t> Mine; // expected elements P owns
    std::map<unsigned, std::set<int64_t>> Seen;
    cg::execute(*Ev.RecvLoops, Env[P],
                [&](int, const std::vector<int64_t> &E) {
                  std::vector<int64_t> PT, Idx;
                  for (unsigned S : Ev.PartnerSlots)
                    PT.push_back(E[S]);
                  for (unsigned S : Ev.ElemSlots)
                    Idx.push_back(E[S]);
                  if (!isRealVP(PT))
                    return; // fictitious virtual processor
                  unsigned Q = partnerRank(PT);
                  if (Q == P)
                    return;
                  int64_t Flat = A.flatten(Idx);
                  if (!Seen[Q].insert(Flat).second)
                    return;
                  if (Expect.find(Q) == Expect.end())
                    PartnerOrder.push_back(Q);
                  Expect[Q].push_back(Flat);
                  if (owns(P, Ev.Array, Idx))
                    Mine.insert(Flat);
                });
    for (unsigned Q : PartnerOrder) {
      auto &Flats = Expect[Q];
      auto PIt = Payloads.find({Q, P, Ev.Id});
      if (PIt == Payloads.end() || PIt->second.empty()) {
        violation("proc " + std::to_string(P) + " expects a message from " +
                  std::to_string(Q) + " for event " + std::to_string(Ev.Id) +
                  " that was never sent");
        continue;
      }
      std::vector<std::pair<int64_t, double>> Items =
          std::move(PIt->second.front());
      PIt->second.pop();
      if (PIt->second.empty())
        Payloads.erase(PIt);
      Mach.recv(Q, P, static_cast<uint64_t>(Ev.Id),
                Ev.InPlaceProven ? 0 : Items.size() * A.elemBytes());
      std::unordered_map<int64_t, double> Got(Items.begin(), Items.end());
      if (Got.size() != Flats.size())
        violation("message size mismatch for event " + std::to_string(Ev.Id) +
                  " (" + std::to_string(Got.size()) + " sent vs " +
                  std::to_string(Flats.size()) + " expected)");
      for (int64_t F : Flats) {
        auto It = Got.find(F);
        if (It == Got.end()) {
          violation("expected element missing from message (event " +
                    std::to_string(Ev.Id) + ")");
          continue;
        }
        if (Mine.count(F))
          A.at(F) = It->second; // a remote write reaching its owner
        else
          Ov[F] = It->second;
      }
    }
  }
}

void Interpreter::execReduce(const SpmdNode &N) {
  double Combined = N.RedOp == SpmdNode::ReduceOp::Max
                        ? -std::numeric_limits<double>::infinity()
                        : 0.0;
  std::vector<double *> Slot(NumProcs);
  uint32_t K = accumSlot(AccNames, N.RedName);
  for (unsigned P = 0; P != NumProcs; ++P) {
    double &V = Accums[P][K];
    Slot[P] = &V;
    Combined = N.RedOp == SpmdNode::ReduceOp::Max ? std::max(Combined, V)
                                                  : Combined + V;
  }
  for (unsigned P = 0; P != NumProcs; ++P)
    *Slot[P] = Combined;
  Mach.allReduce(N.RedBytes);
  Mach.addCompute(0, N.RedCost);
  Result.FinalAccums[N.RedName] = Combined;
}

void Interpreter::execNode(const SpmdNode &N) {
  ++Dispatch[static_cast<size_t>(N.K)];
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    for (const auto &C : N.Children)
      execNode(*C);
    break;
  case SpmdNode::Kind::TimeLoop: {
    int64_t Lo = N.SeqLo.eval(Env[0]), Hi = N.SeqHi.eval(Env[0]);
    for (int64_t V = Lo; V <= Hi; ++V) {
      for (unsigned P = 0; P != NumProcs; ++P)
        Env[P][N.SeqSlot] = V;
      for (const auto &C : N.Children)
        execNode(*C);
    }
    break;
  }
  case SpmdNode::Kind::Compute:
    execCompute(N);
    break;
  case SpmdNode::Kind::Send:
    execSend(N);
    break;
  case SpmdNode::Kind::Recv:
    execRecv(N);
    break;
  case SpmdNode::Kind::Reduce:
    execReduce(N);
    break;
  }
}

RunResult Interpreter::run() {
  if (Exec) {
    RunResult RR = Exec->run();
    // An array requested before the run holds its seeded values: refresh
    // it in place, so references to it stay valid.
    std::lock_guard<std::mutex> Lock(AssembledMu);
    for (auto &[Name, A] : Assembled)
      A = Exec->assemble(ArrayIds.at(Name));
    return RR;
  }
  execNode(*Prog.Root);
  if (!Payloads.empty())
    violation("unconsumed messages remain (send/recv sets are not dual)");
  Result.SimSeconds = Mach.elapsed();
  Result.Messages = Mach.totalMessages();
  Result.Bytes = Mach.totalBytes();
  // Flushed once per run — the dispatch loop itself stays probe-free.
  static const char *KindNames[6] = {"seq",  "time_loop", "compute",
                                     "send", "recv",      "reduce"};
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  for (size_t K = 0; K != 6; ++K)
    if (Dispatch[K])
      R.counter(std::string("spmd.tree.dispatch.") + KindNames[K])
          ->inc(Dispatch[K]);
  return Result;
}

const ArrayStore &Interpreter::array(const std::string &Name) const {
  if (!Exec)
    return Global.at(Name)[0];
  std::lock_guard<std::mutex> Lock(AssembledMu);
  auto [It, New] = Assembled.try_emplace(Name);
  if (New)
    It->second = Exec->assemble(ArrayIds.at(Name));
  return It->second;
}

void Interpreter::reportOwned(
    unsigned R,
    const std::function<void(const std::string &, uint64_t)> &Array,
    const std::function<void(const double *, int64_t)> &Run) const {
  assert(Exec && "only the plan executor's ranks report owned values");
  Exec->reportOwned(R, Array, Run);
}
