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

  void post(unsigned P, unsigned Q, const EventPlan &EP, const ArrayStore &A,
            Payload &&Pay) override {
    // The receiver applies the values later, after the sender may have
    // overwritten them: snapshot a span now.
    if (Pay.Span) {
      const double *Src = A.values().data() + Pay.Base;
      Pay.Vals.assign(Src, Src + Pay.N);
    }
    uint64_t Bytes = Pay.N * EP.ElemBytes;
    Mach.send(P, Q, static_cast<uint64_t>(EP.Id), Bytes,
              EP.InPlace ? 0 : Bytes);
    Payloads[{P, Q, EP.Id}].push(std::move(Pay));
  }

  bool receive(unsigned P, unsigned Q, const EventPlan &EP,
               const ArrayStore &, Payload &Out) override {
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
  ProcShape = L.ProcShape;
  NumProcs = L.NumProcs;
  AllBindings = std::move(L.AllBindings);
  Mach = sim::Machine(NumProcs, Config.Machine);
  setupArrays();
  setupEnvs();
  Overlay.resize(NumProcs);
  Pending.resize(NumProcs);
  Accums.resize(NumProcs);
  EngineKind E = resolveEngine(Config.Engine);
  if (C) {
    if (C->Size != NumProcs)
      throw std::runtime_error("comm spans " + std::to_string(C->Size) +
                               " ranks but the layout needs " +
                               std::to_string(NumProcs));
    if (E == EngineKind::Tree)
      E = EngineKind::Bytecode;
  }
  if (E == EngineKind::Tree)
    return;
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

void Interpreter::setSemantics(int Id, StmtFn Fn) {
  Semantics[Id] = std::move(Fn);
}

void Interpreter::initArray(
    const std::string &Name,
    const std::function<double(const std::vector<int64_t> &)> &Init) {
  ArrayStore &A = Arrays.at(Name);
  std::vector<int64_t> Idx(A.rank());
  for (unsigned D = 0; D != A.rank(); ++D)
    Idx[D] = A.lo(D);
  if (A.size() == 0)
    return;
  for (;;) {
    A.at(A.flatten(Idx)) = Init(Idx);
    unsigned D = 0;
    while (D < A.rank() && ++Idx[D] >= A.lo(D) + A.extent(D)) {
      Idx[D] = A.lo(D);
      ++D;
    }
    if (D == A.rank())
      break;
  }
}

void Interpreter::setupArrays() {
  Arrays =
      buildArrayStores(Prog, Config, {ProcShape, NumProcs, AllBindings});
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
  // Every processor starts from the parameters by name, then binds its
  // representative-processor slots (mv*) and physical coordinates (mc*).
  std::vector<int64_t> Params(Prog.Vars.size(), 0);
  for (unsigned S = 0; S != Prog.Vars.size(); ++S) {
    auto It = AllBindings.find(Prog.Vars.name(S));
    if (It != AllBindings.end())
      Params[S] = It->second;
  }
  Env.assign(NumProcs, Params);
  std::vector<int64_t> Coords(ProcShape.size());
  for (unsigned P = 0; P != NumProcs; ++P) {
    unsigned R = P;
    for (unsigned D = 0; D != ProcShape.size(); ++D) {
      Coords[D] = R % ProcShape[D];
      R /= ProcShape[D];
    }
    for (unsigned D = 0; D != Prog.MySlots.size(); ++D) {
      const VPDimInfo &Info = Prog.ProcDims[D];
      int64_t V = Coords[D];
      if (Info.Virtualized) {
        switch (Info.Kind) {
        case DistSpec::Kind::Block:
          V = AllBindings.at(Info.BlockParam) * Coords[D] + Info.TmplLo;
          break;
        case DistSpec::Kind::Cyclic:
          V = Info.TmplLo + Coords[D]; // initial VP; VP loops re-bind
          break;
        case DistSpec::Kind::CyclicK:
          V = Info.TmplLo + Info.CyclicK * Coords[D];
          break;
        case DistSpec::Kind::Star:
          break;
        }
      }
      Env[P][Prog.MySlots[D]] = V;
    }
    for (unsigned D = 0; D != Prog.CoordSlots.size(); ++D)
      Env[P][Prog.CoordSlots[D]] = Coords[D];
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

double Interpreter::readElem(unsigned P, ArrayStore &A,
                             const std::string &Array, int64_t Flat) {
  if (A.Owner.empty() || A.Owner[Flat] == static_cast<int32_t>(P) ||
      A.Owner[Flat] < 0)
    return A.at(Flat);
  auto &Ov = Overlay[P][Array];
  auto It = Ov.find(Flat);
  if (It != Ov.end())
    return It->second;
  auto &Pd = Pending[P][Array];
  auto It2 = Pd.find(Flat);
  if (It2 != Pd.end())
    return It2->second;
  violation("proc " + std::to_string(P) + " read unreceived element " +
            std::to_string(Flat) + " of " + Array);
  return A.at(Flat);
}

void Interpreter::writeElem(unsigned P, ArrayStore &A,
                            const std::string &Array, int64_t Flat,
                            double V) {
  if (A.Owner.empty() || A.Owner[Flat] == static_cast<int32_t>(P) ||
      A.Owner[Flat] < 0) {
    A.at(Flat) = V;
    return;
  }
  Pending[P][Array][Flat] = V;
}

void Interpreter::execCompute(const SpmdNode &N) {
  for (unsigned P = 0; P != NumProcs; ++P) {
    std::vector<int64_t> WIdx;
    std::vector<double> Reads;
    cg::execute(*N.Loops, Env[P],
                [&](int Leaf, const std::vector<int64_t> &E) {
                  const CompiledStmt &S = Prog.Stmts[Leaf];
                  Reads.clear();
                  for (const CompiledStmt::Read &Rd : S.Reads) {
                    ArrayStore &RA = Arrays.at(Rd.Array);
                    std::vector<int64_t> Idx;
                    for (const cg::Expr &Sub : Rd.Subs)
                      Idx.push_back(Sub.eval(E));
                    Reads.push_back(
                        readElem(P, RA, Rd.Array, RA.flatten(Idx)));
                  }
                  auto SemIt = Semantics.find(S.SemanticsId);
                  assert(SemIt != Semantics.end() &&
                         "statement without semantics");
                  double V = SemIt->second(Reads, E, Accums[P]);
                  WIdx.clear();
                  for (const cg::Expr &Sub : S.WriteSubs)
                    WIdx.push_back(Sub.eval(E));
                  ArrayStore &WA = Arrays.at(S.WriteArray);
                  writeElem(P, WA, S.WriteArray, WA.flatten(WIdx), V);
                  Mach.addCompute(P, S.Cost);
                  ++Result.StmtInstances;
                });
  }
}

void Interpreter::execSend(const SpmdNode &N) {
  const CommEvent &Ev = Prog.Events[N.EventId];
  ArrayStore &A = Arrays.at(Ev.Array);
  for (unsigned P = 0; P != NumProcs; ++P) {
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
                  if (A.Owner.empty() ||
                      A.Owner[Flat] == static_cast<int32_t>(P) ||
                      A.Owner[Flat] < 0) {
                    V = A.at(Flat); // forwarding data I own (read comm)
                  } else {
                    NonLocal[Q] = true;
                    auto It = Pd.find(Flat);
                    if (It == Pd.end()) {
                      violation("proc " + std::to_string(P) +
                                " sends unwritten non-local element of " +
                                Ev.Array);
                      V = A.at(Flat);
                    } else {
                      V = It->second; // transmitting a non-local write
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
  ArrayStore &A = Arrays.at(Ev.Array);
  for (unsigned P = 0; P != NumProcs; ++P) {
    auto &Ov = Overlay[P][Ev.Array];
    std::vector<unsigned> PartnerOrder;
    std::map<unsigned, std::vector<int64_t>> Expect;
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
        if (!A.Owner.empty() && A.Owner[F] == static_cast<int32_t>(P))
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
  for (unsigned P = 0; P != NumProcs; ++P) {
    double &V = Accums[P][N.RedName];
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
  if (Exec)
    return Exec->run();
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
  return Arrays.at(Name);
}
