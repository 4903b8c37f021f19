//===- spmd/NativeGen.cpp - ExecPlan -> C kernel source emitter -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/NativeGen.h"

#include "spmd/ExecPlan.h"
#include "spmd/KernelABI.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <vector>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::spmd::native;

uint64_t native::fnv1a64(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

/// The ABI declarations, stringized from the same macro KernelABI.h
/// expands for the host — one source of truth for the struct layout.
#define DHPF_STRINGIZE_(...) #__VA_ARGS__
#define DHPF_STRINGIZE(...) DHPF_STRINGIZE_(__VA_ARGS__)
const char *const AbiDecls = DHPF_STRINGIZE(DHPF_KERNEL_ABI_DECLS);

/// The stringized macro collapses to one line; reflow it so the emitted
/// artifact stays readable when uploaded from CI.
std::string reflowAbi() {
  std::string Out;
  for (const char *P = AbiDecls; *P; ++P) {
    Out.push_back(*P);
    if (*P == ';' || *P == '{') {
      Out.push_back('\n');
      if (*(P + 1) == ' ')
        ++P;
    }
  }
  return Out;
}

/// Integer literal with a suffix; INT64_MIN has no literal form in C.
std::string lit(int64_t K) {
  if (K == INT64_MIN)
    return "(-9223372036854775807LL - 1)";
  return std::to_string(K) + "LL";
}

/// Emits `<P> - <Lo>` (a partner offset), folding a zero template base.
std::string offsetOf(const std::string &P, int64_t Lo) {
  if (Lo == 0)
    return P;
  return "(" + P + " - " + lit(Lo) + ")";
}

/// Slot-to-C mapping: loop variables in scope read their C local (so the
/// C compiler sees the full induction structure); everything else reads
/// the register file, which a kernel only reads: no callback looks at it,
/// so loop variables never go back to it.
struct Scope {
  std::string Regs = "R";
  std::map<unsigned, std::string> Locals;

  std::string reg(unsigned A) const {
    auto It = Locals.find(A);
    if (It != Locals.end())
      return It->second;
    return Regs + "[" + std::to_string(A) + "]";
  }
};

std::string exprC(const bc::Prog &P, const Scope &S) {
  std::vector<std::string> Stk;
  auto bin = [&](const char *Op) {
    std::string B = std::move(Stk.back());
    Stk.pop_back();
    std::string A = std::move(Stk.back());
    Stk.back() = "(" + A + " " + Op + " " + B + ")";
  };
  auto call2 = [&](const char *Fn) {
    std::string B = std::move(Stk.back());
    Stk.pop_back();
    std::string A = std::move(Stk.back());
    Stk.back() = std::string(Fn) + "(" + A + ", " + B + ")";
  };
  for (const bc::Insn &In : P.code()) {
    switch (In.O) {
    case bc::Op::PushK:
      Stk.push_back(lit(In.K));
      break;
    case bc::Op::PushVar:
      Stk.push_back(S.reg(In.A));
      break;
    case bc::Op::PushVarK:
      Stk.push_back("(" + S.reg(In.A) + " + " + lit(In.K) + ")");
      break;
    case bc::Op::Add:
      bin("+");
      break;
    case bc::Op::AddK:
      Stk.back() = "(" + Stk.back() + " + " + lit(In.K) + ")";
      break;
    case bc::Op::Mul:
      bin("*");
      break;
    case bc::Op::MulK:
      Stk.back() = "(" + Stk.back() + " * " + lit(In.K) + ")";
      break;
    case bc::Op::FloorDivK:
      Stk.back() = "dhpf_fdiv(" + Stk.back() + ", " + lit(In.K) + ")";
      break;
    case bc::Op::FloorDivPow2:
      Stk.back() = "(" + Stk.back() + " >> " + std::to_string(In.A) + ")";
      break;
    case bc::Op::CeilDivK:
      Stk.back() = "dhpf_cdiv(" + Stk.back() + ", " + lit(In.K) + ")";
      break;
    case bc::Op::CeilDivPow2:
      Stk.back() = "((" + Stk.back() + " + " + lit(In.K - 1) + ") >> " +
                   std::to_string(In.A) + ")";
      break;
    case bc::Op::ModK:
      Stk.back() = "dhpf_fmod(" + Stk.back() + ", " + lit(In.K) + ")";
      break;
    case bc::Op::ModPow2:
      Stk.back() = "(" + Stk.back() + " & " + lit(In.K - 1) + ")";
      break;
    case bc::Op::FloorDiv:
      call2("dhpf_fdiv");
      break;
    case bc::Op::Mod:
      call2("dhpf_fmod");
      break;
    case bc::Op::Min:
      call2("dhpf_min");
      break;
    case bc::Op::Max:
      call2("dhpf_max");
      break;
    }
  }
  assert(Stk.size() == 1 && "malformed bytecode program");
  return Stk.back();
}

/// A double literal C reads back as exactly \p V (a '.' or exponent makes
/// it a double; a negative zero prints as (-0.0)).
std::string valueLit(double V) {
  std::string S = hpf::printValueNumber(std::fabs(V));
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return std::signbit(V) ? "(-" + S + ")" : S;
}

/// C expression text for one statement value program: read k is `r<k>`,
/// the value just computed `x`. One parenthesized C operation per program
/// operation, in the program's order.
std::string valueC(const bc::ValueProg &P) {
  std::vector<std::string> Stk;
  auto bin = [&](const std::string &Pre, const char *Mid) {
    std::string B = std::move(Stk.back());
    Stk.pop_back();
    Stk.back() = Pre + Stk.back() + Mid + B + ")";
  };
  for (const bc::VInsn &In : P.Code) {
    switch (In.O) {
    case bc::VOp::PushK:
      Stk.push_back(valueLit(In.K));
      break;
    case bc::VOp::PushRead:
      Stk.push_back("r" + std::to_string(In.A));
      break;
    case bc::VOp::PushValue:
      Stk.push_back("x");
      break;
    case bc::VOp::Neg:
      Stk.back() = "(-" + Stk.back() + ")";
      break;
    case bc::VOp::Add:
      bin("(", " + ");
      break;
    case bc::VOp::Sub:
      bin("(", " - ");
      break;
    case bc::VOp::Mul:
      bin("(", " * ");
      break;
    case bc::VOp::Div:
      bin("(", " / ");
      break;
    case bc::VOp::Abs:
      Stk.back() = "fabs(" + Stk.back() + ")";
      break;
    case bc::VOp::Min:
      bin("dhpf_vmin(", ", ");
      break;
    case bc::VOp::Max:
      bin("dhpf_vmax(", ", ");
      break;
    case bc::VOp::PushIndex:
    case bc::VOp::Sin:
    case bc::VOp::Cos:
      assert(false && "initial values are computed on the host");
      break;
    }
  }
  assert(Stk.size() == 1 && "malformed value program");
  return Stk.back();
}

std::string atomC(const PlanAtom &At, const Scope &S) {
  std::string E = exprC(At.E, S);
  switch (At.K) {
  case cg::GuardAtom::Kind::NonNeg:
    return "(" + E + " >= 0)";
  case cg::GuardAtom::Kind::Zero:
    return "(" + E + " == 0)";
  case cg::GuardAtom::Kind::ModZero:
    return "(dhpf_fmod(" + E + ", " + lit(At.Mod) + ") == 0)";
  }
  return "(0)";
}

/// One guard in DNF: `((a && b) || (c))`.
std::string guardC(const PlanGuard &G, const Scope &S) {
  std::string Out = "(";
  for (size_t C = 0; C != G.AnyOf.size(); ++C) {
    if (C)
      Out += " || ";
    Out += "(";
    for (size_t A = 0; A != G.AnyOf[C].size(); ++A) {
      if (A)
        Out += " && ";
      Out += atomC(G.AnyOf[C][A], S);
    }
    Out += ")";
  }
  Out += ")";
  return Out;
}

class Emitter {
public:
  explicit Emitter(const ExecPlan &P) : Plan(P) {}

  PlanSource run();

private:
  const ExecPlan &Plan;
  std::string S;
  int Ind = 0;
  unsigned NextId = 0; // loop/temp numbering, per function

  void line(const std::string &L) {
    S.append(static_cast<size_t>(Ind) * 2, ' ');
    S += L;
    S += '\n';
  }
  void open(const std::string &L) {
    line(L);
    ++Ind;
  }
  void close(const std::string &L = "}") {
    --Ind;
    line(L);
  }

  void emitAst(const PlanAst &A, uint32_t Idx, Scope &Sc,
               const std::function<void(int32_t, Scope &)> &Leaf);
  void emitAstAll(const PlanAst &A, Scope &Sc,
                  const std::function<void(int32_t, Scope &)> &Leaf);
  void emitComputeLeaf(int32_t LeafId, Scope &Sc);
  void emitEventLeaf(const EventPlan &EP, Scope &Sc);
  void emitComputeFn(const PlanNode &N);
  void emitEnumFn(const std::string &Name, const PlanAst &A,
                  const EventPlan &EP);
  void collect(const PlanNode &N, std::vector<const PlanNode *> &Comp);
};

void Emitter::emitAst(const PlanAst &A, uint32_t Idx, Scope &Sc,
                      const std::function<void(int32_t, Scope &)> &Leaf) {
  const PlanAst::Node &N = A.Nodes[Idx];
  switch (N.K) {
  case PlanAst::Node::Kind::Loop: {
    unsigned T = NextId++;
    std::string V = "v" + std::to_string(T);
    open("{");
    line("const int64_t lo" + std::to_string(T) + " = " +
         exprC(A.Exprs[N.LB], Sc) + ";");
    line("const int64_t hi" + std::to_string(T) + " = " +
         exprC(A.Exprs[N.UB], Sc) + ";");
    line("const int64_t st" + std::to_string(T) + " = " +
         (N.Step < 0 ? std::string("1") : exprC(A.Exprs[N.Step], Sc)) + ";");
    line("int64_t " + V + ";");
    open("for (" + V + " = lo" + std::to_string(T) + "; " + V + " <= hi" +
         std::to_string(T) + "; " + V + " += st" + std::to_string(T) +
         ") {");
    auto Saved = Sc.Locals.emplace(N.VarSlot, V);
    std::string Prev;
    if (!Saved.second) {
      Prev = Saved.first->second;
      Saved.first->second = V;
    }
    for (uint32_t C = Idx + 1; C != N.SubtreeEnd; C = A.Nodes[C].SubtreeEnd)
      emitAst(A, C, Sc, Leaf);
    if (Saved.second)
      Sc.Locals.erase(N.VarSlot);
    else
      Saved.first->second = Prev;
    close();
    close();
    return;
  }
  case PlanAst::Node::Kind::If: {
    std::string Cond;
    for (uint32_t G = N.GuardBegin; G != N.GuardEnd; ++G) {
      if (!Cond.empty())
        Cond += " &&\n" + std::string(static_cast<size_t>(Ind) * 2 + 4, ' ');
      Cond += guardC(A.Guards[G], Sc);
    }
    open("if (" + Cond + ") {");
    for (uint32_t C = Idx + 1; C != N.SubtreeEnd; C = A.Nodes[C].SubtreeEnd)
      emitAst(A, C, Sc, Leaf);
    close();
    return;
  }
  case PlanAst::Node::Kind::Leaf:
    Leaf(N.LeafId, Sc);
    return;
  }
}

void Emitter::emitAstAll(const PlanAst &A, Scope &Sc,
                         const std::function<void(int32_t, Scope &)> &Leaf) {
  for (uint32_t C = 0; C < A.Nodes.size(); C = A.Nodes[C].SubtreeEnd)
    emitAst(A, C, Sc, Leaf);
}

void Emitter::emitComputeLeaf(int32_t LeafId, Scope &Sc) {
  const StmtPlan &SP = Plan.Stmts[LeafId];
  open("{ /* stmt " + std::to_string(LeafId) + " -> " +
       Plan.ArrayNames[SP.WriteArray] + " */");
  auto Tables = [](uint32_t A) {
    std::string N = std::to_string(A);
    return N + ", d" + N + ", ok" + N + ", b" + N + ", n" + N;
  };
  for (size_t K = 0; K != SP.Reads.size(); ++K)
    line("const double r" + std::to_string(K) + " = dhpf_load(c, " +
         Tables(SP.Reads[K].Array) + ", " + exprC(SP.Reads[K].Flat, Sc) +
         ");");
  line("const double x = " + valueC(SP.Body) + ";");
  if (SP.AccSlot >= 0) {
    std::string Acc = "acc[" + std::to_string(SP.AccSlot) + "]";
    std::string V = valueC(SP.AccOperand);
    line(Acc + " = " +
         (SP.AccOp == hpf::Accumulate::Op::Sum
              ? "(" + Acc + " + " + V + ")"
              : "dhpf_vmax(" + Acc + ", " + V + ")") +
         ";");
  }
  line("dhpf_store(c, " + Tables(SP.WriteArray) + ", " +
       exprC(SP.WriteFlat, Sc) + ", x);");
  line("clk += cost" + std::to_string(LeafId) + ";");
  line("++nst;");
  open("if (++pc >= c->ProgressEvery) {");
  line("pc = 0;");
  line("*c->Clock = clk;");
  line("*c->Stmts = nst;");
  line("c->ProgressCtr = pc;");
  line("c->Progress(c);");
  close();
  close();
}

void Emitter::emitEventLeaf(const EventPlan &EP, Scope &Sc) {
  // The virtual-processor runtime check and rank mapping with every
  // DimPlan constant folded in (block sizes, extents, template bases are
  // run constants by construction).
  std::string Cond;
  std::string Rank;
  int64_t M = 1;
  for (unsigned D = 0; D != Plan.Dims.size(); ++D) {
    const DimPlan &DP = Plan.Dims[D];
    std::string P = Sc.reg(EP.PartnerSlots[D]);
    std::string Off = offsetOf(P, DP.TmplLo);
    std::string C;
    if (DP.Virtualized) {
      switch (DP.Kind) {
      case hpf::DistSpec::Kind::Block:
        if (!Cond.empty())
          Cond += " && ";
        Cond += "dhpf_fmod(" + Off + ", " + lit(DP.Block) + ") == 0 && " +
                "dhpf_fdiv(" + Off + ", " + lit(DP.Block) + ") < " +
                lit(DP.Extent);
        C = "dhpf_fdiv(" + Off + ", " + lit(DP.Block) + ")";
        break;
      case hpf::DistSpec::Kind::Cyclic:
        C = "dhpf_fmod(" + Off + ", " + lit(DP.Extent) + ")";
        break;
      case hpf::DistSpec::Kind::CyclicK:
        if (!Cond.empty())
          Cond += " && ";
        Cond += "dhpf_fmod(" + Off + ", " + lit(DP.CyclicK) + ") == 0";
        C = "dhpf_fmod(dhpf_fdiv(" + Off + ", " + lit(DP.CyclicK) + "), " +
            lit(DP.Extent) + ")";
        break;
      case hpf::DistSpec::Kind::Star:
        break; // replicated dimension: coordinate 0
      }
    } else {
      C = P;
    }
    if (!C.empty()) {
      if (!Rank.empty())
        Rank += " + ";
      Rank += M == 1 ? C : C + " * " + lit(M);
    }
    M *= DP.Extent;
  }
  if (Rank.empty())
    Rank = "0";
  unsigned T = NextId++;
  open("{");
  if (!Cond.empty())
    open("if (" + Cond + ") {");
  line("const int64_t q" + std::to_string(T) + " = " + Rank + ";");
  open("if (q" + std::to_string(T) + " != (int64_t)c->Me) {");
  line("dhpf_pair(c, q" + std::to_string(T) + ", " + exprC(EP.ElemBox, Sc) +
       ");");
  close();
  if (!Cond.empty())
    close();
  close();
}

void Emitter::emitComputeFn(const PlanNode &N) {
  NextId = 0;
  line("/* compute node " + std::to_string(N.NativeComputeId) +
       " (one processor rank's loop nest) */");
  open("static void dhpf_compute_" + std::to_string(N.NativeComputeId) +
       "(DhpfCtx *c, int64_t *R) {");
  if (N.Loops.Nodes.empty()) {
    line("(void)c;");
    line("(void)R;");
    close();
    line("");
    return;
  }
  // The clock and the instance counters live in locals (written back
  // before Progress and on return), as do the leaves' costs and the
  // tables of the arrays they touch (a rank's storage never moves during
  // a compute): the C compiler cannot keep them in registers across the
  // slow-path calls.
  std::set<int32_t> Leaves;
  std::set<uint32_t> Arrays;
  for (const PlanAst::Node &Nd : N.Loops.Nodes)
    if (Nd.K == PlanAst::Node::Kind::Leaf) {
      Leaves.insert(Nd.LeafId);
      const StmtPlan &SP = Plan.Stmts[Nd.LeafId];
      Arrays.insert(SP.WriteArray);
      for (const StmtPlan::Read &R : SP.Reads)
        Arrays.insert(R.Array);
    }
  for (uint32_t A : Arrays) {
    std::string K = std::to_string(A);
    line("double *const d" + K + " = c->Data[" + K + "];");
    line("uint8_t *const ok" + K + " = c->Valid[" + K + "];");
    line("const int64_t b" + K + " = c->Base[" + K + "], n" + K +
         " = c->Size[" + K + "];");
  }
  if (std::any_of(Leaves.begin(), Leaves.end(), [&](int32_t L) {
        return Plan.Stmts[L].AccSlot >= 0;
      }))
    line("double *const acc = c->Accum;");
  line("double clk = *c->Clock;");
  line("uint64_t nst = *c->Stmts;");
  line("uint64_t pc = c->ProgressCtr;");
  for (int32_t L : Leaves)
    line("const double cost" + std::to_string(L) + " = c->LeafCostSec[" +
         std::to_string(L) + "];");
  Scope Sc;
  emitAstAll(N.Loops, Sc,
             [this](int32_t L, Scope &SIn) { emitComputeLeaf(L, SIn); });
  line("*c->Clock = clk;");
  line("*c->Stmts = nst;");
  line("c->ProgressCtr = pc;");
  close();
  line("");
}

void Emitter::emitEnumFn(const std::string &Name, const PlanAst &A,
                         const EventPlan &EP) {
  NextId = 0;
  open("static void " + Name + "(DhpfCtx *c, int64_t *R) {");
  if (A.Nodes.empty()) {
    line("(void)c;");
    line("(void)R;");
  } else {
    Scope Sc;
    emitAstAll(A, Sc, [this, &EP](int32_t, Scope &SIn) {
      emitEventLeaf(EP, SIn);
    });
  }
  close();
  line("");
}

void Emitter::collect(const PlanNode &N,
                      std::vector<const PlanNode *> &Comp) {
  if (N.K == SpmdNode::Kind::Compute && N.NativeComputeId >= 0) {
    if (Comp.size() <= static_cast<size_t>(N.NativeComputeId))
      Comp.resize(N.NativeComputeId + 1, nullptr);
    Comp[N.NativeComputeId] = &N;
  }
  for (const PlanNode &C : N.Children)
    collect(C, Comp);
}

PlanSource Emitter::run() {
  std::vector<const PlanNode *> Comp;
  collect(Plan.Root, Comp);

  line("/* dhpf native kernel (generated by NativeGen; do not edit).");
  line(" * One translation unit per ExecPlan: compute loop nests, comm-");
  line(" * event (partner, element) enumerations, and the Section 3.3");
  line(" * contiguous pack/unpack helpers. */");
  line("#include <stdint.h>");
  line("#include <string.h>");
  line("#include <math.h>");
  line("");
  S += reflowAbi();
  line("");
  S += helperPreamble();
  line("");
  // Context-dependent helpers (fast-path element access, pair buffer).
  // Array a's tables arrive as d (data), ok (validity), b (base), n (size).
  line("static inline double dhpf_load(DhpfCtx *c, int32_t a, const double *d,");
  line("                               const uint8_t *ok, int64_t b,");
  line("                               int64_t n, int64_t g) {");
  line("  const int64_t f = g - b;");
  line("  if ((uint64_t)f < (uint64_t)n && ok[f])");
  line("    return d[f];");
  line("  return c->ReadSlow(c, a, g);");
  line("}");
  line("static inline void dhpf_store(DhpfCtx *c, int32_t a, double *d,");
  line("                              const uint8_t *ok, int64_t b,");
  line("                              int64_t n, int64_t g, double v) {");
  line("  const int64_t f = g - b;");
  line("  if ((uint64_t)f < (uint64_t)n && (ok[f] & DhpfValidOwn)) {");
  line("    d[f] = v;");
  line("    return;");
  line("  }");
  line("  c->WriteSlow(c, a, g, v);");
  line("}");
  line("static inline void dhpf_pair(DhpfCtx *c, int64_t q, int64_t f) {");
  line("  if (c->NumPairs == c->CapPairs)");
  line("    c->GrowPairs(c);");
  line("  c->PairQ[c->NumPairs] = (uint32_t)q;");
  line("  c->PairF[c->NumPairs] = f;");
  line("  ++c->NumPairs;");
  line("}");
  line("");

  for (const PlanNode *N : Comp) {
    assert(N && "compute id gap");
    emitComputeFn(*N);
  }
  for (size_t E = 0; E != Plan.Events.size(); ++E) {
    const EventPlan &EP = Plan.Events[E];
    line("/* event " + std::to_string(EP.Id) + " on " +
         Plan.ArrayNames[EP.Array] + " */");
    emitEnumFn("dhpf_event_send_" + std::to_string(E), EP.Send, EP);
    emitEnumFn("dhpf_event_recv_" + std::to_string(E), EP.Recv, EP);
  }

  line("/* Section 3.3 pack/unpack bodies */");
  line("static void dhpf_copy_span(double *dst, const double *src,");
  line("                           uint64_t n) {");
  line("  memcpy(dst, src, n * sizeof(double));");
  line("}");
  line("static void dhpf_gather(double *dst, const double *src,");
  line("                        const int64_t *f, uint64_t n) {");
  line("  uint64_t i;");
  line("  for (i = 0; i != n; ++i)");
  line("    dst[i] = src[f[i]];");
  line("}");
  line("");

  auto tab = [&](const std::string &Ty, const std::string &Name, size_t N,
                 const std::function<std::string(size_t)> &Entry) {
    std::string L = "static const " + Ty + " " + Name + "[] = {";
    if (N == 0)
      L += "0";
    for (size_t I = 0; I != N; ++I)
      L += (I ? ", " : "") + Entry(I);
    L += "};";
    line(L);
  };
  tab("DhpfComputeFn", "dhpf_compute_tab", Comp.size(), [](size_t I) {
    return "dhpf_compute_" + std::to_string(I);
  });
  tab("DhpfEnumFn", "dhpf_event_send_tab", Plan.Events.size(), [](size_t I) {
    return "dhpf_event_send_" + std::to_string(I);
  });
  tab("DhpfEnumFn", "dhpf_event_recv_tab", Plan.Events.size(), [](size_t I) {
    return "dhpf_event_recv_" + std::to_string(I);
  });
  line("");

  // Everything above is the fingerprinted body; the table below embeds
  // the fingerprint so the loader can verify it got the kernel it asked
  // for (and CtxSize, so a drifting ABI copy fails loudly at dlopen).
  PlanSource Out;
  Out.Fingerprint = fnv1a64(S);
  Out.NumCompute = static_cast<int32_t>(Comp.size());
  Out.NumEvents = static_cast<int32_t>(Plan.Events.size());

  char FP[32];
  std::snprintf(FP, sizeof(FP), "0x%016llx",
                static_cast<unsigned long long>(Out.Fingerprint));
  open("static const DhpfKernelTable dhpf_table = {");
  line(std::to_string(DHPF_KERNEL_ABI_VERSION) + ", " +
       std::to_string(Out.NumCompute) + ", " + std::to_string(Out.NumEvents) +
       ",");
  line(std::string(FP) + "ULL, sizeof(DhpfCtx),");
  line("dhpf_compute_tab, dhpf_event_send_tab, dhpf_event_recv_tab,");
  line("dhpf_copy_span, dhpf_gather,");
  close("};");
  line("const DhpfKernelTable *dhpf_kernel_entry(void) { return &dhpf_table; "
       "}");

  Out.C = std::move(S);
  return Out;
}

} // namespace

std::string native::emitExprC(const bc::Prog &P, const std::string &Regs) {
  Scope S;
  S.Regs = Regs;
  return exprC(P, S);
}

std::string native::helperPreamble() {
  // Exact mirrors of support/MathExtras.h floorDiv/ceilDiv/floorMod (the
  // sign-normalizing forms), minus the host-side asserts.
  return "static inline int64_t dhpf_fdiv(int64_t n, int64_t d) {\n"
         "  int64_t q;\n"
         "  if (d < 0) { n = -n; d = -d; }\n"
         "  q = n / d;\n"
         "  if (n % d != 0 && n < 0) --q;\n"
         "  return q;\n"
         "}\n"
         "static inline int64_t dhpf_cdiv(int64_t n, int64_t d) {\n"
         "  int64_t q;\n"
         "  if (d < 0) { n = -n; d = -d; }\n"
         "  q = n / d;\n"
         "  if (n % d != 0 && n > 0) ++q;\n"
         "  return q;\n"
         "}\n"
         "static inline int64_t dhpf_fmod(int64_t n, int64_t d) {\n"
         "  int64_t r = n % d;\n"
         "  if (r < 0) r += d;\n"
         "  return r;\n"
         "}\n"
         "static inline int64_t dhpf_min(int64_t a, int64_t b) {\n"
         "  return b < a ? b : a;\n"
         "}\n"
         "static inline int64_t dhpf_max(int64_t a, int64_t b) {\n"
         "  return a < b ? b : a;\n"
         "}\n"
         "static inline double dhpf_vmin(double a, double b) {\n"
         "  return b < a ? b : a;\n"
         "}\n"
         "static inline double dhpf_vmax(double a, double b) {\n"
         "  return a < b ? b : a;\n"
         "}\n";
}

PlanSource native::emitPlanSource(const ExecPlan &Plan) {
  return Emitter(Plan).run();
}
