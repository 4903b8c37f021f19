//===- spmd/Serialize.cpp - SPMD program round-trip serialization --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
//
// Canonical textual form: one s-expression. Atoms are integers, %.17g
// doubles (bit-exact round trip), symbols, and quoted strings (\\ \" \n \t
// \r escapes). The source program is embedded as mini-HPF text. The
// reader reports malformed input into a DiagnosticEngine with line:col
// locations and never relies on assert() — it behaves identically in Debug
// and Release builds.
//
//===----------------------------------------------------------------------===//

#include "spmd/Serialize.h"

#include "hpf/HpfParser.h"
#include "hpf/HpfPrinter.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace dhpf;
using namespace dhpf::spmd;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

std::string quoted(const std::string &S) {
  std::string R = "\"";
  for (char C : S) {
    switch (C) {
    case '\\':
      R += "\\\\";
      break;
    case '"':
      R += "\\\"";
      break;
    case '\n':
      R += "\\n";
      break;
    case '\t':
      R += "\\t";
      break;
    case '\r':
      R += "\\r";
      break;
    default:
      R += C;
    }
  }
  R += '"';
  return R;
}

std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

const char *exprOpName(cg::Expr::Kind K) {
  switch (K) {
  case cg::Expr::Kind::Const:
    return "c";
  case cg::Expr::Kind::Var:
    return "v";
  case cg::Expr::Kind::Add:
    return "+";
  case cg::Expr::Kind::Mul:
    return "*";
  case cg::Expr::Kind::MulE:
    return "*e";
  case cg::Expr::Kind::FloorDiv:
    return "fdiv";
  case cg::Expr::Kind::CeilDiv:
    return "cdiv";
  case cg::Expr::Kind::Mod:
    return "mod";
  case cg::Expr::Kind::FloorDivE:
    return "fdive";
  case cg::Expr::Kind::ModE:
    return "mode";
  case cg::Expr::Kind::Min:
    return "min";
  case cg::Expr::Kind::Max:
    return "max";
  }
  return "?";
}

void writeExpr(std::ostream &OS, const cg::Expr &E) {
  if (!E.isValid()) {
    OS << "nil";
    return;
  }
  switch (E.kind()) {
  case cg::Expr::Kind::Const:
    OS << "(c " << E.constVal() << ")";
    return;
  case cg::Expr::Kind::Var:
    OS << "(v " << E.varSlot() << ")";
    return;
  case cg::Expr::Kind::Mul:
  case cg::Expr::Kind::FloorDiv:
  case cg::Expr::Kind::CeilDiv:
  case cg::Expr::Kind::Mod:
    OS << "(" << exprOpName(E.kind()) << " " << E.constVal();
    for (const cg::Expr &Op : E.operands()) {
      OS << " ";
      writeExpr(OS, Op);
    }
    OS << ")";
    return;
  default:
    OS << "(" << exprOpName(E.kind());
    for (const cg::Expr &Op : E.operands()) {
      OS << " ";
      writeExpr(OS, Op);
    }
    OS << ")";
    return;
  }
}

/// A statement's double literal: %.17g (bit-exact), always with a '.' or an
/// exponent so the reader takes it as a double and -0 keeps its sign.
std::string fmtValueNum(double V) {
  std::string S = fmtDouble(V);
  if (S.find_first_of(".eEn") == std::string::npos)
    S += ".0";
  return S;
}

const char *valueOpName(hpf::ValueExpr::Kind K) {
  switch (K) {
  case hpf::ValueExpr::Kind::Neg:
    return "neg";
  case hpf::ValueExpr::Kind::Add:
    return "+";
  case hpf::ValueExpr::Kind::Sub:
    return "-";
  case hpf::ValueExpr::Kind::Mul:
    return "*";
  case hpf::ValueExpr::Kind::Div:
    return "/";
  default:
    return hpf::valueFnName(K);
  }
}

/// A statement body or accumulator operand: (k <literal>), (r <read>), (w)
/// for the value just computed, and (<op> <operands>...).
void writeValue(std::ostream &OS, const hpf::ValueExpr &E) {
  switch (E.K) {
  case hpf::ValueExpr::Kind::Num:
    OS << "(k " << fmtValueNum(E.Num) << ")";
    return;
  case hpf::ValueExpr::Kind::Read:
    OS << "(r " << E.Index << ")";
    return;
  case hpf::ValueExpr::Kind::Value:
    OS << "(w)";
    return;
  default:
    OS << "(" << valueOpName(E.K);
    for (const hpf::ValueExpr &Op : E.Ops) {
      OS << " ";
      writeValue(OS, Op);
    }
    OS << ")";
    return;
  }
}

void writeGuard(std::ostream &OS, const cg::Guard &G) {
  OS << "(or";
  for (const auto &Conj : G.AnyOf) {
    OS << " (and";
    for (const cg::GuardAtom &A : Conj) {
      switch (A.K) {
      case cg::GuardAtom::Kind::NonNeg:
        OS << " (nonneg ";
        break;
      case cg::GuardAtom::Kind::Zero:
        OS << " (zero ";
        break;
      case cg::GuardAtom::Kind::ModZero:
        OS << " (modzero " << A.Mod << " ";
        break;
      }
      writeExpr(OS, A.E);
      OS << ")";
    }
    OS << ")";
  }
  OS << ")";
}

void writeAst(std::ostream &OS, const cg::AstNode *N) {
  if (!N) {
    OS << "nil";
    return;
  }
  switch (N->K) {
  case cg::AstNode::Kind::Block:
    OS << "(block";
    for (const cg::AstPtr &C : N->Children) {
      OS << " ";
      writeAst(OS, C.get());
    }
    OS << ")";
    return;
  case cg::AstNode::Kind::Loop:
    OS << "(loop " << quoted(N->VarName) << " " << N->VarSlot << " ";
    writeExpr(OS, N->LB);
    OS << " ";
    writeExpr(OS, N->UB);
    OS << " ";
    writeExpr(OS, N->Step);
    for (const cg::AstPtr &C : N->Children) {
      OS << " ";
      writeAst(OS, C.get());
    }
    OS << ")";
    return;
  case cg::AstNode::Kind::If:
    OS << "(if (guards";
    for (const cg::Guard &G : N->AllOf) {
      OS << " ";
      writeGuard(OS, G);
    }
    OS << ")";
    for (const cg::AstPtr &C : N->Children) {
      OS << " ";
      writeAst(OS, C.get());
    }
    OS << ")";
    return;
  case cg::AstNode::Kind::Leaf:
    OS << "(leaf " << N->LeafId << " " << quoted(N->Label) << ")";
    return;
  }
}

const char *vpKindName(hpf::DistSpec::Kind K) {
  switch (K) {
  case hpf::DistSpec::Kind::Star:
    return "star";
  case hpf::DistSpec::Kind::Block:
    return "block";
  case hpf::DistSpec::Kind::Cyclic:
    return "cyclic";
  case hpf::DistSpec::Kind::CyclicK:
    return "cyclick";
  }
  return "?";
}

void writeNode(std::ostream &OS, const SpmdNode *N) {
  if (!N) {
    OS << "nil";
    return;
  }
  switch (N->K) {
  case SpmdNode::Kind::Seq:
    OS << "(seq";
    for (const auto &C : N->Children) {
      OS << "\n    ";
      writeNode(OS, C.get());
    }
    OS << ")";
    return;
  case SpmdNode::Kind::TimeLoop:
    OS << "(timeloop " << quoted(N->SeqVar) << " " << N->SeqSlot << " ";
    writeExpr(OS, N->SeqLo);
    OS << " ";
    writeExpr(OS, N->SeqHi);
    for (const auto &C : N->Children) {
      OS << "\n    ";
      writeNode(OS, C.get());
    }
    OS << ")";
    return;
  case SpmdNode::Kind::Compute:
    OS << "(compute " << quoted(N->NestName) << " ";
    writeAst(OS, N->Loops.get());
    OS << ")";
    return;
  case SpmdNode::Kind::Send:
    OS << "(send " << N->EventId << ")";
    return;
  case SpmdNode::Kind::Recv:
    OS << "(recv " << N->EventId << ")";
    return;
  case SpmdNode::Kind::Reduce:
    OS << "(reduce "
       << (N->RedOp == SpmdNode::ReduceOp::Sum ? "sum" : "max") << " "
       << quoted(N->RedName) << " " << N->RedBytes << " "
       << fmtDouble(N->RedCost) << ")";
    return;
  }
}

} // namespace

std::string spmd::serializeSpmdProgram(const SpmdProgram &P) {
  std::ostringstream OS;
  OS << "(spmd 3\n";

  OS << " (vars";
  for (unsigned I = 0; I != P.Vars.size(); ++I)
    OS << " " << quoted(P.Vars.name(I));
  OS << ")\n";

  OS << " (proc " << quoted(P.ProcName);
  for (const hpf::VPDimInfo &D : P.ProcDims) {
    OS << "\n  (vpdim " << vpKindName(D.Kind) << " " << (D.Virtualized ? 1 : 0)
       << " " << D.ProcFixed << " " << quoted(D.ProcSym) << " "
       << D.BlockFixed << " " << quoted(D.BlockParam) << " " << D.CyclicK
       << " " << D.TmplLo << " " << D.TemplateDim << ")";
  }
  OS << ")\n";

  OS << " (myslots";
  for (unsigned S : P.MySlots)
    OS << " " << S;
  OS << ")\n (coordslots";
  for (unsigned S : P.CoordSlots)
    OS << " " << S;
  OS << ")\n";

  OS << " (stmts";
  for (const CompiledStmt &S : P.Stmts) {
    OS << "\n  (stmt " << S.Id << " " << fmtDouble(S.Cost) << " "
       << quoted(S.Label) << " "
       << quoted(S.WriteArray) << " (";
    for (unsigned I = 0; I != S.WriteSubs.size(); ++I) {
      if (I)
        OS << " ";
      writeExpr(OS, S.WriteSubs[I]);
    }
    OS << ") (";
    for (unsigned R = 0; R != S.Reads.size(); ++R) {
      if (R)
        OS << " ";
      OS << "(read " << quoted(S.Reads[R].Array) << " (";
      for (unsigned I = 0; I != S.Reads[R].Subs.size(); ++I) {
        if (I)
          OS << " ";
        writeExpr(OS, S.Reads[R].Subs[I]);
      }
      OS << "))";
    }
    OS << ")\n   ";
    writeValue(OS, S.Body);
    if (S.Acc) {
      OS << " (accum "
         << (S.Acc->O == hpf::Accumulate::Op::Sum ? "sum" : "max") << " "
         << quoted(S.Acc->Name) << " ";
      writeValue(OS, S.Acc->Operand);
      OS << ")";
    } else {
      OS << " nil";
    }
    OS << ")";
  }
  OS << ")\n";

  OS << " (events";
  for (const CommEvent &E : P.Events) {
    OS << "\n  (event " << E.Id << " " << quoted(E.Array) << " (";
    for (unsigned I = 0; I != E.PartnerSlots.size(); ++I)
      OS << (I ? " " : "") << E.PartnerSlots[I];
    OS << ") (";
    for (unsigned I = 0; I != E.ElemSlots.size(); ++I)
      OS << (I ? " " : "") << E.ElemSlots[I];
    OS << ") " << (E.InPlaceProven ? 1 : 0) << "\n   ";
    writeAst(OS, E.SendLoops.get());
    OS << "\n   ";
    writeAst(OS, E.RecvLoops.get());
    OS << ")";
  }
  OS << ")\n";

  OS << " (root\n  ";
  writeNode(OS, P.Root.get());
  OS << ")\n";

  OS << " (source ";
  if (P.Source)
    OS << quoted(hpf::printHpfProgram(*P.Source));
  else
    OS << "nil";
  OS << ")\n)\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

/// Internal unwind after a diagnostic was reported.
struct ParseFailure {};

/// One parsed s-expression.
struct SExpr {
  enum class Kind : uint8_t { List, Sym, Int, Float, Str };
  Kind K = Kind::List;
  SourceLoc Loc;
  std::string S;   // Sym / Str
  int64_t I = 0;   // Int
  double F = 0;    // Float
  std::vector<SExpr> Items; // List
};

class Lexer {
public:
  Lexer(const std::string &Text, DiagnosticEngine &Diags,
        const std::string &File)
      : Text(Text), Diags(Diags), File(File) {}

  [[noreturn]] void fail(SourceLoc Loc, const std::string &Msg) {
    Diags.error(std::move(Loc), Msg);
    throw ParseFailure{};
  }
  [[noreturn]] void failHere(const std::string &Msg) { fail(loc(), Msg); }

  SourceLoc loc() const {
    return SourceLoc(File, Line, static_cast<unsigned>(Pos - LineStart + 1));
  }

  SExpr parseTop() {
    SExpr E = parseOne();
    skipWS();
    if (Pos != Text.size())
      failHere("trailing input after s-expression");
    return E;
  }

private:
  const std::string &Text;
  DiagnosticEngine &Diags;
  std::string File;
  size_t Pos = 0;
  size_t LineStart = 0;
  unsigned Line = 1;
  /// Open lists: bounded so no input can overflow the recursive reader
  /// (statement bodies nest at most hpf::MaxValueDepth deep).
  unsigned Depth = 0;
  static constexpr unsigned MaxNesting = 1024;

  void skipWS() {
    while (Pos != Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Pos;
        ++Line;
        LineStart = Pos;
      } else if (C == ' ' || C == '\t' || C == '\r') {
        ++Pos;
      } else if (C == ';') { // comment to end of line
        while (Pos != Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  SExpr parseOne() {
    skipWS();
    if (Pos == Text.size())
      failHere("unexpected end of input");
    SourceLoc L = loc();
    char C = Text[Pos];
    if (C == '(') {
      if (++Depth > MaxNesting)
        failHere("lists nest deeper than " + std::to_string(MaxNesting) +
                 " levels");
      ++Pos;
      SExpr E;
      E.K = SExpr::Kind::List;
      E.Loc = L;
      for (;;) {
        skipWS();
        if (Pos == Text.size())
          fail(L, "unterminated list");
        if (Text[Pos] == ')') {
          ++Pos;
          --Depth;
          return E;
        }
        E.Items.push_back(parseOne());
      }
    }
    if (C == ')')
      failHere("unmatched ')'");
    if (C == '"')
      return parseString(L);
    return parseAtom(L);
  }

  SExpr parseString(SourceLoc L) {
    ++Pos; // opening quote
    std::string R;
    while (Pos != Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\') {
        ++Pos;
        if (Pos == Text.size())
          fail(L, "unterminated string escape");
        char E = Text[Pos];
        switch (E) {
        case 'n':
          R += '\n';
          break;
        case 't':
          R += '\t';
          break;
        case 'r':
          R += '\r';
          break;
        default:
          R += E;
        }
        ++Pos;
        continue;
      }
      if (C == '\n') { // strings may span lines (escaped form preferred)
        ++Line;
        LineStart = Pos + 1;
      }
      R += C;
      ++Pos;
    }
    if (Pos == Text.size())
      fail(L, "unterminated string literal");
    ++Pos; // closing quote
    SExpr E;
    E.K = SExpr::Kind::Str;
    E.Loc = std::move(L);
    E.S = std::move(R);
    return E;
  }

  SExpr parseAtom(SourceLoc L) {
    size_t Start = Pos;
    while (Pos != Text.size()) {
      char C = Text[Pos];
      if (C == '(' || C == ')' || C == '"' || C == ';' || C == ' ' ||
          C == '\t' || C == '\r' || C == '\n')
        break;
      ++Pos;
    }
    std::string Tok = Text.substr(Start, Pos - Start);
    SExpr E;
    E.Loc = std::move(L);
    bool Numeric = std::isdigit(static_cast<unsigned char>(Tok[0])) ||
                   (Tok.size() > 1 && Tok[0] == '-' &&
                    (std::isdigit(static_cast<unsigned char>(Tok[1])) ||
                     Tok[1] == '.')) ||
                   Tok[0] == '.';
    if (!Numeric) {
      E.K = SExpr::Kind::Sym;
      E.S = std::move(Tok);
      return E;
    }
    // Integer unless it contains '.', 'e', or 'E'.
    if (Tok.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Tok.c_str(), &End, 10);
      if (errno == ERANGE || End != Tok.c_str() + Tok.size())
        fail(E.Loc, "malformed integer literal '" + Tok + "'");
      E.K = SExpr::Kind::Int;
      E.I = V;
      return E;
    }
    char *End = nullptr;
    double V = std::strtod(Tok.c_str(), &End);
    if (End != Tok.c_str() + Tok.size())
      fail(E.Loc, "malformed number '" + Tok + "'");
    E.K = SExpr::Kind::Float;
    E.F = V;
    return E;
  }
};

/// Decodes the SExpr tree into a SpmdProgram, reporting structural errors
/// at the offending node's location.
class Decoder {
public:
  Decoder(DiagnosticEngine &Diags, const std::string &File)
      : Diags(Diags), File(File) {}

  std::unique_ptr<SpmdProgram> decode(const SExpr &Top) {
    auto P = std::make_unique<SpmdProgram>();
    Prog = P.get();
    if (Top.K != SExpr::Kind::List || Top.Items.empty() ||
        !isSym(Top.Items[0], "spmd"))
      fail(Top.Loc, "expected (spmd <version> ...)");
    if (Top.Items.size() < 2 || Top.Items[1].K != SExpr::Kind::Int ||
        Top.Items[1].I != 3)
      fail(Top.Loc, "unsupported spmd serialization version");

    // Index the sections, then decode in dependency order (vars first:
    // slots give every later expression its names).
    std::map<std::string, const SExpr *> Secs;
    for (size_t I = 2; I != Top.Items.size(); ++I) {
      const SExpr &S = Top.Items[I];
      if (S.K != SExpr::Kind::List || S.Items.empty() ||
          S.Items[0].K != SExpr::Kind::Sym)
        fail(S.Loc, "expected a (section ...) list");
      if (!Secs.emplace(S.Items[0].S, &S).second)
        fail(S.Loc, "duplicate section '" + S.Items[0].S + "'");
    }
    static const char *Required[] = {"vars",       "proc",   "myslots",
                                     "coordslots", "stmts",  "events",
                                     "root",       "source"};
    for (const char *Name : Required)
      if (Secs.find(Name) == Secs.end())
        fail(Top.Loc, std::string("missing section '") + Name + "'");

    decodeVars(*Secs["vars"]);
    decodeProc(*Secs["proc"]);
    Prog->MySlots = decodeSlotList(*Secs["myslots"]);
    Prog->CoordSlots = decodeSlotList(*Secs["coordslots"]);
    decodeStmts(*Secs["stmts"]);
    decodeEvents(*Secs["events"]);
    decodeRoot(*Secs["root"]);
    decodeSource(*Secs["source"]);
    validate(*Secs["root"]);
    return P;
  }

private:
  DiagnosticEngine &Diags;
  std::string File;
  SpmdProgram *Prog = nullptr;

  [[noreturn]] void fail(SourceLoc Loc, const std::string &Msg) {
    Diags.error(std::move(Loc), Msg);
    throw ParseFailure{};
  }

  static bool isSym(const SExpr &E, const char *S) {
    return E.K == SExpr::Kind::Sym && E.S == S;
  }

  int64_t asInt(const SExpr &E) {
    if (E.K != SExpr::Kind::Int)
      fail(E.Loc, "expected an integer");
    return E.I;
  }
  double asDouble(const SExpr &E) {
    if (E.K == SExpr::Kind::Int)
      return static_cast<double>(E.I);
    if (E.K != SExpr::Kind::Float)
      fail(E.Loc, "expected a number");
    return E.F;
  }
  const std::string &asStr(const SExpr &E) {
    if (E.K != SExpr::Kind::Str)
      fail(E.Loc, "expected a quoted string");
    return E.S;
  }
  const SExpr &asList(const SExpr &E, const char *Head, size_t MinItems) {
    if (E.K != SExpr::Kind::List || E.Items.empty() ||
        !isSym(E.Items[0], Head))
      fail(E.Loc, std::string("expected (") + Head + " ...)");
    if (E.Items.size() < MinItems)
      fail(E.Loc, std::string("too few items in (") + Head + " ...)");
    return E;
  }

  unsigned asSlot(const SExpr &E) {
    int64_t V = asInt(E);
    if (V < 0 || static_cast<uint64_t>(V) >= Prog->Vars.size())
      fail(E.Loc, "variable slot " + std::to_string(V) +
                      " out of range (table has " +
                      std::to_string(Prog->Vars.size()) + " entries)");
    return static_cast<unsigned>(V);
  }

  //===---------------------------- sections ----------------------------===//

  void decodeVars(const SExpr &S) {
    for (size_t I = 1; I != S.Items.size(); ++I) {
      const std::string &Name = asStr(S.Items[I]);
      unsigned Slot = Prog->Vars.slot(Name);
      if (Slot != I - 1)
        fail(S.Items[I].Loc, "duplicate variable name '" + Name + "'");
    }
  }

  void decodeProc(const SExpr &S) {
    asList(S, "proc", 2);
    Prog->ProcName = asStr(S.Items[1]);
    for (size_t I = 2; I != S.Items.size(); ++I) {
      const SExpr &D = asList(S.Items[I], "vpdim", 10);
      hpf::VPDimInfo Info;
      const SExpr &KindE = D.Items[1];
      if (isSym(KindE, "star"))
        Info.Kind = hpf::DistSpec::Kind::Star;
      else if (isSym(KindE, "block"))
        Info.Kind = hpf::DistSpec::Kind::Block;
      else if (isSym(KindE, "cyclic"))
        Info.Kind = hpf::DistSpec::Kind::Cyclic;
      else if (isSym(KindE, "cyclick"))
        Info.Kind = hpf::DistSpec::Kind::CyclicK;
      else
        fail(KindE.Loc, "unknown distribution kind");
      Info.Virtualized = asInt(D.Items[2]) != 0;
      Info.ProcFixed = asInt(D.Items[3]);
      Info.ProcSym = asStr(D.Items[4]);
      Info.BlockFixed = asInt(D.Items[5]);
      Info.BlockParam = asStr(D.Items[6]);
      Info.CyclicK = asInt(D.Items[7]);
      Info.TmplLo = asInt(D.Items[8]);
      int64_t TD = asInt(D.Items[9]);
      if (TD < 0)
        fail(D.Items[9].Loc, "negative template dimension");
      Info.TemplateDim = static_cast<unsigned>(TD);
      Prog->ProcDims.push_back(std::move(Info));
    }
  }

  std::vector<unsigned> decodeSlotList(const SExpr &S) {
    std::vector<unsigned> R;
    for (size_t I = 1; I != S.Items.size(); ++I)
      R.push_back(asSlot(S.Items[I]));
    return R;
  }

  void decodeStmts(const SExpr &S) {
    for (size_t I = 1; I != S.Items.size(); ++I) {
      const SExpr &St = asList(S.Items[I], "stmt", 9);
      if (St.Items.size() != 9)
        fail(St.Loc, "too many items in (stmt ...)");
      CompiledStmt CS;
      CS.Id = static_cast<int>(asInt(St.Items[1]));
      CS.Cost = asDouble(St.Items[2]);
      CS.Label = asStr(St.Items[3]);
      CS.WriteArray = asStr(St.Items[4]);
      const SExpr &Subs = St.Items[5];
      if (Subs.K != SExpr::Kind::List)
        fail(Subs.Loc, "expected a subscript list");
      for (const SExpr &E : Subs.Items)
        CS.WriteSubs.push_back(decodeExpr(E));
      const SExpr &Reads = St.Items[6];
      if (Reads.K != SExpr::Kind::List)
        fail(Reads.Loc, "expected a read list");
      for (const SExpr &R : Reads.Items) {
        const SExpr &RL = asList(R, "read", 3);
        CompiledStmt::Read Rd;
        Rd.Array = asStr(RL.Items[1]);
        if (RL.Items[2].K != SExpr::Kind::List)
          fail(RL.Items[2].Loc, "expected a subscript list");
        for (const SExpr &E : RL.Items[2].Items)
          Rd.Subs.push_back(decodeExpr(E));
        CS.Reads.push_back(std::move(Rd));
      }
      unsigned Nodes = 0;
      CS.Body = decodeValue(St.Items[7], CS.Reads.size(), false, 1, Nodes);
      if (!isSym(St.Items[8], "nil")) {
        const SExpr &A = asList(St.Items[8], "accum", 4);
        if (A.Items.size() != 4)
          fail(A.Loc, "accum expects op, name and operand");
        hpf::Accumulate Acc;
        if (isSym(A.Items[1], "sum"))
          Acc.O = hpf::Accumulate::Op::Sum;
        else if (isSym(A.Items[1], "max"))
          Acc.O = hpf::Accumulate::Op::Max;
        else
          fail(A.Items[1].Loc, "unknown accumulation op");
        Acc.Name = asStr(A.Items[2]);
        Nodes = 0;
        Acc.Operand = decodeValue(A.Items[3], CS.Reads.size(), true, 1, Nodes);
        CS.Acc = std::move(Acc);
      }
      Prog->Stmts.push_back(std::move(CS));
    }
  }

  void decodeEvents(const SExpr &S) {
    for (size_t I = 1; I != S.Items.size(); ++I) {
      const SExpr &E = asList(S.Items[I], "event", 8);
      if (E.Items.size() != 8)
        fail(E.Loc, "too many items in (event ...)");
      CommEvent Ev;
      Ev.Id = static_cast<int>(asInt(E.Items[1]));
      if (Ev.Id != static_cast<int>(I - 1))
        fail(E.Items[1].Loc, "event ids must be dense and in order");
      Ev.Array = asStr(E.Items[2]);
      if (E.Items[3].K != SExpr::Kind::List)
        fail(E.Items[3].Loc, "expected a partner-slot list");
      for (const SExpr &P : E.Items[3].Items)
        Ev.PartnerSlots.push_back(asSlot(P));
      if (E.Items[4].K != SExpr::Kind::List)
        fail(E.Items[4].Loc, "expected an element-slot list");
      for (const SExpr &P : E.Items[4].Items)
        Ev.ElemSlots.push_back(asSlot(P));
      Ev.InPlaceProven = asInt(E.Items[5]) != 0;
      Ev.SendLoops = decodeAst(E.Items[6]);
      Ev.RecvLoops = decodeAst(E.Items[7]);
      if (!Ev.SendLoops || !Ev.RecvLoops)
        fail(E.Loc, "event send/recv loops must be present");
      Prog->Events.push_back(std::move(Ev));
    }
  }

  //===------------------------ expressions / ASTs -----------------------===//

  /// A statement body (\p InAccum: an accumulator operand) over \p NumReads
  /// reads, bounded like the .hpf parser's.
  hpf::ValueExpr decodeValue(const SExpr &S, size_t NumReads, bool InAccum,
                             unsigned Depth, unsigned &Nodes) {
    using K = hpf::ValueExpr::Kind;
    if (Depth > hpf::MaxValueDepth || ++Nodes > hpf::MaxValueNodes)
      fail(S.Loc, "statement expression too deep or too large");
    if (S.K != SExpr::Kind::List || S.Items.empty() ||
        S.Items[0].K != SExpr::Kind::Sym)
      fail(S.Loc, "expected a value expression");
    const std::string &Op = S.Items[0].S;
    auto Arity = [&](size_t N) {
      if (S.Items.size() != N + 1)
        fail(S.Loc, "value operator '" + Op + "' expects " +
                        std::to_string(N) + " operand(s)");
    };
    if (Op == "k") {
      Arity(1);
      return hpf::ValueExpr::num(asDouble(S.Items[1]));
    }
    if (Op == "r") {
      Arity(1);
      int64_t R = asInt(S.Items[1]);
      if (R < 0 || static_cast<uint64_t>(R) >= NumReads)
        fail(S.Items[1].Loc, "read " + std::to_string(R) +
                                 " out of range (statement has " +
                                 std::to_string(NumReads) + " reads)");
      return hpf::ValueExpr::leaf(K::Read, static_cast<unsigned>(R));
    }
    if (Op == "w") {
      Arity(0);
      if (!InAccum)
        fail(S.Loc, "(w) is only meaningful in an accumulator operand");
      return hpf::ValueExpr::leaf(K::Value, 0);
    }
    static const K Ops[] = {K::Neg, K::Add, K::Sub, K::Mul,
                            K::Div, K::Abs, K::Min, K::Max};
    for (K Kind : Ops) {
      if (Op != valueOpName(Kind))
        continue;
      Arity(hpf::valueArity(Kind));
      std::vector<hpf::ValueExpr> Operands;
      for (size_t I = 1; I != S.Items.size(); ++I)
        Operands.push_back(
            decodeValue(S.Items[I], NumReads, InAccum, Depth + 1, Nodes));
      return hpf::ValueExpr::op(Kind, std::move(Operands));
    }
    fail(S.Items[0].Loc, "unknown value operator '" + Op + "'");
  }

  cg::Expr decodeExpr(const SExpr &S) {
    if (isSym(S, "nil"))
      return cg::Expr();
    if (S.K != SExpr::Kind::List || S.Items.empty() ||
        S.Items[0].K != SExpr::Kind::Sym)
      fail(S.Loc, "expected an expression");
    const std::string &Op = S.Items[0].S;
    auto Arity = [&](size_t N) {
      if (S.Items.size() != N + 1)
        fail(S.Loc, "operator '" + Op + "' expects " + std::to_string(N) +
                        " operand(s)");
    };
    // Operands inside compound expressions must be valid (nil is only
    // meaningful at positions that model an absent expression).
    auto Operand = [&](size_t I) { return decodeValidExpr(S.Items[I]); };
    auto Rest = [&](size_t From) {
      if (S.Items.size() <= From)
        fail(S.Loc, "operator '" + Op + "' expects at least one operand");
      std::vector<cg::Expr> R;
      for (size_t I = From; I != S.Items.size(); ++I)
        R.push_back(decodeValidExpr(S.Items[I]));
      return R;
    };
    auto PosConst = [&](size_t I) {
      int64_t K = asInt(S.Items[I]);
      if (K <= 0)
        fail(S.Items[I].Loc,
             "operator '" + Op + "' requires a positive constant");
      return K;
    };
    if (Op == "c") {
      Arity(1);
      return cg::Expr::constant(asInt(S.Items[1]));
    }
    if (Op == "v") {
      Arity(1);
      unsigned Slot = asSlot(S.Items[1]);
      return cg::Expr::var(Slot, Prog->Vars.name(Slot));
    }
    if (Op == "+") {
      std::vector<cg::Expr> Ops = Rest(1);
      cg::Expr R = Ops[0];
      for (size_t I = 1; I != Ops.size(); ++I)
        R = cg::Expr::add(R, Ops[I]);
      return R;
    }
    if (Op == "*") {
      Arity(2);
      return cg::Expr::mul(Operand(2), asInt(S.Items[1]));
    }
    if (Op == "*e") {
      Arity(2);
      return cg::Expr::mulExpr(Operand(1), Operand(2));
    }
    if (Op == "fdiv") {
      Arity(2);
      return cg::Expr::floorDiv(Operand(2), PosConst(1));
    }
    if (Op == "cdiv") {
      Arity(2);
      return cg::Expr::ceilDiv(Operand(2), PosConst(1));
    }
    if (Op == "mod") {
      Arity(2);
      return cg::Expr::mod(Operand(2), PosConst(1));
    }
    if (Op == "fdive") {
      Arity(2);
      return cg::Expr::floorDivExpr(Operand(1), Operand(2));
    }
    if (Op == "mode") {
      Arity(2);
      return cg::Expr::modExpr(Operand(1), Operand(2));
    }
    if (Op == "min")
      return cg::Expr::min(Rest(1));
    if (Op == "max")
      return cg::Expr::max(Rest(1));
    fail(S.Items[0].Loc, "unknown expression operator '" + Op + "'");
  }

  cg::Expr decodeValidExpr(const SExpr &S) {
    cg::Expr E = decodeExpr(S);
    if (!E.isValid())
      fail(S.Loc, "expression must not be nil here");
    return E;
  }

  cg::Guard decodeGuard(const SExpr &S) {
    const SExpr &L = asList(S, "or", 1);
    cg::Guard G;
    for (size_t I = 1; I != L.Items.size(); ++I) {
      const SExpr &CL = asList(L.Items[I], "and", 1);
      std::vector<cg::GuardAtom> Conj;
      for (size_t A = 1; A != CL.Items.size(); ++A) {
        const SExpr &AL = CL.Items[A];
        if (AL.K != SExpr::Kind::List || AL.Items.empty() ||
            AL.Items[0].K != SExpr::Kind::Sym)
          fail(AL.Loc, "expected a guard atom");
        cg::GuardAtom At;
        if (isSym(AL.Items[0], "nonneg")) {
          if (AL.Items.size() != 2)
            fail(AL.Loc, "nonneg expects one expression");
          At.K = cg::GuardAtom::Kind::NonNeg;
          At.E = decodeValidExpr(AL.Items[1]);
        } else if (isSym(AL.Items[0], "zero")) {
          if (AL.Items.size() != 2)
            fail(AL.Loc, "zero expects one expression");
          At.K = cg::GuardAtom::Kind::Zero;
          At.E = decodeValidExpr(AL.Items[1]);
        } else if (isSym(AL.Items[0], "modzero")) {
          if (AL.Items.size() != 3)
            fail(AL.Loc, "modzero expects a modulus and an expression");
          At.K = cg::GuardAtom::Kind::ModZero;
          At.Mod = asInt(AL.Items[1]);
          if (At.Mod <= 0)
            fail(AL.Items[1].Loc, "modzero modulus must be positive");
          At.E = decodeValidExpr(AL.Items[2]);
        } else {
          fail(AL.Items[0].Loc, "unknown guard atom kind");
        }
        Conj.push_back(std::move(At));
      }
      G.AnyOf.push_back(std::move(Conj));
    }
    return G;
  }

  cg::AstPtr decodeAst(const SExpr &S) {
    if (isSym(S, "nil"))
      return nullptr;
    if (S.K != SExpr::Kind::List || S.Items.empty() ||
        S.Items[0].K != SExpr::Kind::Sym)
      fail(S.Loc, "expected an AST node");
    const std::string &Head = S.Items[0].S;
    if (Head == "block") {
      cg::AstPtr N = cg::AstNode::block();
      for (size_t I = 1; I != S.Items.size(); ++I)
        N->Children.push_back(decodeChildAst(S.Items[I]));
      return N;
    }
    if (Head == "loop") {
      if (S.Items.size() < 6)
        fail(S.Loc, "loop expects name, slot, and three bound expressions");
      std::string Name = asStr(S.Items[1]);
      unsigned Slot = asSlot(S.Items[2]);
      cg::Expr LB = decodeValidExpr(S.Items[3]);
      cg::Expr UB = decodeValidExpr(S.Items[4]);
      cg::Expr Step = decodeValidExpr(S.Items[5]);
      cg::AstPtr N = cg::AstNode::loop(std::move(Name), Slot, std::move(LB),
                                       std::move(UB), std::move(Step));
      for (size_t I = 6; I != S.Items.size(); ++I)
        N->Children.push_back(decodeChildAst(S.Items[I]));
      return N;
    }
    if (Head == "if") {
      if (S.Items.size() < 2)
        fail(S.Loc, "if expects a (guards ...) list");
      const SExpr &GL = asList(S.Items[1], "guards", 1);
      std::vector<cg::Guard> Gs;
      for (size_t I = 1; I != GL.Items.size(); ++I)
        Gs.push_back(decodeGuard(GL.Items[I]));
      cg::AstPtr N = cg::AstNode::guarded(std::move(Gs));
      for (size_t I = 2; I != S.Items.size(); ++I)
        N->Children.push_back(decodeChildAst(S.Items[I]));
      return N;
    }
    if (Head == "leaf") {
      if (S.Items.size() != 3)
        fail(S.Loc, "leaf expects an id and a label");
      return cg::AstNode::leaf(static_cast<int>(asInt(S.Items[1])),
                               asStr(S.Items[2]));
    }
    fail(S.Items[0].Loc, "unknown AST node kind '" + Head + "'");
  }

  cg::AstPtr decodeChildAst(const SExpr &S) {
    cg::AstPtr C = decodeAst(S);
    if (!C)
      fail(S.Loc, "nil is not a valid AST child");
    return C;
  }

  //===----------------------------- nodes -------------------------------===//

  std::unique_ptr<SpmdNode> decodeNode(const SExpr &S) {
    if (S.K != SExpr::Kind::List || S.Items.empty() ||
        S.Items[0].K != SExpr::Kind::Sym)
      fail(S.Loc, "expected a program node");
    const std::string &Head = S.Items[0].S;
    if (Head == "seq") {
      auto N = SpmdNode::make(SpmdNode::Kind::Seq);
      for (size_t I = 1; I != S.Items.size(); ++I)
        N->Children.push_back(decodeNode(S.Items[I]));
      return N;
    }
    if (Head == "timeloop") {
      if (S.Items.size() < 5)
        fail(S.Loc, "timeloop expects var, slot, lo, hi");
      auto N = SpmdNode::make(SpmdNode::Kind::TimeLoop);
      N->SeqVar = asStr(S.Items[1]);
      N->SeqSlot = asSlot(S.Items[2]);
      N->SeqLo = decodeValidExpr(S.Items[3]);
      N->SeqHi = decodeValidExpr(S.Items[4]);
      for (size_t I = 5; I != S.Items.size(); ++I)
        N->Children.push_back(decodeNode(S.Items[I]));
      return N;
    }
    if (Head == "compute") {
      if (S.Items.size() != 3)
        fail(S.Loc, "compute expects a name and a loop AST");
      auto N = SpmdNode::make(SpmdNode::Kind::Compute);
      N->NestName = asStr(S.Items[1]);
      N->Loops = decodeChildAst(S.Items[2]);
      return N;
    }
    if (Head == "send" || Head == "recv") {
      if (S.Items.size() != 2)
        fail(S.Loc, Head + " expects an event id");
      auto N = SpmdNode::make(Head == "send" ? SpmdNode::Kind::Send
                                             : SpmdNode::Kind::Recv);
      int64_t Id = asInt(S.Items[1]);
      if (Id < 0 || static_cast<uint64_t>(Id) >= Prog->Events.size())
        fail(S.Items[1].Loc, "event id " + std::to_string(Id) +
                                 " out of range (" +
                                 std::to_string(Prog->Events.size()) +
                                 " events)");
      N->EventId = static_cast<int>(Id);
      return N;
    }
    if (Head == "reduce") {
      if (S.Items.size() != 5)
        fail(S.Loc, "reduce expects op, name, bytes, cost");
      auto N = SpmdNode::make(SpmdNode::Kind::Reduce);
      if (isSym(S.Items[1], "sum"))
        N->RedOp = SpmdNode::ReduceOp::Sum;
      else if (isSym(S.Items[1], "max"))
        N->RedOp = SpmdNode::ReduceOp::Max;
      else
        fail(S.Items[1].Loc, "unknown reduction op");
      N->RedName = asStr(S.Items[2]);
      int64_t Bytes = asInt(S.Items[3]);
      if (Bytes < 0)
        fail(S.Items[3].Loc, "negative reduction byte count");
      N->RedBytes = static_cast<uint64_t>(Bytes);
      N->RedCost = asDouble(S.Items[4]);
      return N;
    }
    fail(S.Items[0].Loc, "unknown program node kind '" + Head + "'");
  }

  void decodeRoot(const SExpr &S) {
    asList(S, "root", 2);
    if (S.Items.size() != 2)
      fail(S.Loc, "root expects exactly one node");
    Prog->Root = decodeNode(S.Items[1]);
  }

  void decodeSource(const SExpr &S) {
    asList(S, "source", 2);
    if (isSym(S.Items[1], "nil"))
      return;
    const std::string &Text = asStr(S.Items[1]);
    Expected<std::unique_ptr<hpf::Program>> R =
        hpf::parseHpfProgram(Text, Diags, File + ":source");
    if (!R)
      fail(S.Items[1].Loc, "malformed embedded source program");
    Prog->OwnedSource = std::shared_ptr<const hpf::Program>(R.take());
    Prog->Source = Prog->OwnedSource.get();
  }

  //===------------------------- cross checks ----------------------------===//

  void checkComputeLeaves(const cg::AstNode &N, SourceLoc Loc) {
    if (N.K == cg::AstNode::Kind::Leaf) {
      if (N.LeafId < 0 ||
          static_cast<size_t>(N.LeafId) >= Prog->Stmts.size() ||
          Prog->Stmts[N.LeafId].Id != N.LeafId)
        fail(Loc, "compute leaf references unknown statement " +
                      std::to_string(N.LeafId));
    }
    for (const cg::AstPtr &C : N.Children)
      checkComputeLeaves(*C, Loc);
  }

  void checkNode(const SpmdNode &N, SourceLoc Loc) {
    if (N.K == SpmdNode::Kind::Compute && N.Loops)
      checkComputeLeaves(*N.Loops, Loc);
    for (const auto &C : N.Children)
      checkNode(*C, Loc);
  }

  void validate(const SExpr &RootSec) {
    if (Prog->Root)
      checkNode(*Prog->Root, RootSec.Loc);
    if (Prog->MySlots.size() != Prog->ProcDims.size() ||
        Prog->CoordSlots.size() != Prog->ProcDims.size())
      fail(RootSec.Loc, "myslots/coordslots must match the processor rank");
  }
};

} // namespace

std::unique_ptr<SpmdProgram>
spmd::parseSpmdProgram(const std::string &Text, DiagnosticEngine &Diags,
                       const std::string &FileName) {
  try {
    Lexer L(Text, Diags, FileName);
    SExpr Top = L.parseTop();
    Decoder D(Diags, FileName);
    return D.decode(Top);
  } catch (ParseFailure &) {
    return nullptr;
  }
}
