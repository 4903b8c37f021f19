//===- hpf/HpfParser.cpp - Textual front end for the mini-HPF IR ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Error handling: every malformed-input condition reports a diagnostic with
// the offending file:line:col and throws ParseFailure, which the per-line
// dispatch loop catches to resynchronize at the next line. Nothing here
// relies on assert(), so Debug and Release builds reject input identically.
//
//===----------------------------------------------------------------------===//

#include "hpf/HpfParser.h"

#include "hpf/HpfPrinter.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

using namespace dhpf;
using namespace dhpf::hpf;

namespace {

/// Thrown on a malformed line after the diagnostic is reported; caught by
/// the per-line dispatch loop, which resynchronizes at the next line.
struct ParseFailure {};

/// A trivial token scanner over one line.
class LineLexer {
public:
  LineLexer(const std::string &Line, DiagnosticEngine &Diags,
            const std::string &File, unsigned LineNo)
      : S(Line), Diags(Diags), File(File), LineNo(LineNo) {}

  SourceLoc loc() const {
    return SourceLoc(File, LineNo, static_cast<unsigned>(Pos) + 1);
  }
  [[noreturn]] void fail(const std::string &Msg) {
    Diags.error(loc(), Msg);
    throw ParseFailure();
  }

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }
  size_t pos() const { return Pos; }
  void seek(size_t P) { Pos = P; }
  bool atEnd() {
    skipWs();
    return Pos >= S.size() || S[Pos] == '!';
  }
  char peek() {
    skipWs();
    return atEnd() ? '\0' : S[Pos];
  }
  bool tryConsume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void expect(char C) {
    if (!tryConsume(C))
      fail(std::string("expected '") + C + "'");
  }
  bool atIdent() {
    skipWs();
    return !atEnd() && (std::isalpha(static_cast<unsigned char>(S[Pos])) ||
                        S[Pos] == '_');
  }
  std::string ident() {
    skipWs();
    if (!atIdent())
      fail("expected identifier");
    size_t B = Pos;
    while (Pos < S.size() &&
           (std::isalnum(static_cast<unsigned char>(S[Pos])) || S[Pos] == '_'))
      ++Pos;
    return S.substr(B, Pos - B);
  }
  /// A display name (program / procedure / nest): an identifier that may
  /// also contain '-', '/', and '.' after the first character. These names
  /// never appear in affine expressions, so the extra characters are
  /// unambiguous — and the apps' generated names ("sp-sym", "sub0/rhs")
  /// must survive printHpfProgram -> parseHpfProgram round trips.
  std::string name() {
    skipWs();
    if (!atIdent())
      fail("expected name");
    size_t B = Pos;
    while (Pos < S.size() &&
           (std::isalnum(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '_' || S[Pos] == '-' || S[Pos] == '/' ||
            S[Pos] == '.'))
      ++Pos;
    return S.substr(B, Pos - B);
  }
  bool atNumber() {
    skipWs();
    return !atEnd() && std::isdigit(static_cast<unsigned char>(S[Pos]));
  }
  int64_t number() {
    skipWs();
    if (!atNumber())
      fail("expected number");
    int64_t V = 0;
    unsigned Digits = 0;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos]))) {
      if (++Digits > 18)
        fail("integer literal too large");
      V = V * 10 + (S[Pos++] - '0');
    }
    return V;
  }
  /// A finite non-negative decimal literal, digits [. digits] [e [+-]
  /// digits]: an expression's constant or a cost.
  double literal() {
    skipWs();
    if (!atNumber())
      fail("expected number");
    size_t B = Pos;
    auto Digits = [&] {
      while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    };
    Digits();
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      Digits();
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      size_t E = Pos + 1;
      if (E < S.size() && (S[E] == '+' || S[E] == '-'))
        ++E;
      if (E < S.size() && std::isdigit(static_cast<unsigned char>(S[E]))) {
        Pos = E;
        Digits();
      }
    }
    double V = std::strtod(S.substr(B, Pos - B).c_str(), nullptr);
    if (!std::isfinite(V))
      fail("literal out of range");
    return V;
  }
  /// Lookahead for a keyword followed by a non-identifier character.
  bool tryKeyword(const std::string &KW) {
    skipWs();
    if (S.compare(Pos, KW.size(), KW) != 0)
      return false;
    size_t After = Pos + KW.size();
    if (After < S.size() &&
        (std::isalnum(static_cast<unsigned char>(S[After])) ||
         S[After] == '_'))
      return false;
    Pos = After;
    return true;
  }

  /// Affine expression: [-] term ((+|-) term)*, term = [k *] ident | k.
  AffineExpr affine() {
    AffineExpr E;
    int64_t Sign = 1;
    if (tryConsume('-'))
      Sign = -1;
    parseTerm(E, Sign);
    for (;;) {
      if (tryConsume('+'))
        parseTerm(E, 1);
      else if (tryConsume('-'))
        parseTerm(E, -1);
      else
        break;
    }
    return E;
  }

private:
  void parseTerm(AffineExpr &E, int64_t Sign) {
    if (atNumber()) {
      int64_t K = Sign * number();
      if (tryConsume('*')) {
        E.Terms.push_back({ident(), K});
        return;
      }
      E.K += K;
      return;
    }
    E.Terms.push_back({ident(), Sign});
  }

  const std::string &S;
  size_t Pos = 0;
  DiagnosticEngine &Diags;
  const std::string &File;
  unsigned LineNo;
};

/// Two references name one read when they print alike.
std::string refKey(const Reference &R) {
  std::string K = R.Array + "(";
  for (const AffineExpr &E : R.Subs)
    K += printAffine(E) + ",";
  return K + ")";
}

Reference parseRef(LineLexer &L) {
  Reference R;
  R.Array = L.ident();
  L.expect('(');
  do {
    R.Subs.push_back(L.affine());
  } while (L.tryConsume(','));
  L.expect(')');
  return R;
}

/// Parses one double-valued expression (ValueExpr.h) on a line, by
/// precedence: + - bind loosest, then * /, then unary -. In a statement
/// body or accumulator operand, array references become the statement's
/// reads (the written reference, inside an accumulator, the value just
/// computed); in an initial value, the index names become Index leaves.
class ValueParser {
public:
  /// A body or accumulator operand of \p St. \p Prog, when given, must
  /// declare every array the expression reads.
  ValueParser(LineLexer &L, const Program *Prog, Statement &St, bool InAccum)
      : L(L), Prog(Prog), St(&St), InAccum(InAccum) {}
  /// An initial value over the index names \p Names.
  ValueParser(LineLexer &L, const std::vector<std::string> &Names)
      : L(L), Names(&Names) {}

  ValueExpr parse() {
    Parsed P = expr();
    return std::move(P.E);
  }

private:
  struct Parsed {
    ValueExpr E;
    unsigned Depth = 1;
  };
  LineLexer &L;
  const Program *Prog = nullptr;
  Statement *St = nullptr;
  bool InAccum = false;
  const std::vector<std::string> *Names = nullptr;
  unsigned Nest = 0, Nodes = 0;

  Parsed node(ValueExpr E, unsigned Depth) {
    if (++Nodes > MaxValueNodes)
      L.fail("expression has more than " + std::to_string(MaxValueNodes) +
             " operations and operands");
    if (Depth > MaxValueDepth)
      L.fail("expression nests deeper than " + std::to_string(MaxValueDepth) +
             " levels");
    return {std::move(E), Depth};
  }
  Parsed binary(ValueExpr::Kind K, Parsed A, Parsed B) {
    unsigned D = std::max(A.Depth, B.Depth) + 1;
    return node(ValueExpr::op(K, {std::move(A.E), std::move(B.E)}), D);
  }
  /// Entering a nested construct: bounds the parser's own recursion.
  void enter() {
    if (++Nest > MaxValueDepth)
      L.fail("expression nests deeper than " + std::to_string(MaxValueDepth) +
             " levels");
  }

  Parsed expr() {
    Parsed A = term();
    for (;;) {
      if (L.tryConsume('+'))
        A = binary(ValueExpr::Kind::Add, std::move(A), term());
      else if (L.tryConsume('-'))
        A = binary(ValueExpr::Kind::Sub, std::move(A), term());
      else
        return A;
    }
  }
  Parsed term() {
    Parsed A = unary();
    for (;;) {
      if (L.tryConsume('*'))
        A = binary(ValueExpr::Kind::Mul, std::move(A), unary());
      else if (L.tryConsume('/'))
        A = binary(ValueExpr::Kind::Div, std::move(A), unary());
      else
        return A;
    }
  }
  Parsed unary() {
    if (!L.tryConsume('-'))
      return primary();
    enter();
    Parsed A = unary();
    --Nest;
    unsigned D = A.Depth + 1;
    return node(ValueExpr::op(ValueExpr::Kind::Neg, {std::move(A.E)}), D);
  }
  Parsed primary() {
    if (L.atNumber())
      return node(ValueExpr::num(L.literal()), 1);
    if (L.tryConsume('(')) {
      enter();
      Parsed A = expr();
      --Nest;
      L.expect(')');
      return A;
    }
    if (!L.atIdent())
      L.fail("expected a number, '(', a function or an array reference");
    L.skipWs();
    size_t At = L.pos();
    std::string Name = L.ident();
    static const ValueExpr::Kind Fns[] = {
        ValueExpr::Kind::Abs, ValueExpr::Kind::Min, ValueExpr::Kind::Max,
        ValueExpr::Kind::Sin, ValueExpr::Kind::Cos};
    for (ValueExpr::Kind K : Fns)
      if (Name == valueFnName(K))
        return call(K, Name);
    if (Names) {
      for (unsigned D = 0; D != Names->size(); ++D)
        if ((*Names)[D] == Name)
          return node(ValueExpr::leaf(ValueExpr::Kind::Index, D), 1);
      L.fail(L.peek() == '(' ? "unknown function '" + Name + "'"
                             : "unknown index name '" + Name + "'");
    }
    if (L.peek() != '(')
      L.fail("'" + Name +
             "' is not an array reference (a right-hand side reads arrays "
             "and literals)");
    L.seek(At);
    if (Prog && !Prog->arrays().count(Name))
      L.fail("unknown function or undeclared array '" + Name + "'");
    return node(reference(parseRef(L)), 1);
  }
  Parsed call(ValueExpr::Kind K, const std::string &Name) {
    if (!Names && (K == ValueExpr::Kind::Sin || K == ValueExpr::Kind::Cos))
      L.fail("'" + Name + "' is only allowed in an init expression");
    L.expect('(');
    enter();
    std::vector<ValueExpr> Ops;
    unsigned D = 0;
    do {
      Parsed A = expr();
      D = std::max(D, A.Depth);
      Ops.push_back(std::move(A.E));
    } while (L.tryConsume(','));
    --Nest;
    L.expect(')');
    if (Ops.size() != valueArity(K))
      L.fail("'" + Name + "' takes " + std::to_string(valueArity(K)) +
             (valueArity(K) == 1 ? " argument" : " arguments"));
    return node(ValueExpr::op(K, std::move(Ops)), D + 1);
  }
  /// A read of the statement, or inside an accumulator its written value.
  ValueExpr reference(const Reference &R) {
    std::string Key = refKey(R);
    if (InAccum && Key == refKey(St->Write))
      return ValueExpr::leaf(ValueExpr::Kind::Value, 0);
    for (unsigned K = 0; K != St->Reads.size(); ++K)
      if (refKey(St->Reads[K]) == Key)
        return ValueExpr::leaf(ValueExpr::Kind::Read, K);
    St->Reads.push_back(R);
    return ValueExpr::leaf(ValueExpr::Kind::Read,
                           static_cast<unsigned>(St->Reads.size() - 1));
  }
};

/// True if the next identifier is one of the statement option keywords.
bool peekOption(const LineLexer &L) {
  LineLexer Copy = L;
  return Copy.tryKeyword("onhome") || Copy.tryKeyword("cost") ||
         Copy.tryKeyword("accum");
}

/// One statement line, W(subs) = <body> [onhome R] [cost c] [accum op name
/// <operand>]. \p Prog, when given, must declare the arrays the
/// expressions read; \p AccumAt receives where the accumulator's name is.
Statement parseStatementLine(LineLexer &L, const Program *Prog,
                         SourceLoc *AccumAt) {
  Statement S;
  S.Write = parseRef(L);
  L.expect('=');
  if (L.atEnd() || peekOption(L))
    L.fail("a statement needs a right-hand side expression");
  S.Body = ValueParser(L, Prog, S, /*InAccum=*/false).parse();
  for (;;) {
    if (L.tryKeyword("onhome")) {
      S.OnHome.push_back(parseRef(L));
      continue;
    }
    if (L.tryKeyword("cost")) {
      S.Cost = L.literal();
      continue;
    }
    if (L.tryKeyword("accum")) {
      if (S.Acc)
        L.fail("a statement has at most one 'accum' clause");
      Accumulate A;
      if (L.tryKeyword("sum"))
        A.O = Accumulate::Op::Sum;
      else if (L.tryKeyword("max"))
        A.O = Accumulate::Op::Max;
      else
        L.fail("unknown accumulation op (expected sum or max)");
      if (AccumAt)
        *AccumAt = L.loc();
      A.Name = L.ident();
      A.Operand = ValueParser(L, Prog, S, /*InAccum=*/true).parse();
      S.Acc = std::move(A);
      continue;
    }
    break;
  }
  if (L.atEnd())
    return S;
  if (LineLexer(L).tryKeyword("sem"))
    L.fail("'sem' is gone: a statement computes its right-hand side "
           "expression");
  L.fail("expected an operator or a statement option (onhome, cost, "
         "accum)");
}

/// An initial value, (<index names>) <expr>.
ValueExpr parseInitValue(LineLexer &L) {
  L.expect('(');
  std::vector<std::string> Names;
  do {
    Names.push_back(L.ident());
  } while (L.tryConsume(','));
  L.expect(')');
  return ValueParser(L, Names).parse();
}

/// The reduce names of \p Phases, timeloop bodies included.
void reduceNames(const std::vector<Phase> &Phases,
                 std::set<std::string> &Out) {
  for (const Phase &Ph : Phases) {
    if (Ph.K == Phase::Kind::Reduce)
      Out.insert(Ph.Reduce.Name);
    reduceNames(Ph.Body, Out);
  }
}

class HpfParser {
public:
  HpfParser(const std::string &Text, DiagnosticEngine &Diags,
            const std::string &File)
      : Text(Text), Diags(Diags), File(File) {}

  Expected<std::unique_ptr<Program>> parse() {
    unsigned ErrorsBefore = Diags.errorCount();
    std::istringstream In(Text);
    std::string Line;
    unsigned LineNo = 0;
    while (std::getline(In, Line)) {
      ++LineNo;
      LineLexer L(Line, Diags, File, LineNo);
      if (L.atEnd())
        continue;
      try {
        dispatch(L);
        if (!L.atEnd())
          L.fail("unexpected trailing input");
      } catch (ParseFailure &) {
        // Reported; resynchronize at the next line.
      }
    }
    if (!Prog)
      Diags.error(SourceLoc(File), "missing 'program' line");
    else if (InNest)
      Diags.error(SourceLoc(File, LineNo), "unterminated 'nest' block");
    else if (!SeqStack.empty())
      Diags.error(SourceLoc(File, LineNo), "unterminated 'timeloop' block");
    else if (InProc)
      Diags.error(SourceLoc(File, LineNo), "unterminated 'procedure' block");
    if (Diags.errorCount() != ErrorsBefore)
      return Expected<std::unique_ptr<Program>>::failure();
    return std::move(Prog);
  }

private:
  const std::string &Text;
  DiagnosticEngine &Diags;
  const std::string &File;
  std::unique_ptr<Program> Prog;
  Procedure *CurProc = nullptr;
  std::vector<Phase *> SeqStack; // open timeloops
  bool InProc = false, InNest = false;
  ComputeNest PendingNest;
  /// The open procedure's accumulator clauses: each must name one of its
  /// reduce phases, which may follow the statement.
  std::vector<std::pair<std::string, SourceLoc>> PendingAccums;

  void dispatch(LineLexer &L) {
    if (L.tryKeyword("program")) {
      if (Prog)
        L.fail("duplicate 'program' line");
      Prog = std::make_unique<Program>(L.name());
      return;
    }
    if (!Prog)
      L.fail("'program' must come first");
    if (L.tryKeyword("param")) {
      while (L.atIdent())
        Prog->addParam(L.ident());
      return;
    }
    if (L.tryKeyword("processors")) {
      std::string Name = L.ident();
      L.expect('(');
      std::vector<ProcArray::Dim> Dims;
      do {
        if (L.tryConsume('*')) {
          Dims.push_back(Program::procDimSym(L.ident()));
        } else {
          int64_t Extent = L.number();
          if (Extent < 1)
            L.fail("a processor extent must be at least 1");
          Dims.push_back(Program::procDim(Extent));
        }
      } while (L.tryConsume(','));
      L.expect(')');
      Prog->addProcs(Name, Dims);
      return;
    }
    if (L.tryKeyword("template")) {
      std::string Name = L.ident();
      Prog->addTemplate(Name, parseRanges(L));
      return;
    }
    if (L.tryKeyword("array")) {
      std::string Name = L.ident();
      std::vector<DimRange> Dims = parseRanges(L);
      unsigned ElemBytes = 8;
      if (L.tryKeyword("bytes"))
        ElemBytes = static_cast<unsigned>(L.number());
      ArrayDecl &Decl = Prog->addArray(Name, std::move(Dims), ElemBytes);
      if (L.tryKeyword("align")) {
        // align (i,j,...) with T(expr|*, ...)
        L.expect('(');
        std::vector<std::string> Idx;
        do {
          Idx.push_back(L.ident());
        } while (L.tryConsume(','));
        L.expect(')');
        if (!L.tryKeyword("with"))
          L.fail("expected 'with' after the align index list");
        std::string T = L.ident();
        L.expect('(');
        Align A;
        A.ArrayName = Name;
        A.TemplateName = T;
        do {
          if (L.tryConsume('*')) {
            A.Terms.push_back(alignStar());
            continue;
          }
          AffineExpr E = L.affine();
          // The expression must be c or s*<align-var>+c.
          if (E.Terms.empty()) {
            A.Terms.push_back(alignConst(E.K));
            continue;
          }
          if (E.Terms.size() != 1)
            L.fail("nonlinear align expression");
          unsigned Dim = ~0u;
          for (unsigned I = 0; I != Idx.size(); ++I)
            if (Idx[I] == E.Terms[0].first)
              Dim = I;
          if (Dim == ~0u)
            L.fail("align expression uses unbound index name '" +
                   E.Terms[0].first + "'");
          A.Terms.push_back(alignDim(Dim, E.Terms[0].second, E.K));
        } while (L.tryConsume(','));
        L.expect(')');
        Prog->addAlign(A);
      }
      if (L.tryKeyword("init"))
        Decl.Init = parseInitValue(L);
      return;
    }
    if (L.tryKeyword("distribute")) {
      std::string T = L.ident();
      L.expect('(');
      Distribute D;
      D.TemplateName = T;
      do {
        if (L.tryConsume('*')) {
          D.Specs.push_back(distStar());
        } else if (L.tryKeyword("block")) {
          D.Specs.push_back(distBlock());
        } else if (L.tryKeyword("cyclic")) {
          if (L.tryConsume('(')) {
            int64_t K = L.number();
            if (K < 1)
              L.fail("cyclic(k) needs k >= 1");
            D.Specs.push_back(distCyclicK(K));
            L.expect(')');
          } else {
            D.Specs.push_back(distCyclic());
          }
        } else {
          L.fail("unknown distribution kind (expected *, block, cyclic, "
                 "or cyclic(k))");
        }
      } while (L.tryConsume(','));
      L.expect(')');
      if (!L.tryKeyword("onto"))
        L.fail("expected 'onto' after the distribution list");
      D.ProcName = L.ident();
      Prog->addDistribute(D);
      return;
    }
    if (L.tryKeyword("procedure")) {
      if (InProc)
        L.fail("nested procedures are not supported");
      CurProc = &Prog->addProcedure(L.name());
      InProc = true;
      return;
    }
    if (L.tryKeyword("endprocedure")) {
      if (!InProc)
        L.fail("'endprocedure' without an open procedure");
      if (InNest)
        L.fail("'endprocedure' inside an open nest");
      if (!SeqStack.empty())
        L.fail("'endprocedure' inside an open timeloop");
      std::set<std::string> Reduces;
      reduceNames(CurProc->Phases, Reduces);
      for (const auto &[Name, At] : PendingAccums)
        if (!Reduces.count(Name))
          Diags.error(At, "accum names '" + Name +
                              "', which is not a reduce of procedure '" +
                              CurProc->Name + "'");
      PendingAccums.clear();
      InProc = false;
      CurProc = nullptr;
      return;
    }
    if (L.tryKeyword("timeloop")) {
      if (!InProc || InNest)
        L.fail("'timeloop' must appear inside a procedure, outside nests");
      std::string Var = L.ident();
      L.expect('=');
      int64_t Lo = L.number();
      L.expect(',');
      int64_t Hi = L.number();
      if (Lo != 1)
        L.fail("timeloop must start at 1");
      Phase &Ph = SeqStack.empty()
                      ? Prog->addSeqLoop(*CurProc, Var, Hi)
                      : [&]() -> Phase & {
        Phase Sub;
        Sub.K = Phase::Kind::SeqLoop;
        Sub.SeqVar = Var;
        Sub.SeqCount = Hi;
        SeqStack.back()->Body.push_back(std::move(Sub));
        return SeqStack.back()->Body.back();
      }();
      SeqStack.push_back(&Ph);
      return;
    }
    if (L.tryKeyword("endloop")) {
      if (SeqStack.empty())
        L.fail("'endloop' without an open timeloop");
      if (InNest)
        L.fail("'endloop' inside an open nest");
      SeqStack.pop_back();
      return;
    }
    if (L.tryKeyword("nest")) {
      if (!InProc)
        L.fail("'nest' outside a procedure");
      if (InNest)
        L.fail("nests do not nest; close the previous one with 'endnest'");
      PendingNest = ComputeNest();
      PendingNest.Name = L.name();
      if (L.tryKeyword("vectorize"))
        PendingNest.VectorizeLevel = static_cast<unsigned>(L.number());
      InNest = true;
      return;
    }
    if (L.tryKeyword("endnest")) {
      if (!InNest)
        L.fail("'endnest' without an open nest");
      if (SeqStack.empty())
        Prog->addNest(*CurProc, PendingNest);
      else
        Prog->addNestIn(*SeqStack.back(), PendingNest);
      InNest = false;
      return;
    }
    if (L.tryKeyword("do")) {
      if (!InNest)
        L.fail("'do' outside a nest");
      std::string Var = L.ident();
      L.expect('=');
      AffineExpr Lo = L.affine();
      L.expect(',');
      AffineExpr Hi = L.affine();
      PendingNest.Loops.push_back(loop(Var, Lo, Hi));
      return;
    }
    if (L.tryKeyword("reduce")) {
      if (!InProc || InNest)
        L.fail("'reduce' must appear inside a procedure, outside nests");
      Reduction R;
      if (L.tryKeyword("sum"))
        R.O = Reduction::Op::Sum;
      else if (L.tryKeyword("maxloc"))
        R.O = Reduction::Op::MaxLoc;
      else if (L.tryKeyword("max"))
        R.O = Reduction::Op::Max;
      else
        L.fail("unknown reduction op (expected sum, max, or maxloc)");
      R.Name = L.ident();
      if (L.tryKeyword("elems"))
        R.Elems = static_cast<uint64_t>(L.number());
      if (SeqStack.empty())
        Prog->addReduction(*CurProc, R);
      else
        Prog->addReductionIn(*SeqStack.back(), R);
      return;
    }
    // Otherwise: an assignment statement  W(subs) = <expr> [options].
    if (!InNest)
      L.fail("statement outside a nest");
    SourceLoc AccumAt;
    Statement S = parseStatementLine(L, Prog.get(), &AccumAt);
    if (S.Acc)
      PendingAccums.push_back({S.Acc->Name, std::move(AccumAt)});
    PendingNest.Stmts.push_back(std::move(S));
  }

  std::vector<DimRange> parseRanges(LineLexer &L) {
    L.expect('(');
    std::vector<DimRange> Ranges;
    do {
      AffineExpr Lo = L.affine();
      L.expect(':');
      AffineExpr Hi = L.affine();
      Ranges.push_back(range(Lo, Hi));
    } while (L.tryConsume(','));
    L.expect(')');
    return Ranges;
  }
};

} // namespace

Expected<std::unique_ptr<Program>>
hpf::parseHpfProgram(const std::string &Text, DiagnosticEngine &Diags,
                     const std::string &FileName) {
  return HpfParser(Text, Diags, FileName).parse();
}

std::unique_ptr<Program> hpf::parseHpfProgram(const std::string &Text) {
  DiagnosticEngine Diags;
  Expected<std::unique_ptr<Program>> P = parseHpfProgram(Text, Diags);
  if (!P) {
    std::fputs(Diags.str().c_str(), stderr);
    std::fputs("hpf: malformed program text rejected\n", stderr);
    std::abort();
  }
  return P.take();
}

namespace {

/// Runs \p Parse over the one-line \p Text for the builder API, aborting
/// on malformed input like the trusted parseHpfProgram.
template <typename T, typename Fn> T parseTrusted(const std::string &Text, Fn Parse) {
  DiagnosticEngine Diags;
  std::string File = "<builder>";
  LineLexer L(Text, Diags, File, 1);
  try {
    T Out = Parse(L);
    if (!L.atEnd())
      L.fail("unexpected trailing input");
    return Out;
  } catch (ParseFailure &) {
    std::fputs(Diags.str().c_str(), stderr);
    std::fputs("hpf: malformed builder text rejected\n", stderr);
    std::abort();
  }
}

} // namespace

Statement hpf::parseStatement(const std::string &Text) {
  return parseTrusted<Statement>(Text, [](LineLexer &L) {
    return parseStatementLine(L, nullptr, nullptr);
  });
}

ValueExpr hpf::parseInit(const std::string &Text) {
  return parseTrusted<ValueExpr>(Text, parseInitValue);
}
