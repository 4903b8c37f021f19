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

#include <cctype>
#include <cstdio>
#include <cstdlib>
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
  /// A non-negative decimal number, optionally with a fraction (costs).
  double real() {
    skipWs();
    if (!atNumber())
      fail("expected number");
    size_t B = Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    return std::strtod(S.substr(B, Pos - B).c_str(), nullptr);
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
      Prog->addArray(Name, std::move(Dims), ElemBytes);
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
    // Otherwise: an assignment statement  W(subs) = R(subs)... [options].
    if (!InNest)
      L.fail("statement outside a nest");
    Statement S;
    S.Write = parseRef(L);
    L.expect('=');
    while (L.atIdent() && !peekOption(L))
      S.Reads.push_back(parseRef(L));
    for (;;) {
      if (L.tryKeyword("onhome")) {
        S.OnHome.push_back(parseRef(L));
        continue;
      }
      if (L.tryKeyword("cost")) {
        S.Cost = L.real();
        continue;
      }
      if (L.tryKeyword("sem")) {
        S.SemanticsId = static_cast<int>(L.number());
        continue;
      }
      break;
    }
    PendingNest.Stmts.push_back(std::move(S));
  }

  /// True if the next identifier is one of the statement option keywords.
  bool peekOption(LineLexer &L) {
    LineLexer Copy = L;
    return Copy.tryKeyword("onhome") || Copy.tryKeyword("cost") ||
           Copy.tryKeyword("sem");
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
