//===- hpf/HpfPrinter.cpp - Print a Program in the textual syntax --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "hpf/HpfPrinter.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

using namespace dhpf;
using namespace dhpf::hpf;

namespace {

void printTerm(std::ostringstream &OS, const std::string &Name, int64_t Coef,
               bool First) {
  if (Coef < 0) {
    OS << '-';
    Coef = -Coef;
  } else if (!First) {
    OS << '+';
  }
  if (Coef != 1)
    OS << Coef << '*';
  OS << Name;
}

void printRanges(std::ostringstream &OS, const std::vector<DimRange> &Dims) {
  OS << '(';
  for (unsigned D = 0; D != Dims.size(); ++D) {
    if (D)
      OS << ", ";
    OS << printAffine(Dims[D].Lo) << ':' << printAffine(Dims[D].Hi);
  }
  OS << ')';
}

void printRef(std::ostringstream &OS, const Reference &R) {
  OS << R.Array << '(';
  for (unsigned I = 0; I != R.Subs.size(); ++I) {
    if (I)
      OS << ',';
    OS << printAffine(R.Subs[I]);
  }
  OS << ')';
}

/// Binding strength: + - loosest, then * /, then unary -, then operands.
int precedence(const ValueExpr &E) {
  switch (E.K) {
  case ValueExpr::Kind::Add:
  case ValueExpr::Kind::Sub:
    return 1;
  case ValueExpr::Kind::Mul:
  case ValueExpr::Kind::Div:
    return 2;
  case ValueExpr::Kind::Neg:
    return 3;
  case ValueExpr::Kind::Num:
    return std::signbit(E.Num) ? 3 : 4;
  default:
    return 4;
  }
}

/// Prints \p E with the fewest parentheses that reparse to the same tree
/// (operators associate to the left); \p Leaf prints reads, the computed
/// value and index names.
void printValue(std::ostringstream &OS, const ValueExpr &E,
                const std::function<void(const ValueExpr &)> &Leaf) {
  auto Operand = [&](const ValueExpr &Op, bool Paren) {
    if (Paren)
      OS << '(';
    printValue(OS, Op, Leaf);
    if (Paren)
      OS << ')';
  };
  int P = precedence(E);
  switch (E.K) {
  case ValueExpr::Kind::Num:
    if (std::signbit(E.Num))
      OS << '-' << printValueNumber(-E.Num);
    else
      OS << printValueNumber(E.Num);
    return;
  case ValueExpr::Kind::Read:
  case ValueExpr::Kind::Value:
  case ValueExpr::Kind::Index:
    Leaf(E);
    return;
  case ValueExpr::Kind::Neg:
    OS << '-';
    Operand(E.Ops[0], precedence(E.Ops[0]) < P);
    return;
  case ValueExpr::Kind::Add:
  case ValueExpr::Kind::Sub:
  case ValueExpr::Kind::Mul:
  case ValueExpr::Kind::Div: {
    static const char *Ops[] = {" + ", " - ", "*", "/"};
    Operand(E.Ops[0], precedence(E.Ops[0]) < P);
    OS << Ops[static_cast<int>(E.K) - static_cast<int>(ValueExpr::Kind::Add)];
    Operand(E.Ops[1], precedence(E.Ops[1]) <= P);
    return;
  }
  default:
    OS << valueFnName(E.K) << '(';
    for (size_t I = 0; I != E.Ops.size(); ++I) {
      if (I)
        OS << ", ";
      printValue(OS, E.Ops[I], Leaf);
    }
    OS << ')';
    return;
  }
}

/// An initial value: its index list, then the value over it.
void printInit(std::ostringstream &OS, const ValueExpr &E, unsigned Rank) {
  OS << " init (";
  for (unsigned D = 0; D != Rank; ++D)
    OS << (D ? "," : "") << 'a' << D;
  OS << ") ";
  printValue(OS, E, [&](const ValueExpr &L) { OS << 'a' << L.Index; });
}

/// Prints a double so a reparse recovers the identical value: integers
/// without a fraction, everything else with round-trip precision.
void printCost(std::ostringstream &OS, double V) {
  if (V == std::floor(V) && std::abs(V) < 1e15) {
    OS << static_cast<int64_t>(V);
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  OS << Buf;
}

void printNest(std::ostringstream &OS, const ComputeNest &N,
               const std::string &Pad) {
  OS << Pad << "nest " << N.Name;
  if (N.VectorizeLevel)
    OS << " vectorize " << N.VectorizeLevel;
  OS << '\n';
  for (const Loop &L : N.Loops)
    OS << Pad << "  do " << L.Var << " = " << printAffine(L.Lo) << ", "
       << printAffine(L.Hi) << '\n';
  for (const Statement &S : N.Stmts) {
    OS << Pad << "  ";
    printRef(OS, S.Write);
    OS << " = ";
    auto Leaf = [&](const ValueExpr &L) {
      printRef(OS, L.K == ValueExpr::Kind::Value ? S.Write : S.Reads[L.Index]);
    };
    printValue(OS, S.Body, Leaf);
    for (const Reference &R : S.OnHome) {
      OS << " onhome ";
      printRef(OS, R);
    }
    if (S.Cost != 1.0) {
      OS << " cost ";
      printCost(OS, S.Cost);
    }
    if (S.Acc) {
      OS << " accum "
         << (S.Acc->O == Accumulate::Op::Sum ? "sum " : "max ") << S.Acc->Name
         << ' ';
      printValue(OS, S.Acc->Operand, Leaf);
    }
    OS << '\n';
  }
  OS << Pad << "endnest\n";
}

void printPhase(std::ostringstream &OS, const Phase &Ph,
                const std::string &Pad) {
  switch (Ph.K) {
  case Phase::Kind::Nest:
    printNest(OS, Ph.Nest, Pad);
    break;
  case Phase::Kind::Reduce: {
    const Reduction &R = Ph.Reduce;
    OS << Pad << "reduce "
       << (R.O == Reduction::Op::Sum
               ? "sum"
               : R.O == Reduction::Op::Max ? "max" : "maxloc")
       << ' ' << R.Name;
    if (R.Elems != 1)
      OS << " elems " << R.Elems;
    OS << '\n';
    break;
  }
  case Phase::Kind::SeqLoop:
    OS << Pad << "timeloop " << Ph.SeqVar << " = 1, " << Ph.SeqCount << '\n';
    for (const Phase &Sub : Ph.Body)
      printPhase(OS, Sub, Pad + "  ");
    OS << Pad << "endloop\n";
    break;
  }
}

} // namespace

std::string hpf::printAffine(const AffineExpr &E) {
  std::ostringstream OS;
  bool First = true;
  for (const auto &[Name, Coef] : E.Terms) {
    if (Coef == 0)
      continue;
    printTerm(OS, Name, Coef, First);
    First = false;
  }
  if (E.K != 0 || First) {
    if (!First && E.K > 0)
      OS << '+';
    OS << E.K;
  }
  return OS.str();
}

std::string hpf::printHpfProgram(const Program &P) {
  std::ostringstream OS;
  OS << "program " << P.name() << '\n';
  if (!P.params().empty()) {
    OS << "param";
    for (const std::string &Pr : P.params())
      OS << ' ' << Pr;
    OS << '\n';
  }
  for (const auto &[Name, PA] : P.procArrays()) {
    OS << "processors " << Name << '(';
    for (unsigned D = 0; D != PA.Dims.size(); ++D) {
      if (D)
        OS << ", ";
      if (PA.Dims[D].isSymbolic())
        OS << '*' << PA.Dims[D].Symbol;
      else
        OS << PA.Dims[D].Fixed;
    }
    OS << ")\n";
  }
  for (const auto &[Name, T] : P.templates()) {
    OS << "template " << Name;
    printRanges(OS, T.Dims);
    OS << '\n';
  }
  for (const auto &[Name, A] : P.arrays()) {
    OS << "array " << Name;
    printRanges(OS, A.Dims);
    if (A.ElemBytes != 8)
      OS << " bytes " << A.ElemBytes;
    if (const Align *Al = P.alignOf(Name)) {
      OS << " align (";
      for (unsigned D = 0; D != A.Dims.size(); ++D)
        OS << (D ? "," : "") << 'a' << D;
      OS << ") with " << Al->TemplateName << '(';
      for (unsigned T = 0; T != Al->Terms.size(); ++T) {
        if (T)
          OS << ',';
        const AlignTerm &AT = Al->Terms[T];
        switch (AT.K) {
        case AlignTerm::Kind::Replicated:
          OS << '*';
          break;
        case AlignTerm::Kind::Constant:
          OS << AT.Constant;
          break;
        case AlignTerm::Kind::ArrayDim: {
          AffineExpr E("a" + std::to_string(AT.ArrayDim), AT.Stride,
                       AT.Offset);
          OS << printAffine(E);
          break;
        }
        }
      }
      OS << ')';
    }
    if (A.Init)
      printInit(OS, *A.Init, A.rank());
    OS << '\n';
  }
  for (const auto &[Name, D] : P.distributes()) {
    OS << "distribute " << Name << '(';
    for (unsigned I = 0; I != D.Specs.size(); ++I) {
      if (I)
        OS << ", ";
      switch (D.Specs[I].K) {
      case DistSpec::Kind::Star:
        OS << '*';
        break;
      case DistSpec::Kind::Block:
        OS << "block";
        break;
      case DistSpec::Kind::Cyclic:
        OS << "cyclic";
        break;
      case DistSpec::Kind::CyclicK:
        OS << "cyclic(" << D.Specs[I].BlockK << ')';
        break;
      }
    }
    OS << ") onto " << D.ProcName << '\n';
  }
  for (const Procedure &Proc : P.procedures()) {
    OS << "\nprocedure " << Proc.Name << '\n';
    for (const Phase &Ph : Proc.Phases)
      printPhase(OS, Ph, "  ");
    OS << "endprocedure\n";
  }
  return OS.str();
}
