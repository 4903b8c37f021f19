//===- spmd/SpmdProgram.cpp - Compiled SPMD program printing -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/SpmdProgram.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace dhpf;
using namespace dhpf::spmd;

namespace {

void collectReduces(const SpmdNode &N, std::vector<std::string> &Out) {
  if (N.K == SpmdNode::Kind::Reduce)
    Out.push_back(N.RedName);
  for (const auto &C : N.Children)
    collectReduces(*C, Out);
}

void printNode(const SpmdNode &N, const SpmdProgram &P, unsigned Indent,
               std::ostringstream &OS) {
  std::string Pad(Indent * 2, ' ');
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    for (const auto &C : N.Children)
      printNode(*C, P, Indent, OS);
    break;
  case SpmdNode::Kind::TimeLoop:
    OS << Pad << "do " << N.SeqVar << " = " << N.SeqLo.str() << ", "
       << N.SeqHi.str() << "   ! sequential\n";
    for (const auto &C : N.Children)
      printNode(*C, P, Indent + 1, OS);
    OS << Pad << "enddo\n";
    break;
  case SpmdNode::Kind::Compute:
    OS << Pad << "! compute " << N.NestName << '\n';
    OS << cg::printAst(*N.Loops, Indent);
    break;
  case SpmdNode::Kind::Send: {
    const CommEvent &Ev = P.Events[N.EventId];
    OS << Pad << "! pack & send " << Ev.Array << " (event " << Ev.Id
       << (Ev.InPlaceProven ? ", in-place" : "") << ")\n";
    OS << cg::printAst(*Ev.SendLoops, Indent);
    break;
  }
  case SpmdNode::Kind::Recv: {
    const CommEvent &Ev = P.Events[N.EventId];
    OS << Pad << "! recv & unpack " << Ev.Array << " (event " << Ev.Id
       << (Ev.InPlaceProven ? ", in-place" : "") << ")\n";
    OS << cg::printAst(*Ev.RecvLoops, Indent);
    break;
  }
  case SpmdNode::Kind::Reduce:
    OS << Pad << "! allreduce("
       << (N.RedOp == SpmdNode::ReduceOp::Max ? "max" : "sum") << ") of "
       << N.RedName << '\n';
    break;
  }
}

} // namespace

std::string SpmdProgram::print() const {
  std::ostringstream OS;
  OS << "! SPMD node program";
  if (Source)
    OS << " for " << Source->name();
  OS << " (myid dims:";
  for (unsigned S : MySlots)
    OS << ' ' << Vars.name(S);
  OS << ")\n";
  if (Root)
    printNode(*Root, *this, 0, OS);
  return OS.str();
}

std::vector<std::string> SpmdProgram::accumulators() const {
  std::vector<std::string> Names;
  if (Root)
    collectReduces(*Root, Names);
  for (const CompiledStmt &S : Stmts)
    if (S.Acc)
      Names.push_back(S.Acc->Name);
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

uint32_t spmd::accumSlot(const std::vector<std::string> &Names,
                         const std::string &Name) {
  auto It = std::lower_bound(Names.begin(), Names.end(), Name);
  assert(It != Names.end() && *It == Name && "unknown accumulator");
  return static_cast<uint32_t>(It - Names.begin());
}
