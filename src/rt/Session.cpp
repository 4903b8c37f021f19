//===- rt/Session.cpp - Shared program/session resolution ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Session.h"

#include "hpf/HpfPrinter.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

using namespace dhpf;
using namespace dhpf::rt;

void Session::setup(const spmd::SpmdProgram &, spmd::Interpreter &I) const {
  I.seedArrays();
}

bool rt::parseIntArg(const std::string &Tok, int64_t Min, int64_t &Out) {
  if (Tok.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Tok.c_str(), &End, 10);
  if (errno != 0 || End != Tok.c_str() + Tok.size() || V < Min)
    return false;
  Out = V;
  return true;
}

bool rt::parseProcsArg(const std::string &List, std::vector<int64_t> &Shape,
                       std::string &Err) {
  Shape.clear();
  std::stringstream SS(List);
  std::string Tok;
  while (std::getline(SS, Tok, ',')) {
    int64_t E = 0;
    if (!parseIntArg(Tok, 1, E)) {
      Err = "invalid --procs extent '" + Tok + "'";
      return false;
    }
    Shape.push_back(E);
  }
  if (Shape.empty()) {
    Err = "empty --procs list";
    return false;
  }
  return true;
}

bool rt::parseParamArg(const std::string &KV,
                       std::map<std::string, int64_t> &Params,
                       std::string &Err) {
  size_t Eq = KV.find('=');
  int64_t V = 0;
  if (Eq == std::string::npos || Eq == 0 ||
      !parseIntArg(KV.substr(Eq + 1), INT64_MIN, V)) {
    Err = "--param expects name=value, got '" + KV + "'";
    return false;
  }
  Params[KV.substr(0, Eq)] = V;
  return true;
}

std::optional<Session> rt::resolveSession(const spmd::SpmdProgram &SP,
                                          const SessionOptions &Opts,
                                          std::string &Err) {
  Session S;
  S.ProgName = SP.Source ? SP.Source->name() : "<unknown>";
  S.Config.Params = Opts.Params;
  S.Reg = apps::findApp(S.ProgName);
  if (S.Reg) {
    apps::AppInstance App = S.Reg->MakeCanonical();
    S.Canonical = SP.Source && hpf::printHpfProgram(*App.Prog) ==
                                   hpf::printHpfProgram(*SP.Source);
  }

  // Processor-array extents: an explicit --procs wins; otherwise map -p
  // onto the benchmark's grid, or put all processors on the first
  // symbolic dimension. Fixed extents are the declared ones, so a program
  // whose extents are all fixed runs, and is reported, on its declared
  // shape whatever -p says.
  bool AnySymbolic = false;
  for (const hpf::VPDimInfo &D : SP.ProcDims)
    AnySymbolic |= !D.ProcSym.empty();
  S.Shape = Opts.ProcShape;
  if (S.Shape.empty() && S.Reg && AnySymbolic) {
    S.Shape = S.Reg->ProcShape(Opts.NumProcs);
    if (S.Shape.empty()) {
      Err = "cannot map " + std::to_string(Opts.NumProcs) +
            " processors onto the '" + S.ProgName + "' grid";
      return std::nullopt;
    }
  } else if (S.Shape.empty()) {
    bool First = true;
    for (const hpf::VPDimInfo &D : SP.ProcDims) {
      if (D.ProcSym.empty())
        S.Shape.push_back(D.ProcFixed);
      else {
        S.Shape.push_back(First ? Opts.NumProcs : 1);
        First = false;
      }
    }
  }
  if (!S.Shape.empty()) {
    if (S.Shape.size() != SP.ProcDims.size()) {
      Err = "processor shape has " + std::to_string(S.Shape.size()) +
            " extents but '" + SP.ProcName + "' has " +
            std::to_string(SP.ProcDims.size()) + " dimensions";
      return std::nullopt;
    }
    S.Config.ProcExtents[SP.ProcName] = S.Shape;
  }
  return S;
}
