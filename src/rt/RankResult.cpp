//===- rt/RankResult.cpp - Per-rank result dump, parse, and merge --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/RankResult.h"

#include "spmd/Layout.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace dhpf;
using namespace dhpf::rt;
using namespace dhpf::spmd;

namespace {

uint64_t bitsOf(double D) {
  uint64_t V;
  std::memcpy(&V, &D, 8);
  return V;
}

double doubleOf(uint64_t V) {
  double D;
  std::memcpy(&D, &V, 8);
  return D;
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

bool parseHex64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    int D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      D = C - 'A' + 10;
    else
      return false;
    V = (V << 4) | static_cast<uint64_t>(D);
  }
  Out = V;
  return true;
}

} // namespace

RankDump rt::dumpRank(const Interpreter &I, const net::Transport &T,
                      const RunResult &R) {
  RankDump D;
  D.Rank = T.rank();
  D.NP = T.size();
  D.R = R;
  D.OverlapNum = T.stats().BytesFlushedDuringCompute;
  D.OverlapDen = T.stats().WireBytesSent;
  for (const auto &[Name, V] : R.FinalAccums)
    D.AccumBits[Name] = bitsOf(V);
  for (const auto &[Name, A] : I.arrays()) {
    auto &Out = D.Elems[Name];
    for (size_t F = 0; F != A.size(); ++F) {
      int32_t Own = A.Owner.empty() ? -1 : A.Owner[F];
      bool Mine = Own == static_cast<int32_t>(D.Rank) ||
                  (Own < 0 && D.Rank == 0);
      if (Mine)
        Out.push_back({static_cast<int64_t>(F), bitsOf(A.at(F))});
    }
  }
  return D;
}

std::string rt::serializeRankDump(const RankDump &D) {
  std::ostringstream OS;
  OS << "rankdump " << D.Rank << " " << D.NP << "\n";
  OS << "stat messages " << D.R.Messages << " bytes " << D.R.Bytes
     << " span " << D.R.SpanCopies << " packed " << D.R.PackedCopies
     << " stmts " << D.R.StmtInstances << " upgrades "
     << D.R.InPlaceRuntimeUpgrades << " collmsgs " << D.R.CollMessages
     << " collbytes " << D.R.CollBytes << "\n";
  OS << "stat overlapnum " << D.OverlapNum << " overlapden " << D.OverlapDen
     << "\n";
  OS << "valid " << (D.R.Valid ? 1 : 0) << "\n";
  for (const std::string &V : D.R.Violations)
    OS << "viol " << V << "\n";
  for (const auto &[Name, Bits] : D.AccumBits)
    OS << "accum " << Name << " " << hex64(Bits) << "\n";
  for (const auto &[Name, Elems] : D.Elems) {
    OS << "array " << Name << " " << Elems.size() << "\n";
    for (const auto &[Flat, Bits] : Elems)
      OS << "e " << Flat << " " << hex64(Bits) << "\n";
  }
  OS << "end\n";
  return OS.str();
}

bool rt::parseRankDump(const std::string &Text, RankDump &Out,
                       std::string &Err) {
  std::istringstream IS(Text);
  std::string Line;
  Out = RankDump();
  bool SawHeader = false, SawEnd = false;
  std::vector<std::pair<int64_t, uint64_t>> *CurArray = nullptr;
  size_t CurLeft = 0;
  int LineNo = 0;
  auto Fail = [&](const std::string &Why) {
    Err = "rank dump line " + std::to_string(LineNo) + ": " + Why;
    return false;
  };
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Tok;
    LS >> Tok;
    if (Tok == "e") {
      if (!CurArray || CurLeft == 0)
        return Fail("stray element line");
      int64_t Flat;
      std::string Hex;
      uint64_t Bits;
      if (!(LS >> Flat >> Hex) || !parseHex64(Hex, Bits))
        return Fail("bad element");
      CurArray->push_back({Flat, Bits});
      --CurLeft;
      continue;
    }
    if (CurLeft != 0)
      return Fail("array dump truncated");
    CurArray = nullptr;
    if (Tok == "rankdump") {
      if (!(LS >> Out.Rank >> Out.NP) || Out.NP == 0 || Out.Rank >= Out.NP)
        return Fail("bad header");
      SawHeader = true;
    } else if (Tok == "stat") {
      std::string Key;
      while (LS >> Key) {
        uint64_t V;
        if (!(LS >> V))
          return Fail("bad stat value for " + Key);
        if (Key == "messages")
          Out.R.Messages = V;
        else if (Key == "bytes")
          Out.R.Bytes = V;
        else if (Key == "span")
          Out.R.SpanCopies = V;
        else if (Key == "packed")
          Out.R.PackedCopies = V;
        else if (Key == "stmts")
          Out.R.StmtInstances = V;
        else if (Key == "upgrades")
          Out.R.InPlaceRuntimeUpgrades = static_cast<unsigned>(V);
        else if (Key == "collmsgs")
          Out.R.CollMessages = V;
        else if (Key == "collbytes")
          Out.R.CollBytes = V;
        else if (Key == "overlapnum")
          Out.OverlapNum = V;
        else if (Key == "overlapden")
          Out.OverlapDen = V;
        else
          return Fail("unknown stat key " + Key);
      }
    } else if (Tok == "valid") {
      int V;
      if (!(LS >> V))
        return Fail("bad valid flag");
      Out.R.Valid = V != 0;
    } else if (Tok == "viol") {
      std::string Rest;
      std::getline(LS, Rest);
      if (!Rest.empty() && Rest[0] == ' ')
        Rest.erase(0, 1);
      Out.R.Violations.push_back(Rest);
    } else if (Tok == "accum") {
      std::string Name, Hex;
      uint64_t Bits;
      if (!(LS >> Name >> Hex) || !parseHex64(Hex, Bits))
        return Fail("bad accum");
      Out.AccumBits[Name] = Bits;
      Out.R.FinalAccums[Name] = doubleOf(Bits);
    } else if (Tok == "array") {
      std::string Name;
      size_t N;
      if (!(LS >> Name >> N))
        return Fail("bad array header");
      CurArray = &Out.Elems[Name];
      CurArray->reserve(N);
      CurLeft = N;
    } else if (Tok == "end") {
      SawEnd = true;
    } else {
      return Fail("unknown directive '" + Tok + "'");
    }
  }
  if (!SawHeader)
    return Fail("missing rankdump header");
  if (CurLeft != 0)
    return Fail("array dump truncated");
  if (!SawEnd)
    return Fail("missing end marker (rank died mid-dump?)");
  return true;
}

bool rt::mergeRankDumps(const SpmdProgram &SP, const RunConfig &Config,
                        const std::vector<RankDump> &Dumps, MergedRun &Out,
                        std::string &Err) {
  ProgramLayout L = resolveLayout(SP, Config);
  if (Dumps.size() != L.NumProcs) {
    Err = "have " + std::to_string(Dumps.size()) + " rank dumps, need " +
          std::to_string(L.NumProcs);
    return false;
  }
  std::vector<const RankDump *> ByRank(L.NumProcs, nullptr);
  for (const RankDump &D : Dumps) {
    if (D.NP != L.NumProcs || D.Rank >= L.NumProcs) {
      Err = "rank dump " + std::to_string(D.Rank) + "/" +
            std::to_string(D.NP) + " does not match the layout";
      return false;
    }
    if (ByRank[D.Rank]) {
      Err = "duplicate dump for rank " + std::to_string(D.Rank);
      return false;
    }
    ByRank[D.Rank] = &D;
  }

  Out.R = RunResult();
  Out.Arrays = buildArrayStores(SP, Config, L);
  uint64_t ONum = 0, ODen = 0;
  for (unsigned P = 0; P != L.NumProcs; ++P) {
    const RankDump &D = *ByRank[P];
    Out.R.Messages += D.R.Messages;
    Out.R.Bytes += D.R.Bytes;
    Out.R.SpanCopies += D.R.SpanCopies;
    Out.R.PackedCopies += D.R.PackedCopies;
    Out.R.StmtInstances += D.R.StmtInstances;
    Out.R.CollMessages += D.R.CollMessages;
    Out.R.CollBytes += D.R.CollBytes;
    Out.MaxRankCollMessages =
        std::max(Out.MaxRankCollMessages, D.R.CollMessages);
    Out.MaxRankCollBytes = std::max(Out.MaxRankCollBytes, D.R.CollBytes);
    ONum += D.OverlapNum;
    ODen += D.OverlapDen;
    if (!D.R.Valid)
      Out.R.Valid = false;
    for (const std::string &V : D.R.Violations)
      if (Out.R.Violations.size() < 40)
        Out.R.Violations.push_back("rank " + std::to_string(P) + ": " + V);
    // Broadcast values must agree bitwise across ranks.
    if (D.R.InPlaceRuntimeUpgrades !=
        ByRank[0]->R.InPlaceRuntimeUpgrades) {
      Err = "rank " + std::to_string(P) +
            " disagrees on in-place runtime upgrades";
      return false;
    }
    for (const auto &[Name, Bits] : D.AccumBits) {
      auto It = ByRank[0]->AccumBits.find(Name);
      if (It == ByRank[0]->AccumBits.end() || It->second != Bits) {
        Err = "rank " + std::to_string(P) +
              " disagrees on broadcast accumulator '" + Name + "'";
        return false;
      }
    }
    for (const auto &[Name, Elems] : D.Elems) {
      auto AIt = Out.Arrays.find(Name);
      if (AIt == Out.Arrays.end()) {
        Err = "rank " + std::to_string(P) + " dumped unknown array '" +
              Name + "'";
        return false;
      }
      for (const auto &[Flat, Bits] : Elems) {
        if (Flat < 0 || Flat >= static_cast<int64_t>(AIt->second.size())) {
          Err = "rank " + std::to_string(P) +
                " dumped out-of-range element of '" + Name + "'";
          return false;
        }
        AIt->second.at(Flat) = doubleOf(Bits);
      }
    }
  }
  Out.R.InPlaceRuntimeUpgrades = ByRank[0]->R.InPlaceRuntimeUpgrades;
  Out.R.FinalAccums = ByRank[0]->R.FinalAccums;
  Out.R.OverlapRatio = ODen ? double(ONum) / double(ODen) : 0.0;
  return true;
}
