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

using namespace dhpf;
using namespace dhpf::rt;
using namespace dhpf::spmd;

namespace {

constexpr char Magic[8] = {'d', 'h', 'p', 'f', 'r', 'a', 'n', 'k'};
constexpr uint32_t Version = 3;
constexpr uint32_t ByteOrderProbe = 0x01020304;
/// Magic, version, byte-order probe and the leading total: the prefix that
/// identifies a result file.
constexpr size_t IdentBytes = 24;
/// The trailing total and checksum.
constexpr size_t TrailerBytes = 16;

uint64_t bitsOf(double D) {
  uint64_t V = 0;
  std::memcpy(&V, &D, 8);
  return V;
}

/// FNV-1a's multiply and xor over 8-byte words, then over the tail bytes:
/// each step is a bijection of the running hash, so any changed word, and
/// so any flipped byte, changes the result.
uint64_t checksum(const char *P, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    H ^= W;
    H *= 0x100000001b3ull;
  }
  for (; I != N; ++I) {
    H ^= static_cast<unsigned char>(P[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t wordAt(const std::string &B, size_t Pos) {
  uint64_t V = 0;
  std::memcpy(&V, B.data() + Pos, 8);
  return V;
}

void putWord(std::string &B, uint64_t V) {
  B.append(reinterpret_cast<const char *>(&V), 8);
}

void putString(std::string &B, const std::string &S) {
  putWord(B, S.size());
  B += S;
}

/// Reads words and strings from [Pos, End), checking every length and
/// count against the bytes that remain before using it.
struct Reader {
  const char *Data;
  size_t Pos, End;
  std::string &Err;

  bool fail(const std::string &Why) {
    Err = "result file: " + Why;
    return false;
  }
  size_t left() const { return End - Pos; }
  bool word(uint64_t &V, const std::string &What) {
    if (left() < 8)
      return fail("no room for the " + What);
    std::memcpy(&V, Data + Pos, 8);
    Pos += 8;
    return true;
  }
  /// A count of records that take at least \p MinBytes each.
  bool count(uint64_t &N, size_t MinBytes, const std::string &What) {
    if (!word(N, What))
      return false;
    if (N > left() / MinBytes)
      return fail(What + " " + std::to_string(N) +
                  " exceeds the " + std::to_string(left()) +
                  " bytes that remain");
    return true;
  }
  bool string(std::string &S, const std::string &What) {
    uint64_t N = 0;
    if (!count(N, 1, What))
      return false;
    S.assign(Data + Pos, N);
    Pos += N;
    return true;
  }
};

} // namespace

RankDump rt::dumpRank(const Interpreter &I, const net::Transport &T,
                      const RunResult &R) {
  RankDump D;
  D.Rank = T.rank();
  D.NP = T.size();
  D.R = R;
  D.OverlapNum = T.stats().BytesFlushedDuringCompute;
  D.OverlapDen = T.stats().WireBytesSent;
  D.Owned = I.ownedValues(D.Rank);
  return D;
}

std::string rt::serializeRankDump(const RankDump &D) {
  size_t Values = 0;
  for (const auto &[Name, V] : D.Owned)
    Values += V.size();
  std::string B;
  B.reserve(1024 + 8 * Values);
  B.append(Magic, sizeof(Magic));
  uint32_t Ident[2] = {Version, ByteOrderProbe};
  B.append(reinterpret_cast<const char *>(Ident), sizeof(Ident));
  putWord(B, 0); // the total, known once everything is written
  for (uint64_t W :
       {uint64_t(D.Rank), uint64_t(D.NP), D.R.Messages, D.R.Bytes,
        D.R.SpanCopies, D.R.PackedCopies, D.R.StmtInstances,
        D.R.CollMessages, D.R.CollBytes, D.OverlapNum, D.OverlapDen,
        uint64_t(D.R.Valid)})
    putWord(B, W);
  putWord(B, D.R.Violations.size());
  for (const std::string &V : D.R.Violations)
    putString(B, V);
  putWord(B, D.R.FinalAccums.size());
  for (const auto &[Name, V] : D.R.FinalAccums) {
    putString(B, Name);
    putWord(B, bitsOf(V));
  }
  putWord(B, D.Owned.size());
  for (const auto &[Name, V] : D.Owned) {
    putString(B, Name);
    putWord(B, V.size());
    B.append(reinterpret_cast<const char *>(V.data()), 8 * V.size());
  }
  uint64_t Total = B.size() + TrailerBytes;
  std::memcpy(&B[IdentBytes - 8], &Total, 8);
  putWord(B, Total);
  putWord(B, checksum(B.data(), B.size()));
  return B;
}

bool rt::parseRankDump(const std::string &B, RankDump &Out,
                       std::string &Err) {
  RankFile F;
  if (!parseRankFile(B, F, Err))
    return false;
  Out = std::move(F.Head);
  for (const auto &[Name, V] : F.Owned) {
    std::vector<double> &Vals = Out.Owned[Name];
    Vals.resize(V.Count);
    if (V.Count != 0)
      std::memcpy(Vals.data(), V.Data, 8 * V.Count);
  }
  return true;
}

bool rt::parseRankFile(const std::string &B, RankFile &File,
                       std::string &Err) {
  File = RankFile();
  RankDump &Out = File.Head;
  size_t Size = B.size();
  Reader In{B.data(), IdentBytes, IdentBytes, Err}; // empty until checked
  auto Truncated = [&] {
    return In.fail("ends at byte " + std::to_string(Size) +
                   (Size < IdentBytes
                        ? std::string()
                        : " of " + std::to_string(wordAt(B, 16))) +
                   ": truncated (rank died mid-dump?)");
  };
  if (Size < IdentBytes + TrailerBytes)
    return Truncated();
  if (std::memcmp(B.data(), Magic, sizeof(Magic)) != 0)
    return In.fail("bad magic: not a rank result file");
  uint32_t Ident[2] = {};
  std::memcpy(Ident, B.data() + 8, sizeof(Ident));
  if (Ident[1] != ByteOrderProbe) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "byte-order probe reads 0x%08" PRIx32
                  ", not 0x%08" PRIx32 ": written in another byte order",
                  Ident[1], ByteOrderProbe);
    return In.fail(Buf);
  }
  if (Ident[0] != Version)
    return In.fail("unsupported version " + std::to_string(Ident[0]) +
                   " (this build reads version " + std::to_string(Version) +
                   ")");
  // A file whose size both length words contradict was cut short; one
  // that agrees with either was damaged in place, which the checksum
  // catches.
  uint64_t Head = wordAt(B, 16), Tail = wordAt(B, Size - TrailerBytes);
  if (Head != Size && Tail != Size)
    return Truncated();
  if (checksum(B.data(), Size - 8) != wordAt(B, Size - 8))
    return In.fail("checksum mismatch (corrupt result file)");
  if (Head != Size || Tail != Size)
    return In.fail("length words disagree with the file size");
  In.End = Size - TrailerBytes;

  uint64_t W[12] = {}; // rank, NP, the nine counters, validity
  if (In.left() < sizeof(W))
    return In.fail("no room for the header");
  std::memcpy(W, B.data() + In.Pos, sizeof(W));
  In.Pos += sizeof(W);
  if (W[1] == 0 || W[1] > UINT32_MAX || W[0] >= W[1])
    return In.fail("bad header: rank " + std::to_string(W[0]) + " of " +
                   std::to_string(W[1]));
  Out.Rank = static_cast<unsigned>(W[0]);
  Out.NP = static_cast<unsigned>(W[1]);
  Out.R.Messages = W[2];
  Out.R.Bytes = W[3];
  Out.R.SpanCopies = W[4];
  Out.R.PackedCopies = W[5];
  Out.R.StmtInstances = W[6];
  Out.R.CollMessages = W[7];
  Out.R.CollBytes = W[8];
  Out.OverlapNum = W[9];
  Out.OverlapDen = W[10];
  Out.R.Valid = W[11] != 0;

  uint64_t N = 0;
  if (!In.count(N, 8, "violation count"))
    return false;
  for (uint64_t K = 0; K != N; ++K) {
    std::string V;
    if (!In.string(V, "violation length"))
      return false;
    Out.R.Violations.push_back(std::move(V));
  }
  if (!In.count(N, 16, "accumulator count"))
    return false;
  for (uint64_t K = 0; K != N; ++K) {
    std::string Name;
    uint64_t Bits = 0;
    if (!In.string(Name, "accumulator name length") ||
        !In.word(Bits, "accumulator value"))
      return false;
    double V = 0;
    std::memcpy(&V, &Bits, 8);
    Out.R.FinalAccums[Name] = V;
  }
  if (!In.count(N, 16, "array count"))
    return false;
  for (uint64_t K = 0; K != N; ++K) {
    std::string Name;
    uint64_t Count = 0;
    if (!In.string(Name, "array name length") ||
        !In.count(Count, 8, "value count of array '" + Name + "'"))
      return false;
    if (!File.Owned.try_emplace(Name, RankFile::Values{B.data() + In.Pos,
                                                       Count})
             .second)
      return In.fail("array '" + Name + "' appears twice");
    In.Pos += 8 * Count;
  }
  if (In.left() != 0)
    return In.fail(std::to_string(In.left()) +
                   " stray bytes after the arrays");
  return true;
}

bool rt::mergeRankDumps(const SpmdProgram &SP, const RunConfig &Config,
                        const std::vector<RankDump> &Dumps, MergedRun &Out,
                        std::string &Err) {
  std::vector<RankFile> Files(Dumps.size());
  for (size_t K = 0; K != Dumps.size(); ++K) {
    const RankDump &D = Dumps[K];
    RankDump &H = Files[K].Head;
    H.Rank = D.Rank;
    H.NP = D.NP;
    H.R = D.R;
    H.OverlapNum = D.OverlapNum;
    H.OverlapDen = D.OverlapDen;
    for (const auto &[Name, V] : D.Owned)
      Files[K].Owned[Name] = {reinterpret_cast<const char *>(V.data()),
                              V.size()};
  }
  return mergeRankFiles(SP, Config, Files, Out, Err);
}

bool rt::mergeRankFiles(const SpmdProgram &SP, const RunConfig &Config,
                        const std::vector<RankFile> &Files, MergedRun &Out,
                        std::string &Err) {
  ProgramLayout L = resolveLayout(SP, Config);
  unsigned NP = L.NumProcs;
  if (Files.size() != NP) {
    Err = "have " + std::to_string(Files.size()) + " rank dumps, need " +
          std::to_string(NP);
    return false;
  }
  std::vector<const RankFile *> ByRank(NP, nullptr);
  for (const RankFile &F : Files) {
    const RankDump &D = F.Head;
    if (D.NP != NP || D.Rank >= NP) {
      Err = "rank dump " + std::to_string(D.Rank) + "/" +
            std::to_string(D.NP) + " does not match the layout";
      return false;
    }
    if (ByRank[D.Rank]) {
      Err = "duplicate dump for rank " + std::to_string(D.Rank);
      return false;
    }
    ByRank[D.Rank] = &F;
  }

  Out.R = RunResult();
  std::vector<ArrayLayout> Layouts = resolveArrays(SP, L);
  Out.Arrays.clear();
  for (const ArrayLayout &A : Layouts)
    Out.Arrays.emplace(A.Name, ArrayStore(A.Lo, A.Extent, A.ElemBytes));
  uint64_t ONum = 0, ODen = 0;
  const RankDump &D0 = ByRank[0]->Head;
  for (unsigned P = 0; P != NP; ++P) {
    const RankDump &D = ByRank[P]->Head;
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
    for (const auto &[Name, V] : D.R.FinalAccums) {
      auto It = D0.R.FinalAccums.find(Name);
      if (It == D0.R.FinalAccums.end() || bitsOf(It->second) != bitsOf(V)) {
        Err = "rank " + std::to_string(P) +
              " disagrees on broadcast accumulator '" + Name + "'";
        return false;
      }
    }
    for (const auto &[Name, V] : ByRank[P]->Owned)
      if (!Out.Arrays.count(Name)) {
        Err = "rank " + std::to_string(P) + " dumped unknown array '" +
              Name + "'";
        return false;
      }
  }

  // Place each rank's values by formula: the k-th value rank P reported
  // for an array is the k-th element of it that P owns, in flat order.
  for (const ArrayLayout &A : Layouts) {
    ArrayStore &G = Out.Arrays.at(A.Name);
    std::vector<int64_t> Stride = columnStrides(A.Extent);
    for (unsigned P = 0; P != NP; ++P) {
      auto It = ByRank[P]->Owned.find(A.Name);
      RankFile::Values V =
          It == ByRank[P]->Owned.end() ? RankFile::Values() : It->second;
      std::vector<std::vector<int64_t>> Own;
      size_t Owns = 0;
      if (!A.Replicated || P == 0) {
        Own = A.owned(rankCoords(L, P));
        Owns = 1;
        for (const std::vector<int64_t> &Dim : Own)
          Owns *= Dim.size();
      }
      if (V.Count != Owns) {
        Err = "rank " + std::to_string(P) + " dumped " +
              std::to_string(V.Count) + " values of array '" + A.Name +
              "' but owns " + std::to_string(Owns);
        return false;
      }
      if (Owns == 0)
        continue;
      size_t K = 0;
      forEachRun(Own, [&](const std::vector<int64_t> &Idx, int64_t Len) {
        int64_t F = 0;
        for (size_t D = 0; D != Idx.size(); ++D)
          F += (Idx[D] - A.Lo[D]) * Stride[D];
        std::memcpy(G.data() + F, V.Data + 8 * K, Len * sizeof(double));
        K += Len;
      });
    }
  }
  Out.R.FinalAccums = D0.R.FinalAccums;
  Out.R.OverlapRatio = ODen ? double(ONum) / double(ODen) : 0.0;
  return true;
}
