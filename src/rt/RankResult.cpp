//===- rt/RankResult.cpp - Per-rank result dump, parse, and merge --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/RankResult.h"

#include "spmd/Layout.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

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
/// so any flipped byte, changes the result. The bytes arrive in pieces of
/// any length; a word split across pieces is carried to the next.
class WordHash {
public:
  void add(const char *P, size_t N) {
    if (Held != 0) {
      size_t Take = std::min(N, 8 - Held);
      std::memcpy(Part + Held, P, Take);
      Held += Take;
      P += Take;
      N -= Take;
      if (Held != 8)
        return;
      mix(Part);
      Held = 0;
    }
    for (; N >= 8; P += 8, N -= 8)
      mix(P);
    std::memcpy(Part, P, N);
    Held = N;
  }
  uint64_t finish() const {
    uint64_t R = H;
    for (size_t I = 0; I != Held; ++I) {
      R ^= static_cast<unsigned char>(Part[I]);
      R *= 0x100000001b3ull;
    }
    return R;
  }

private:
  uint64_t H = 0xcbf29ce484222325ull;
  char Part[8] = {};
  size_t Held = 0;

  void mix(const char *P) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    H ^= W;
    H *= 0x100000001b3ull;
  }
};

uint64_t checksum(const char *P, size_t N) {
  WordHash H;
  H.add(P, N);
  return H.finish();
}

uint64_t wordAt(std::string_view B, size_t Pos) {
  uint64_t V = 0;
  std::memcpy(&V, B.data() + Pos, 8);
  return V;
}

/// A result file as the pieces writev sends: the small fields gathered in
/// one buffer, long runs of values pointing straight into the rank's box.
/// Runs shorter than GatherBelow values (a CYCLIC array's are one value
/// each) are gathered too, rather than costing an iovec apiece.
class RankPieces {
public:
  RankPieces(const Interpreter &I, const net::Transport &T,
             const RunResult &R) {
    gather(Magic, sizeof(Magic));
    uint32_t Ident[2] = {Version, ByteOrderProbe};
    gather(Ident, sizeof(Ident));
    word(0); // the total, known once everything is laid out
    for (uint64_t W :
         {uint64_t(T.rank()), uint64_t(T.size()), R.Messages, R.Bytes,
          R.SpanCopies, R.PackedCopies, R.StmtInstances, R.CollMessages,
          R.CollBytes, T.stats().BytesFlushedDuringCompute,
          T.stats().WireBytesSent, uint64_t(R.Valid)})
      word(W);
    word(R.Violations.size());
    for (const std::string &V : R.Violations)
      text(V);
    word(R.FinalAccums.size());
    for (const auto &[Name, V] : R.FinalAccums) {
      text(Name);
      word(bitsOf(V));
    }
    size_t Arrays = Gathered.size();
    word(0);
    uint64_t NArrays = 0;
    I.reportOwned(
        T.rank(),
        [&](const std::string &Name, uint64_t Count) {
          ++NArrays;
          text(Name);
          word(Count);
        },
        [&](const double *V, int64_t Len) {
          if (Len < GatherBelow)
            gather(V, 8 * Len);
          else
            List.push_back({reinterpret_cast<const char *>(V), 0,
                            8 * static_cast<size_t>(Len)});
        });
    std::memcpy(&Gathered[Arrays], &NArrays, 8);
    uint64_t Total = TrailerBytes;
    for (const Piece &P : List)
      Total += P.Len;
    std::memcpy(&Gathered[IdentBytes - 8], &Total, 8);
    word(Total);
    WordHash H;
    forEach([&](const char *P, size_t N) { H.add(P, N); });
    word(H.finish());
  }

  /// Calls \p F(Data, Len) for each piece in file order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Piece &P : List)
      F(P.Ext ? P.Ext : Gathered.data() + P.Off, P.Len);
  }

private:
  static constexpr int64_t GatherBelow = 64;
  /// Ext, or (Ext null) the gathered bytes at Off.
  struct Piece {
    const char *Ext;
    size_t Off, Len;
  };
  std::string Gathered;
  std::vector<Piece> List;

  void gather(const void *P, size_t N) {
    if (List.empty() || List.back().Ext)
      List.push_back({nullptr, Gathered.size(), 0});
    Gathered.append(static_cast<const char *>(P), N);
    List.back().Len += N;
  }
  void word(uint64_t V) { gather(&V, 8); }
  void text(const std::string &S) {
    word(S.size());
    gather(S.data(), S.size());
  }
};

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

std::string rt::rankFileBytes(const Interpreter &I, const net::Transport &T,
                              const RunResult &R) {
  std::string B;
  RankPieces(I, T, R).forEach([&](const char *P, size_t N) { B.append(P, N); });
  return B;
}

bool rt::writeRankFile(const Interpreter &I, const net::Transport &T,
                       const RunResult &R, const std::string &Path,
                       std::string &Err) {
  RankPieces Pieces(I, T, R);
  std::vector<iovec> Iov;
  Pieces.forEach([&](const char *P, size_t N) {
    Iov.push_back({const_cast<char *>(P), N});
  });
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    Err = "cannot write " + Path;
    return false;
  }
  // writev takes at most IOV_MAX pieces and may stop short: resume after
  // what it wrote.
  bool Ok = true;
  for (size_t K = 0; Ok && K != Iov.size();) {
    int N = static_cast<int>(std::min<size_t>(Iov.size() - K, IOV_MAX));
    ssize_t W = ::writev(Fd, &Iov[K], N);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0) {
      Ok = false;
      break;
    }
    for (size_t Done = static_cast<size_t>(W); Done != 0;) {
      size_t Step = std::min(Done, Iov[K].iov_len);
      Iov[K].iov_base = static_cast<char *>(Iov[K].iov_base) + Step;
      Iov[K].iov_len -= Step;
      Done -= Step;
      if (Iov[K].iov_len == 0)
        ++K;
    }
    while (K != Iov.size() && Iov[K].iov_len == 0)
      ++K;
  }
  if (::close(Fd) != 0)
    Ok = false;
  if (!Ok)
    Err = "short write to " + Path;
  return Ok;
}

bool rt::parseRankDump(std::string_view B, RankDump &Out, std::string &Err) {
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

bool rt::parseRankFile(std::string_view B, RankFile &File,
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
