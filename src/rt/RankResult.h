//===- rt/RankResult.h - Per-rank result dump, parse, and merge ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result a rank process reports back to the launcher, and the merge
/// that reassembles a RunResult bit-identical to the in-process engines.
///
/// Each rank reports the values of the array elements it owns; rank 0 also
/// reports the replicated arrays (every rank computes its own copy, and
/// rank 0's is the result). The values carry no index: the launcher
/// computes each rank's owned block from the same block/cyclic formulas
/// the ranks used (spmd::ArrayLayout), so the k-th value rank P reports
/// for an array is the array's k-th element in flat order that P owns, and
/// places it without any per-element map. Per-rank counters sum to the
/// in-process
/// totals; the overlap ratio merges from wire-byte numerators and
/// denominators. Ranks run on real time, so a merged run has no simulated
/// time (RunResult::SimSeconds stays 0); callers time the launch itself.
///
/// One writer makes the file (writeRankFile; rankFileBytes for tests): the
/// header, then each array's owned runs straight from the rank's box, then
/// the trailer, checksummed as the pieces pass and sent with writev. The
/// launcher maps each file read-only and merges the values from the
/// mapping (parseRankFile, mergeRankFiles).
///
/// The result file is binary, in the writer's byte order. Besides the two
/// 32-bit identification words every integer is a 64-bit word, and every
/// double is its raw 8 bytes:
///
///   magic "dhpfrank" | u32 version (3) | u32 byte-order probe 0x01020304
///   total file bytes | rank | NP
///   Messages Bytes SpanCopies PackedCopies StmtInstances
///   CollMessages CollBytes OverlapNum OverlapDen
///   valid | #violations, each (length, bytes)
///   #accumulators, each (name length, name, value bits)
///   #arrays in name order, each (name length, name, #values, values)
///   total file bytes | checksum of every byte before this word: FNV-1a 64's
///   multiply and xor applied per 8-byte word, then per tail byte
///
/// The reader checks the identification words, then tells a truncated
/// file (both length words disagree with its size: the rank died
/// mid-dump) from a corrupted one (the checksum fails), and checks every
/// length and count against the bytes that remain before using it.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_RANKRESULT_H
#define DHPF_RT_RANKRESULT_H

#include "net/Net.h"
#include "spmd/Interp.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dhpf {
namespace rt {

/// Everything one rank reports: its rank-local RunResult (counters,
/// validity, violations, accumulators), the overlap fraction's wire-byte
/// terms, and the values of its owned array elements.
struct RankDump {
  unsigned Rank = 0;
  unsigned NP = 0;
  spmd::RunResult R;
  uint64_t OverlapNum = 0; ///< wire bytes flushed during compute
  uint64_t OverlapDen = 0; ///< wire bytes sent in total
  /// Per array, the values of the elements this rank owns (rank 0: also
  /// the replicated arrays), in increasing flat order.
  std::map<std::string, std::vector<double>> Owned;
};

/// Writes the result file of rank T.rank(), which ran \p I over \p T and
/// returned \p R, to \p Path. False, with \p Err "cannot write <Path>" or
/// "short write to <Path>", when the file cannot be created, written
/// whole or closed.
bool writeRankFile(const spmd::Interpreter &I, const net::Transport &T,
                   const spmd::RunResult &R, const std::string &Path,
                   std::string &Err);

/// The bytes writeRankFile writes.
std::string rankFileBytes(const spmd::Interpreter &I,
                          const net::Transport &T, const spmd::RunResult &R);

/// Parses a result file; false (with \p Err set) on malformed input.
bool parseRankDump(std::string_view Bytes, RankDump &Out, std::string &Err);

/// A result file parsed in place, as the launcher merges it: the array
/// values stay in the file's bytes, which must outlive it.
struct RankFile {
  RankDump Head; ///< everything but Head.Owned, which stays empty
  /// Count raw 8-byte values, in the file's byte order, at Data.
  struct Values {
    const char *Data = nullptr;
    uint64_t Count = 0;
  };
  std::map<std::string, Values> Owned;
};

/// parseRankDump without copying the values out of \p Bytes.
bool parseRankFile(std::string_view Bytes, RankFile &Out, std::string &Err);

/// A reassembled distributed run: the merged result plus full arrays.
struct MergedRun {
  spmd::RunResult R;
  std::map<std::string, spmd::ArrayStore> Arrays;
  /// Bottleneck view of the collective schedule: the largest per-rank
  /// CollMessages/CollBytes (R.CollMessages/CollBytes hold the sums). The
  /// gather/broadcast root moves 2(P-1) frames per reduction.
  uint64_t MaxRankCollMessages = 0;
  uint64_t MaxRankCollBytes = 0;
};

/// Merges one dump per rank, placing each rank's values where the
/// block/cyclic formulas put its owned elements. False (with \p Err) when
/// dumps are missing or inconsistent,
/// when a rank reports more or fewer values of an array than it owns, or
/// when ranks disagree on broadcast values.
bool mergeRankDumps(const spmd::SpmdProgram &SP,
                    const spmd::RunConfig &Config,
                    const std::vector<RankDump> &Dumps, MergedRun &Out,
                    std::string &Err);

/// mergeRankDumps over files parsed in place: each run of owned values is
/// copied once, from the file's bytes into the merged array.
bool mergeRankFiles(const spmd::SpmdProgram &SP,
                    const spmd::RunConfig &Config,
                    const std::vector<RankFile> &Files, MergedRun &Out,
                    std::string &Err);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_RANKRESULT_H
