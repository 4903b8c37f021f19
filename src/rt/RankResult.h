//===- rt/RankResult.h - Per-rank result dump, parse, and merge ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result a rank process reports back to the launcher, and the merge
/// that reassembles a RunResult bit-identical to the in-process engines.
/// Doubles travel as 64-bit hex bit patterns — never through decimal
/// formatting — so the merged arrays and accumulators compare bitwise.
///
/// Each rank dumps the array elements it owns; rank 0 additionally dumps
/// replicated and ownerless elements (which replicated computation keeps
/// identical on every rank). Per-rank counters sum to the in-process
/// totals; the overlap ratio merges from wire-byte numerators and
/// denominators. Ranks run on real time, so a merged run has no simulated
/// time (RunResult::SimSeconds stays 0); callers time the launch itself.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_RANKRESULT_H
#define DHPF_RT_RANKRESULT_H

#include "net/Net.h"
#include "spmd/Interp.h"

#include <map>
#include <string>
#include <vector>

namespace dhpf {
namespace rt {

/// Everything one rank reports: its rank-local RunResult, the overlap
/// fraction's wire-byte terms, and bit dumps of accumulators and owned
/// array elements.
struct RankDump {
  unsigned Rank = 0;
  unsigned NP = 0;
  spmd::RunResult R;
  uint64_t OverlapNum = 0; ///< wire bytes flushed during compute
  uint64_t OverlapDen = 0; ///< wire bytes sent in total
  std::map<std::string, uint64_t> AccumBits;
  std::map<std::string, std::vector<std::pair<int64_t, uint64_t>>> Elems;
};

/// Captures the state of \p I, which ran rank T.rank() over \p T and
/// returned \p R, as a dump.
RankDump dumpRank(const spmd::Interpreter &I, const net::Transport &T,
                  const spmd::RunResult &R);

std::string serializeRankDump(const RankDump &D);

/// Parses a dump; false (with \p Err set) on malformed input.
bool parseRankDump(const std::string &Text, RankDump &Out, std::string &Err);

/// A reassembled distributed run: the merged result plus full arrays.
struct MergedRun {
  spmd::RunResult R;
  std::map<std::string, spmd::ArrayStore> Arrays;
  /// Bottleneck view of the collective schedule: the largest per-rank
  /// CollMessages/CollBytes (R.CollMessages/CollBytes hold the sums).
  /// This is where recursive doubling beats the naive gather — the naive
  /// root moves 2(P-1) frames while rdbl's worst rank moves 2·ceil(lg P).
  uint64_t MaxRankCollMessages = 0;
  uint64_t MaxRankCollBytes = 0;
};

/// Merges one dump per rank. False (with \p Err) when dumps are missing,
/// inconsistent, or disagree on broadcast values.
bool mergeRankDumps(const spmd::SpmdProgram &SP,
                    const spmd::RunConfig &Config,
                    const std::vector<RankDump> &Dumps, MergedRun &Out,
                    std::string &Err);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_RANKRESULT_H
