//===- rt/Launch.h - Multi-process rank launcher -------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fork/execs P `dhpf_rt` rank processes against a serialized .spmd file,
/// wires them through a socket mesh directory, supervises them under a
/// deadline (a wedged or dead rank is killed and reported, never waited on
/// forever), collects the per-rank result files, and merges them into a
/// RunResult + arrays bit-comparable with the in-process engines.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_LAUNCH_H
#define DHPF_RT_LAUNCH_H

#include "rt/RankResult.h"
#include "rt/Session.h"

#include <string>
#include <vector>

namespace dhpf {
namespace rt {

struct LaunchOptions {
  std::string SpmdPath; ///< serialized program every rank loads
  std::string RtBinary; ///< path to dhpf_rt
  int TimeoutMs = 60000; ///< per-run deadline
  bool KeepDir = false; ///< keep the mesh/result directory for debugging
  /// Trace every rank: each rank process records its own Chrome trace
  /// (lane pid = rank+1, via DHPF_TRACE) and the launcher collects the
  /// per-rank documents into LaunchResult::RankTraces for merging.
  bool Trace = false;
  /// TCP transport instead of the Unix-socket mesh. Empty = sockets;
  /// "auto" = reserve P loopback ports and write a rank spec into the
  /// mesh directory (single-host TCP, no file needed); anything else is
  /// the path of a host:port-per-rank spec file, which lets the rank
  /// processes span machines when started remotely with the same flags.
  std::string Hosts;
};

struct LaunchResult {
  bool Ok = false;
  std::string Error; ///< failure diagnostic (includes rank stderr tails)
  MergedRun Merged;  ///< valid when Ok
  unsigned NumRanks = 0;
  std::string Dir; ///< mesh directory (only set when kept)
  /// Per-rank Chrome trace documents (index = rank), when
  /// LaunchOptions::Trace was set. Entries may be empty for ranks whose
  /// trace file was missing.
  std::vector<std::string> RankTraces;
};

/// Runs \p Session's program distributed across its processor count.
/// Blocking; never hangs past the deadline.
LaunchResult launchRanks(const spmd::SpmdProgram &SP, const Session &S,
                         const LaunchOptions &Opts);

/// Locates the dhpf_rt binary: \p Explicit if nonempty, else next to
/// \p Argv0 (same directory, then sibling tools/dhpf_rt/). Empty string
/// when not found.
std::string findRtBinary(const std::string &Explicit, const char *Argv0);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_LAUNCH_H
