//===- rt/Session.h - Shared program/session resolution ------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decisions every executor front end makes identically before running
/// a compiled program: mapping a requested processor count onto the
/// program's grid, seeding its arrays from their init values, and whether
/// a registered benchmark's serial reference check applies (the program
/// is its canonical export). `dhpfc run`, `dhpfc launch`, and the
/// per-rank `dhpf_rt` all resolve through here, so a distributed run is
/// configured bit-identically to the in-process engines it is compared
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_SESSION_H
#define DHPF_RT_SESSION_H

#include "apps/Registry.h"
#include "spmd/Interp.h"
#include "spmd/SpmdProgram.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dhpf {
namespace rt {

struct SessionOptions {
  int64_t NumProcs = 4;           ///< -p: total processors
  std::vector<int64_t> ProcShape; ///< --procs: explicit extents (wins)
  std::map<std::string, int64_t> Params;
};

/// A program ready to execute: resolved processor shape, run
/// configuration, and the benchmark it is, if any.
struct Session {
  std::string ProgName;
  spmd::RunConfig Config;        ///< ProcExtents and Params set
  std::vector<int64_t> Shape;    ///< resolved extents (empty: no PROCESSORS)
  const apps::RegistryEntry *Reg = nullptr; ///< null if not a benchmark
  /// The program matches the canonical export, so Reg's serial Check
  /// applies to its result.
  bool Canonical = false;

  /// Seeds \p I's arrays (in-process, or one rank of a launch) from the
  /// program's init values.
  void setup(const spmd::SpmdProgram &SP, spmd::Interpreter &I) const;
};

/// Command-line values both `dhpfc` and `dhpf_rt` take, checked the same
/// way. Each returns false, with \p Err naming the offending token, on a
/// malformed value.
/// \{
/// A whole-token decimal integer no smaller than \p Min.
bool parseIntArg(const std::string &Tok, int64_t Min, int64_t &Out);
/// `--procs=a,b,...`: every extent an integer >= 1.
bool parseProcsArg(const std::string &List, std::vector<int64_t> &Shape,
                   std::string &Err);
/// `--param=name=value`: binds one program parameter in \p Params.
bool parseParamArg(const std::string &KV,
                   std::map<std::string, int64_t> &Params, std::string &Err);
/// \}

/// Resolves the shape and benchmark of \p SP. Returns std::nullopt and fills
/// \p Err when the processor count cannot be mapped onto the grid.
std::optional<Session> resolveSession(const spmd::SpmdProgram &SP,
                                      const SessionOptions &Opts,
                                      std::string &Err);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_SESSION_H
