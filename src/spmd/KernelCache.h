//===- spmd/KernelCache.h - Compile + dlopen cache for native kernels -----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a NativeGen PlanSource into a loaded kernel table, caching at two
/// levels so repeated runs (and the future dhpfd daemon) skip codegen
/// entirely:
///
///  - in memory, per process: one dlopen'd module per cache key, shared by
///    every engine instance (all ranks of an in-process run hit the same
///    module);
///  - on disk, across processes: `dhpf-<key>.c` / `dhpf-<key>.so` pairs in
///    the cache directory, written atomically (pid-suffixed temp + rename)
///    so concurrent ranks never observe a torn file.
///
/// The cache key is FNV-1a over the compiler's identity,
/// DHPF_KERNEL_ABI_VERSION, and the full generated source. The identity is
/// the compiler command (DHPF_CC or `cc`) plus, for each of its words that
/// names an executable (a path, or its first match on PATH), that file's
/// real path, device, inode, size and change time, computed once per
/// process from stat calls alone: a warm hit starts no process. So a
/// compiler upgrade, a switched `cc` alternative, a different DHPF_CC, an
/// ABI bump or any plan change each miss cleanly. (Entries written by
/// builds that keyed by the first line of `cc --version` miss once.) Loads
/// are verified against the table the kernel itself baked in (ABI version,
/// sizeof(DhpfCtx), plan fingerprint, function counts); a stale or foreign
/// `.so` is recompiled, never trusted. Only compilerVersion() and
/// compilerAvailable() run `--version`.
///
/// Environment:
///   DHPF_KERNEL_CACHE  cache directory; `off` or `0` disables disk reuse
///                      (kernels are still compiled, via a private temp
///                      file). Default: $XDG_CACHE_HOME/dhpf-kernels, else
///                      $HOME/.cache/dhpf-kernels, else /tmp/dhpf-kernels.
///   DHPF_CC            C compiler to invoke (default `cc`).
///
/// Observability: spans `native:compile` / `native:dlopen` (category
/// "spmd.native") and counters `spmd.kernel.cache.{hits,misses}` plus
/// `spmd.kernel.compile.invocations` (a warm cache shows zero).
///
/// Module handles are intentionally leaked: kernels stay mapped for the
/// process lifetime because engine instances may outlive the cache's view
/// of who uses them.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_KERNELCACHE_H
#define DHPF_SPMD_KERNELCACHE_H

#include "spmd/KernelABI.h"
#include "spmd/NativeGen.h"

#include <map>
#include <mutex>
#include <set>
#include <string>

namespace dhpf {
namespace spmd {
namespace native {

/// One loaded kernel module.
struct Kernel {
  const DhpfKernelTable *Table = nullptr;
  std::string CPath;  ///< on-disk source ("" when disk reuse is off)
  std::string SoPath; ///< on-disk shared object ("" when disk reuse is off)
};

class KernelCache {
public:
  /// The process-global cache (lazily constructed).
  static KernelCache &global();

  KernelCache() = default;
  KernelCache(const KernelCache &) = delete;
  KernelCache &operator=(const KernelCache &) = delete;

  /// True when a working C compiler answered the version probe, which
  /// runs `$DHPF_CC --version` once per process.
  bool compilerAvailable();
  /// First line of `$DHPF_CC --version` ("" when unavailable).
  std::string compilerVersion();
  /// The compiler command (DHPF_CC or "cc").
  static std::string compilerCommand();

  /// The resolved on-disk cache directory, or "" when disk reuse is
  /// disabled. Does not create the directory.
  static std::string resolvedDir();

  /// Removes `dhpf-*.tmp<pid>` / `dhpf-*.err<pid>` files in \p Dir whose
  /// writing process is dead — the droppings of a compile that crashed
  /// between temp write and rename. Files owned by live pids are left
  /// alone (a sibling rank mid-compile). Returns the number removed.
  /// get() runs this once per directory per process on first cache open.
  static unsigned sweepStale(const std::string &Dir);

  /// Gets or builds the kernel for \p Src. On failure returns nullptr and
  /// explains in \p Err (a compiler command whose first word names no
  /// executable, compile error with the compiler's stderr, dlopen failure,
  /// verification mismatch).
  const Kernel *get(const PlanSource &Src, std::string *Err);

  /// Test hook: compile an arbitrary C translation unit and resolve one
  /// symbol from it. Bypasses table verification and the disk cache; the
  /// module is leaked like any other.
  void *loadRaw(const std::string &CSrc, const std::string &Symbol,
                std::string *Err);

private:
  std::mutex M;
  std::map<uint64_t, Kernel> Modules; // by cache key
  std::set<std::string> Swept;        // dirs already swept for stale tmps
  int ProbeState = 0;                 // 0 unprobed, 1 ok, -1 missing
  std::string Version;
  bool IdentityDone = false;
  std::string Identity; // "" when the compiler is missing

  bool probeLocked();
  const std::string &identityLocked();
  /// True, with \p Err set, when the compiler command names no executable.
  bool compilerMissingLocked(std::string *Err);
};

} // namespace native
} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_KERNELCACHE_H
