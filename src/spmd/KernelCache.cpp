//===- spmd/KernelCache.cpp - Compile + dlopen cache for native kernels ---===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/KernelCache.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <dlfcn.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::spmd::native;

namespace {

std::string hex16(uint64_t K) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(K));
  return Buf;
}

/// mkdir -p, permissive about races with sibling ranks.
bool makeDirs(const std::string &Path) {
  std::string Cur;
  for (size_t I = 0; I <= Path.size(); ++I) {
    if (I == Path.size() || Path[I] == '/') {
      if (!Cur.empty() && ::mkdir(Cur.c_str(), 0755) != 0 && errno != EEXIST)
        return false;
    }
    if (I < Path.size())
      Cur.push_back(Path[I]);
  }
  return true;
}

bool writeFileAtomic(const std::string &Path, const std::string &Data,
                     std::string *Err) {
  std::string Tmp = Path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      *Err = "cannot write " + Tmp;
      return false;
    }
    Out << Data;
    if (!Out.flush()) {
      *Err = "short write to " + Tmp;
      return false;
    }
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    *Err = "rename " + Tmp + " -> " + Path + ": " + std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

/// Shell-quotes one path for the compile command line.
std::string shq(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out.push_back(C);
  }
  Out += "'";
  return Out;
}

obs::Counter *hitCtr() {
  return obs::MetricsRegistry::global().counter("spmd.kernel.cache.hits");
}
obs::Counter *missCtr() {
  return obs::MetricsRegistry::global().counter("spmd.kernel.cache.misses");
}
obs::Counter *compileCtr() {
  return obs::MetricsRegistry::global().counter(
      "spmd.kernel.compile.invocations");
}

/// Opens \p SoPath and resolves the verified kernel table, or explains why
/// it cannot be trusted. Failure leaves nothing mapped worth reclaiming
/// (dlclose on partial failure, handle leaked on success by design).
const DhpfKernelTable *openVerified(const std::string &SoPath,
                                    const PlanSource &Src, std::string *Err) {
  obs::TraceSpan Span(&obs::TraceBuffer::global(), "native:dlopen",
                      "spmd.native");
  void *H = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    const char *D = ::dlerror();
    *Err = "dlopen " + SoPath + ": " + (D ? D : "unknown error");
    return nullptr;
  }
  auto Entry =
      reinterpret_cast<DhpfEntryFn>(::dlsym(H, DHPF_KERNEL_ENTRY_SYMBOL));
  if (!Entry) {
    *Err = SoPath + ": missing symbol " DHPF_KERNEL_ENTRY_SYMBOL;
    ::dlclose(H);
    return nullptr;
  }
  const DhpfKernelTable *T = Entry();
  if (!T) {
    *Err = SoPath + ": null kernel table";
    ::dlclose(H);
    return nullptr;
  }
  if (T->AbiVersion != DHPF_KERNEL_ABI_VERSION) {
    *Err = SoPath + ": kernel ABI version " + std::to_string(T->AbiVersion) +
           " != host " + std::to_string(DHPF_KERNEL_ABI_VERSION);
    ::dlclose(H);
    return nullptr;
  }
  if (T->CtxSize != sizeof(DhpfCtx)) {
    *Err = SoPath + ": kernel sizeof(DhpfCtx) " + std::to_string(T->CtxSize) +
           " != host " + std::to_string(sizeof(DhpfCtx));
    ::dlclose(H);
    return nullptr;
  }
  if (T->Fingerprint != Src.Fingerprint) {
    *Err = SoPath + ": kernel fingerprint mismatch (stale cache entry)";
    ::dlclose(H);
    return nullptr;
  }
  if (T->NumCompute != Src.NumCompute || T->NumEvents != Src.NumEvents) {
    *Err = SoPath + ": kernel table shape mismatch";
    ::dlclose(H);
    return nullptr;
  }
  return T;
}

/// Runs the compiler on \p CPath producing \p SoPath (atomically). Returns
/// false with the compiler's stderr in \p Err on failure.
bool compileTU(const std::string &CPath, const std::string &SoPath,
               std::string *Err) {
  obs::TraceSpan Span(&obs::TraceBuffer::global(), "native:compile",
                      "spmd.native");
  compileCtr()->inc();
  std::string Pid = std::to_string(::getpid());
  std::string TmpSo = SoPath + ".tmp" + Pid;
  std::string ErrFile = SoPath + ".err" + Pid;
  // -fwrapv gives signed overflow two's-complement semantics, matching the
  // host engines' checked-arithmetic value behaviour for in-range programs.
  std::string Cmd = KernelCache::compilerCommand() +
                    " -O2 -fPIC -fwrapv -shared -o " + shq(TmpSo) + " " +
                    shq(CPath) + " 2> " + shq(ErrFile);
  int RC = std::system(Cmd.c_str());
  std::string Diag = readFile(ErrFile);
  ::unlink(ErrFile.c_str());
  if (RC != 0) {
    ::unlink(TmpSo.c_str());
    *Err = "kernel compile failed (" + Cmd + "):\n" + Diag;
    return false;
  }
  if (::rename(TmpSo.c_str(), SoPath.c_str()) != 0) {
    *Err = "rename " + TmpSo + " -> " + SoPath + ": " + std::strerror(errno);
    ::unlink(TmpSo.c_str());
    return false;
  }
  return true;
}

} // namespace

std::string KernelCache::compilerCommand() {
  const char *E = std::getenv("DHPF_CC");
  return (E && *E) ? E : "cc";
}

std::string KernelCache::resolvedDir() {
  const char *E = std::getenv("DHPF_KERNEL_CACHE");
  if (E && (std::strcmp(E, "off") == 0 || std::strcmp(E, "0") == 0))
    return "";
  if (E && *E)
    return E;
  if (const char *X = std::getenv("XDG_CACHE_HOME"))
    if (*X)
      return std::string(X) + "/dhpf-kernels";
  if (const char *H = std::getenv("HOME"))
    if (*H)
      return std::string(H) + "/.cache/dhpf-kernels";
  return "/tmp/dhpf-kernels";
}

KernelCache &KernelCache::global() {
  static KernelCache C;
  return C;
}

unsigned KernelCache::sweepStale(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  unsigned Removed = 0;
  while (const dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.rfind("dhpf-", 0) != 0)
      continue;
    // Temp droppings look like dhpf-<hex>.c.tmp<pid>, dhpf-<hex>.so.tmp<pid>
    // or dhpf-<hex>.so.err<pid> (see writeFileAtomic / compileTU).
    size_t Mark = Name.rfind(".tmp");
    size_t SuffixLen = 4;
    if (Mark == std::string::npos) {
      Mark = Name.rfind(".err");
      if (Mark == std::string::npos)
        continue;
    }
    std::string PidStr = Name.substr(Mark + SuffixLen);
    if (PidStr.empty() ||
        PidStr.find_first_not_of("0123456789") != std::string::npos)
      continue;
    errno = 0;
    long Pid = std::strtol(PidStr.c_str(), nullptr, 10);
    if (errno != 0 || Pid <= 0)
      continue;
    // A live writer keeps its temp file; only a dead pid's file is a
    // crashed compile's dropping. EPERM means "alive but not ours".
    if (::kill(static_cast<pid_t>(Pid), 0) == 0 || errno != ESRCH)
      continue;
    if (::unlink((Dir + "/" + Name).c_str()) == 0)
      ++Removed;
  }
  ::closedir(D);
  return Removed;
}

bool KernelCache::probeLocked() {
  if (ProbeState == 0) {
    std::string Cmd = compilerCommand() + " --version 2>/dev/null";
    FILE *P = ::popen(Cmd.c_str(), "r");
    if (P) {
      char Line[256] = {0};
      if (std::fgets(Line, sizeof(Line), P)) {
        size_t N = std::strlen(Line);
        while (N && (Line[N - 1] == '\n' || Line[N - 1] == '\r'))
          Line[--N] = 0;
        Version = Line;
      }
      int RC = ::pclose(P);
      ProbeState = (RC == 0 && !Version.empty()) ? 1 : -1;
    } else {
      ProbeState = -1;
    }
  }
  return ProbeState == 1;
}

bool KernelCache::compilerAvailable() {
  std::lock_guard<std::mutex> L(M);
  return probeLocked();
}

std::string KernelCache::compilerVersion() {
  std::lock_guard<std::mutex> L(M);
  probeLocked();
  return Version;
}

const Kernel *KernelCache::get(const PlanSource &Src, std::string *Err) {
  std::lock_guard<std::mutex> L(M);
  if (!probeLocked()) {
    *Err = "no working C compiler: `" + compilerCommand() +
           " --version` failed (set DHPF_CC to override)";
    return nullptr;
  }

  uint64_t Key =
      fnv1a64(Version + '\0' + std::to_string(DHPF_KERNEL_ABI_VERSION) +
              '\0' + Src.C);
  auto It = Modules.find(Key);
  if (It != Modules.end()) {
    hitCtr()->inc();
    return &It->second;
  }

  std::string Dir = resolvedDir();
  bool Disk = !Dir.empty();
  std::string Base;
  if (Disk) {
    if (!makeDirs(Dir)) {
      *Err = "cannot create kernel cache dir " + Dir + ": " +
             std::strerror(errno);
      return nullptr;
    }
    // First open of this directory: clear temp files left by compiles
    // that crashed between write and rename (their pids are dead).
    if (Swept.insert(Dir).second)
      sweepStale(Dir);
    Base = Dir + "/dhpf-" + hex16(Key);
  } else {
    Base = "/tmp/dhpf-kernel-" + std::to_string(::getpid()) + "-" +
           hex16(Key);
  }
  std::string CPath = Base + ".c", SoPath = Base + ".so";

  Kernel K;
  // Warm disk cache: an existing verified .so skips the compiler entirely.
  if (Disk && fileExists(SoPath)) {
    std::string StaleErr;
    if (const DhpfKernelTable *T = openVerified(SoPath, Src, &StaleErr)) {
      K.Table = T;
      K.CPath = fileExists(CPath) ? CPath : std::string();
      K.SoPath = SoPath;
      hitCtr()->inc();
      return &Modules.emplace(Key, std::move(K)).first->second;
    }
    // Stale or foreign: fall through and recompile over it.
  }

  missCtr()->inc();
  if (!writeFileAtomic(CPath, Src.C, Err))
    return nullptr;
  if (!compileTU(CPath, SoPath, Err)) {
    if (!Disk)
      ::unlink(CPath.c_str());
    return nullptr;
  }
  const DhpfKernelTable *T = openVerified(SoPath, Src, Err);
  if (!Disk) {
    // Private temp files: the mapping survives the unlink.
    ::unlink(SoPath.c_str());
    ::unlink(CPath.c_str());
  }
  if (!T)
    return nullptr;
  K.Table = T;
  if (Disk) {
    K.CPath = CPath;
    K.SoPath = SoPath;
  }
  return &Modules.emplace(Key, std::move(K)).first->second;
}

void *KernelCache::loadRaw(const std::string &CSrc, const std::string &Symbol,
                           std::string *Err) {
  std::lock_guard<std::mutex> L(M);
  if (!probeLocked()) {
    *Err = "no working C compiler: `" + compilerCommand() +
           " --version` failed (set DHPF_CC to override)";
    return nullptr;
  }
  std::string Base = "/tmp/dhpf-raw-" + std::to_string(::getpid()) + "-" +
                     hex16(fnv1a64(CSrc));
  std::string CPath = Base + ".c", SoPath = Base + ".so";
  if (!writeFileAtomic(CPath, CSrc, Err))
    return nullptr;
  if (!compileTU(CPath, SoPath, Err)) {
    ::unlink(CPath.c_str());
    return nullptr;
  }
  void *H = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  ::unlink(SoPath.c_str());
  ::unlink(CPath.c_str());
  if (!H) {
    const char *D = ::dlerror();
    *Err = "dlopen " + SoPath + ": " + (D ? D : "unknown error");
    return nullptr;
  }
  void *S = ::dlsym(H, Symbol.c_str());
  if (!S)
    *Err = SoPath + ": missing symbol " + Symbol;
  return S;
}
