//===- rt/Launch.cpp - Multi-process rank launcher -----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Launch.h"

#include "net/Tcp.h"
#include "obs/Trace.h"
#include "spmd/Layout.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dhpf;
using namespace dhpf::rt;

namespace {

int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return false;
  Out.resize(static_cast<size_t>(In.tellg()));
  In.seekg(0);
  return static_cast<bool>(In.read(Out.data(), Out.size()));
}

/// Last few lines of a rank's captured stderr, for the failure report.
std::string stderrTail(const std::string &Path) {
  std::string Text;
  if (!readWholeFile(Path, Text) || Text.empty())
    return "";
  size_t Pos = Text.size();
  for (int Lines = 0; Lines < 5 && Pos > 0; ++Lines) {
    size_t NL = Text.find_last_of('\n', Pos - 1);
    if (NL == std::string::npos) {
      Pos = 0;
      break;
    }
    Pos = NL;
  }
  std::string Tail = Text.substr(Pos == 0 ? 0 : Pos + 1);
  while (!Tail.empty() && Tail.back() == '\n')
    Tail.pop_back();
  return Tail;
}

/// Unlinks every entry in \p Dir (sockets, results, stderr captures,
/// traces — whatever the ranks actually left), then the directory itself.
/// Enumerating instead of guessing file names means a rank that wrote
/// something unexpected cannot make the removal silently fail.
void removeTree(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (const dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

/// A rank's result file mapped read-only for the merge, unmapped on every
/// exit path.
struct MappedFile {
  void *Addr = MAP_FAILED;
  size_t Size = 0;
  MappedFile() = default;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile() {
    if (Addr != MAP_FAILED)
      ::munmap(Addr, Size);
  }
  /// False when \p Path cannot be opened; an empty file maps to no bytes.
  bool map(const std::string &Path) {
    int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0)
      return false;
    struct stat St;
    bool Ok = ::fstat(Fd, &St) == 0;
    if (Ok && St.st_size > 0) {
      Size = static_cast<size_t>(St.st_size);
      Addr = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
      Ok = Addr != MAP_FAILED;
    }
    ::close(Fd);
    return Ok;
  }
  std::string_view bytes() const {
    return Addr == MAP_FAILED
               ? std::string_view()
               : std::string_view(static_cast<const char *>(Addr), Size);
  }
};

/// One pidfd per rank, as poll() takes them: a rank's turns readable when
/// it exits. Each is closed once its rank is reaped, the rest on every
/// exit path.
struct RankWatch {
  std::vector<pollfd> Fds;
  explicit RankWatch(unsigned NP) : Fds(NP, pollfd{-1, POLLIN, 0}) {}
  RankWatch(const RankWatch &) = delete;
  RankWatch &operator=(const RankWatch &) = delete;
  ~RankWatch() {
    for (const pollfd &P : Fds)
      if (P.fd >= 0)
        ::close(P.fd);
  }
  void drop(unsigned R) {
    ::close(Fds[R].fd);
    Fds[R].fd = -1; // poll() skips it
  }
};

/// Owns the mesh scratch directory for the duration of a launch: every
/// exit path — success, any failure, or an exception from parsing/merging
/// — removes the tree unless --keep-mesh asked for it.
struct MeshDirGuard {
  std::string Dir;
  bool Keep;
  ~MeshDirGuard() {
    if (!Keep && !Dir.empty())
      removeTree(Dir);
  }
};

} // namespace

std::string rt::findRtBinary(const std::string &Explicit, const char *Argv0) {
  auto Usable = [](const std::string &P) {
    return !P.empty() && ::access(P.c_str(), X_OK) == 0;
  };
  if (!Explicit.empty())
    return Usable(Explicit) ? Explicit : "";
  std::string A0 = Argv0 ? Argv0 : "";
  size_t Slash = A0.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : A0.substr(0, Slash);
  for (const std::string &Cand :
       {Dir + "/dhpf_rt", Dir + "/../dhpf_rt/dhpf_rt"})
    if (Usable(Cand))
      return Cand;
  return "";
}

LaunchResult rt::launchRanks(const spmd::SpmdProgram &SP, const Session &S,
                             const LaunchOptions &Opts) {
  LaunchResult LR;
  // One process per processor, each allocating its storage boxes, and the
  // merge the full arrays: refuse a shape or storage that does not fit
  // before spawning anything.
  unsigned NP = 0;
  try {
    spmd::ProgramLayout L = resolveLayout(SP, S.Config);
    spmd::admitFootprint(spmd::resolveStorage(SP, L));
    NP = L.NumProcs;
  } catch (const spmd::FootprintError &E) {
    LR.Error = E.what();
    return LR;
  }
  LR.NumRanks = NP;

  const char *Tmp = std::getenv("TMPDIR");
  std::string Templ =
      std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/dhpf_mesh_XXXXXX";
  std::vector<char> DirBuf(Templ.begin(), Templ.end());
  DirBuf.push_back('\0');
  if (!::mkdtemp(DirBuf.data())) {
    LR.Error = "cannot create mesh directory: " +
               std::string(std::strerror(errno));
    return LR;
  }
  std::string Dir = DirBuf.data();
  MeshDirGuard Guard{Dir, Opts.KeepDir};

  // Every rank re-resolves the session from identical explicit flags.
  std::vector<std::string> Common = {Opts.RtBinary, Opts.SpmdPath,
                                     "--mesh", Dir};
  if (!Opts.Hosts.empty()) {
    std::string SpecPath = Opts.Hosts;
    if (Opts.Hosts == "auto") {
      // Single-host TCP: reserve P distinct loopback ports and leave the
      // spec in the mesh directory, cleaned up with everything else.
      SpecPath = Dir + "/hosts.spec";
      try {
        net::writeLocalRankSpec(SpecPath, NP);
      } catch (const net::TransportError &E) {
        LR.Error = E.what();
        return LR;
      }
    }
    Common.push_back("--hosts=" + SpecPath);
  }
  if (!S.Shape.empty()) {
    std::string Sh;
    for (size_t D = 0; D != S.Shape.size(); ++D)
      Sh += (D ? "," : "") + std::to_string(S.Shape[D]);
    Common.push_back("--procs=" + Sh);
  }
  for (const auto &[K, V] : S.Config.Params)
    Common.push_back("--param=" + K + "=" + std::to_string(V));

  // The launcher's phases trace in the driver's lane, next to the ranks'.
  obs::TraceBuffer *TB = &obs::TraceBuffer::global();
  std::optional<obs::TraceSpan> Phase;
  Phase.emplace(TB, "launch:spawn", "rt");
  std::vector<pid_t> Pids(NP, -1);
  RankWatch Watch(NP);
  // Kills and reaps the ranks spawned so far, and fails the launch.
  auto Abandon = [&](std::string Why) {
    LR.Error = std::move(Why);
    for (pid_t Pid : Pids)
      if (Pid >= 0) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, nullptr, 0);
      }
    if (Opts.KeepDir)
      LR.Dir = Dir;
    return LR;
  };
  for (unsigned R = 0; R != NP; ++R) {
    std::vector<std::string> Args = Common;
    Args.push_back("--rank=" + std::to_string(R));
    Args.push_back("--result=" + Dir + "/rank" + std::to_string(R) +
                   ".result");
    pid_t Pid = ::fork();
    if (Pid < 0)
      return Abandon("fork failed: " + std::string(std::strerror(errno)));
    if (Pid == 0) {
      std::string ErrPath = Dir + "/rank" + std::to_string(R) + ".err";
      int Fd = ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, 2);
        ::close(Fd);
      }
      std::string TracePath = Dir + "/rank" + std::to_string(R) + ".trace";
      if (Opts.Trace)
        ::setenv("DHPF_TRACE", TracePath.c_str(), 1);
      else
        ::unsetenv("DHPF_TRACE"); // an inherited path would collide
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      std::fprintf(stderr, "exec %s: %s\n", Argv[0], std::strerror(errno));
      ::_exit(127);
    }
    Pids[R] = Pid;
    // The wait below sleeps until a rank exits or the deadline passes.
    Watch.Fds[R].fd = static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0));
    if (Watch.Fds[R].fd < 0)
      return Abandon("cannot watch rank " + std::to_string(R) +
                     ": pidfd_open: " + std::strerror(errno));
  }

  // Supervise: reap under the deadline; kill stragglers past it so a hung
  // or deadlocked mesh becomes a diagnostic, not a hung launcher.
  Phase.emplace(TB, "launch:wait", "rt");
  int64_t Deadline = nowMs() + Opts.TimeoutMs;
  std::vector<int> Status(NP, -1);
  unsigned Live = NP;
  bool TimedOut = false;
  while (Live != 0) {
    int64_t Left = Deadline - nowMs();
    int Ready = Left > 0 ? ::poll(Watch.Fds.data(), NP,
                                  static_cast<int>(std::min<int64_t>(
                                      Left, INT_MAX)))
                         : 0;
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready < 0)
      return Abandon("waiting for the ranks: poll: " +
                     std::string(std::strerror(errno)));
    // Checked before reaping: ranks found finished only after the deadline
    // has passed (the wait woke past it) still fail the launch.
    if (nowMs() >= Deadline) {
      TimedOut = true;
      for (unsigned R = 0; R != NP; ++R)
        if (Pids[R] >= 0)
          ::kill(Pids[R], SIGKILL);
      for (unsigned R = 0; R != NP; ++R) {
        if (Pids[R] < 0)
          continue;
        int St = 0;
        ::waitpid(Pids[R], &St, 0);
        Status[R] = St;
        Pids[R] = -1;
        --Live;
      }
      break;
    }
    for (unsigned R = 0; R != NP; ++R) {
      if (Watch.Fds[R].fd < 0 || Watch.Fds[R].revents == 0)
        continue;
      int St = 0;
      ::waitpid(Pids[R], &St, 0); // it has exited: this does not block
      Status[R] = St;
      Pids[R] = -1;
      Watch.drop(R);
      --Live;
    }
  }

  std::string Fail;
  for (unsigned R = 0; R != NP; ++R) {
    int St = Status[R];
    bool Bad = !WIFEXITED(St) || WEXITSTATUS(St) != 0;
    if (!Bad)
      continue;
    std::string Why;
    if (WIFSIGNALED(St))
      Why = "killed by signal " + std::to_string(WTERMSIG(St)) +
            (TimedOut ? " (launch deadline expired)" : "");
    else
      Why = "exit code " + std::to_string(WEXITSTATUS(St));
    std::string Tail = stderrTail(Dir + "/rank" + std::to_string(R) +
                                  ".err");
    Fail += (Fail.empty() ? "" : "\n") + std::string("rank ") +
            std::to_string(R) + ": " + Why +
            (Tail.empty() ? "" : "\n  " + Tail);
  }
  if (TimedOut)
    Fail = "launch deadline (" + std::to_string(Opts.TimeoutMs) +
           " ms) expired\n" + Fail;
  if (!Fail.empty()) {
    LR.Error = Fail;
    if (Opts.KeepDir)
      LR.Dir = Dir;
    return LR;
  }

  Phase.emplace(TB, "launch:merge", "rt");
  // The values stay in the mapped files until the merge places them.
  std::vector<MappedFile> Maps(NP);
  std::vector<RankFile> Files(NP);
  for (unsigned R = 0; R != NP; ++R) {
    std::string Path = Dir + "/rank" + std::to_string(R) + ".result";
    std::string Err;
    if (!Maps[R].map(Path)) {
      LR.Error = "rank " + std::to_string(R) + " exited 0 but left no "
                 "result file";
      break;
    }
    if (!parseRankFile(Maps[R].bytes(), Files[R], Err)) {
      LR.Error = "rank " + std::to_string(R) + ": " + Err;
      break;
    }
  }
  if (LR.Error.empty()) {
    std::string Err;
    if (mergeRankFiles(SP, S.Config, Files, LR.Merged, Err))
      LR.Ok = true;
    else
      LR.Error = "merge failed: " + Err;
  }
  if (Opts.Trace) {
    LR.RankTraces.resize(NP);
    for (unsigned R = 0; R != NP; ++R)
      readWholeFile(Dir + "/rank" + std::to_string(R) + ".trace",
                    LR.RankTraces[R]);
  }
  if (Opts.KeepDir)
    LR.Dir = Dir;
  return LR;
}
