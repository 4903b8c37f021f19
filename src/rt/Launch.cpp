//===- rt/Launch.cpp - Multi-process rank launcher -----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Launch.h"

#include "net/Tcp.h"
#include "obs/Trace.h"
#include "spmd/Layout.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <signal.h>
#include <sys/stat.h>
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
  for (unsigned R = 0; R != NP; ++R) {
    std::vector<std::string> Args = Common;
    Args.push_back("--rank=" + std::to_string(R));
    Args.push_back("--result=" + Dir + "/rank" + std::to_string(R) +
                   ".result");
    pid_t Pid = ::fork();
    if (Pid < 0) {
      LR.Error = "fork failed: " + std::string(std::strerror(errno));
      for (unsigned K = 0; K != R; ++K) {
        ::kill(Pids[K], SIGKILL);
        ::waitpid(Pids[K], nullptr, 0);
      }
      if (Opts.KeepDir)
        LR.Dir = Dir;
      return LR;
    }
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
  }

  // Supervise: reap under the deadline; kill stragglers past it so a hung
  // or deadlocked mesh becomes a diagnostic, not a hung launcher.
  Phase.emplace(TB, "launch:wait", "rt");
  int64_t Deadline = nowMs() + Opts.TimeoutMs;
  std::vector<int> Status(NP, -1);
  unsigned Live = NP;
  bool TimedOut = false;
  while (Live != 0) {
    // Checked before reaping: ranks found finished only after the deadline
    // has passed (the last poll slept through it) still fail the launch.
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
    bool Reaped = false;
    for (unsigned R = 0; R != NP; ++R) {
      if (Pids[R] < 0)
        continue;
      int St = 0;
      pid_t W = ::waitpid(Pids[R], &St, WNOHANG);
      if (W == Pids[R]) {
        Status[R] = St;
        Pids[R] = -1;
        --Live;
        Reaped = true;
      }
    }
    if (Live != 0 && !Reaped)
      ::usleep(5000);
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
  // The values stay in the files' bytes until the merge places them.
  std::vector<std::string> Bytes(NP);
  std::vector<RankFile> Files(NP);
  for (unsigned R = 0; R != NP; ++R) {
    std::string Path = Dir + "/rank" + std::to_string(R) + ".result";
    std::string Err;
    if (!readWholeFile(Path, Bytes[R])) {
      LR.Error = "rank " + std::to_string(R) + " exited 0 but left no "
                 "result file";
      break;
    }
    if (!parseRankFile(Bytes[R], Files[R], Err)) {
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
