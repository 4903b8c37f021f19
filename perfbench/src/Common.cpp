//===- perfbench/src/Common.cpp - Shared benchmark plumbing --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;

double perfbench::nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

void OpLatencies::add(const std::string &Kind, double Seconds) {
  ByKind[Kind].push_back(Seconds * 1e3);
  ++N;
  TotalS += Seconds;
}

void OpLatencies::publish(Report &R) const {
  std::vector<double> Medians;
  for (const auto &[Kind, Ms] : ByKind)
    Medians.push_back(median(Ms));
  R.set("req_ms.p50", quantile(Medians, 0.5), "ms", N);
  R.set("req_ms.p90", quantile(Medians, 0.9), "ms", N);
  R.set("req_per_s", TotalS > 0 ? static_cast<double>(N) / TotalS : 0, "1/s",
        N);
}

unsigned perfbench::passesFor(double Seconds, double PassSeconds) {
  return static_cast<unsigned>(
      std::max(1.0, std::round(Seconds / PassSeconds)));
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

namespace {

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "0";
  char B[64];
  std::snprintf(B, sizeof(B), "%.17g", V);
  return B;
}

std::string jsonStr(const std::string &S) {
  return "\"" + dhpf::obs::jsonEscape(S) + "\"";
}

} // namespace

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit, size_t N) {
  Metrics[Name] = {Value, Unit, N};
}

void Report::stamp(const std::string &Key, const std::string &Value) {
  Stamps[Key] = Value;
}

void Report::op(const std::string &Why) {
  ++Attempted;
  if (!Why.empty()) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
}

void Report::fail(const std::string &Why) {
  Broken = true;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

std::string Report::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Failed == 0 && !Broken ? "true" : "false")
     << ", \"attempted\": " << std::max<uint64_t>(Attempted, 1)
     << ", \"failed\": " << (Broken && Failed == 0 ? 1 : Failed)
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    OS << (First ? "" : ", ") << jsonStr(Name) << ": {\"value\": "
       << jsonNum(M.Value) << ", \"unit\": " << jsonStr(M.Unit)
       << ", \"n\": " << M.N << "}";
    First = false;
  }
  OS << "}, \"stamps\": {";
  First = true;
  for (const auto &[K, V] : Stamps) {
    OS << (First ? "" : ", ") << jsonStr(K) << ": " << jsonStr(V);
    First = false;
  }
  OS << "}, \"failures\": [";
  for (size_t I = 0; I != Failures.size(); ++I)
    OS << (I ? ", " : "") << jsonStr(Failures[I]);
  OS << "]}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Files
//===----------------------------------------------------------------------===//

bool perfbench::writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
  Out.close();
  return static_cast<bool>(Out);
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool perfbench::makeDir(const std::string &Path) {
  return ::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST;
}

std::vector<std::string> perfbench::listDir(const std::string &Path) {
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(Path.c_str())) {
    while (const dirent *E = ::readdir(D)) {
      std::string N = E->d_name;
      if (N != "." && N != "..")
        Names.push_back(N);
    }
    ::closedir(D);
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

void perfbench::removeTree(const std::string &Path) {
  struct stat St;
  if (::lstat(Path.c_str(), &St) != 0)
    return;
  if (S_ISDIR(St.st_mode)) {
    for (const std::string &N : listDir(Path))
      removeTree(Path + "/" + N);
    ::rmdir(Path.c_str());
  } else {
    ::unlink(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Processes
//===----------------------------------------------------------------------===//

namespace {

/// The environment a child runs with: ours, adjusted by \p Env entries
/// ("K=V" sets, a bare "K" removes). Built before fork, so the child only
/// calls async-signal-safe functions.
std::vector<std::string> childEnv(const std::vector<std::string> &Env) {
  std::map<std::string, std::string> Vars;
  for (char **E = environ; *E; ++E) {
    std::string KV = *E;
    size_t Eq = KV.find('=');
    if (Eq != std::string::npos)
      Vars[KV.substr(0, Eq)] = KV.substr(Eq + 1);
  }
  for (const std::string &E : Env) {
    size_t Eq = E.find('=');
    if (Eq == std::string::npos)
      Vars.erase(E);
    else
      Vars[E.substr(0, Eq)] = E.substr(Eq + 1);
  }
  std::vector<std::string> Out;
  for (const auto &[K, V] : Vars)
    Out.push_back(K + "=" + V);
  return Out;
}

std::vector<char *> cstrs(const std::vector<std::string> &V) {
  std::vector<char *> Out;
  for (const std::string &S : V)
    Out.push_back(const_cast<char *>(S.c_str()));
  Out.push_back(nullptr);
  return Out;
}

[[noreturn]] void execOrDie(char *const *Argv, char *const *Envp) {
  ::execve(Argv[0], Argv, Envp);
  static const char Msg[] = "perfbench: exec failed\n";
  (void)!::write(2, Msg, sizeof(Msg) - 1);
  ::_exit(127);
}

} // namespace

ProcResult perfbench::runProcess(const std::vector<std::string> &Argv,
                                 const std::vector<std::string> &Env,
                                 const std::string &Cwd) {
  ProcResult R;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    R.Output = "pipe: " + std::string(std::strerror(errno));
    return R;
  }
  std::vector<std::string> EnvV = childEnv(Env);
  std::vector<char *> A = cstrs(Argv), E = cstrs(EnvV);
  double T0 = nowS();
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    R.Output = "fork: " + std::string(std::strerror(errno));
    return R;
  }
  if (Pid == 0) {
    ::dup2(Pipe[1], 1);
    ::dup2(Pipe[1], 2);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    if (!Cwd.empty() && ::chdir(Cwd.c_str()) != 0)
      ::_exit(126);
    execOrDie(A.data(), E.data());
  }
  ::close(Pipe[1]);
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0)
      R.Output.append(Buf, static_cast<size_t>(N));
    else if (N == 0 || errno != EINTR)
      break;
  }
  ::close(Pipe[0]);
  int St = 0;
  while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
  }
  R.Seconds = nowS() - T0;
  R.Ok = WIFEXITED(St) && WEXITSTATUS(St) == 0;
  return R;
}

ChildProcess::ChildProcess(const std::vector<std::string> &Argv,
                           const std::vector<std::string> &Env,
                           const std::string &LogPath) {
  std::vector<std::string> EnvV = childEnv(Env);
  std::vector<char *> A = cstrs(Argv), E = cstrs(EnvV);
  pid_t P = ::fork();
  if (P < 0)
    return;
  if (P == 0) {
    int Fd = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      ::dup2(Fd, 1);
      ::dup2(Fd, 2);
      ::close(Fd);
    }
    execOrDie(A.data(), E.data());
  }
  Pid = P;
}

bool ChildProcess::wait(double TimeoutS) {
  if (Pid <= 0)
    return false;
  double Deadline = nowS() + TimeoutS;
  int St = 0;
  for (;;) {
    pid_t W = ::waitpid(Pid, &St, WNOHANG);
    if (W == Pid) {
      Pid = -1;
      return WIFEXITED(St) && WEXITSTATUS(St) == 0;
    }
    if (nowS() >= Deadline)
      break;
    ::usleep(10000);
  }
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, &St, 0);
  Pid = -1;
  return false;
}

ChildProcess::~ChildProcess() {
  if (Pid > 0)
    wait(0);
}

double perfbench::peakRssMb() {
  struct rusage Self, Kids;
  ::getrusage(RUSAGE_SELF, &Self);
  ::getrusage(RUSAGE_CHILDREN, &Kids);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(Self.ru_maxrss, Kids.ru_maxrss)) /
         1024.0;
}

//===----------------------------------------------------------------------===//
// Span analysis
//===----------------------------------------------------------------------===//

namespace {

/// The unsigned integer after `"Key": ` in \p Line, if present.
bool fieldU64(const std::string &Line, const char *Key, uint64_t &Out) {
  std::string Pat = std::string("\"") + Key + "\": ";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return false;
  Out = std::strtoull(Line.c_str() + P + Pat.size(), nullptr, 10);
  return true;
}

} // namespace

std::vector<Span> perfbench::parseChromeTrace(const std::string &Doc) {
  // TraceBuffer::chromeJson writes one event object per line, name first,
  // with `args` (the only free-form part) last.
  std::vector<Span> Out;
  std::istringstream In(Doc);
  std::string Line;
  const std::string Head = "{\"name\": \"";
  while (std::getline(In, Line)) {
    if (Line.rfind(Head, 0) != 0 ||
        Line.find("\"ph\": \"X\"") == std::string::npos)
      continue;
    Span S;
    size_t I = Head.size();
    for (; I < Line.size() && Line[I] != '"'; ++I) {
      if (Line[I] == '\\' && I + 1 < Line.size())
        ++I;
      S.Name.push_back(Line[I]);
    }
    uint64_t Tid = 0;
    if (!fieldU64(Line, "ts", S.TsUs) || !fieldU64(Line, "dur", S.DurUs))
      continue;
    fieldU64(Line, "tid", Tid);
    S.Tid = static_cast<uint32_t>(Tid);
    Out.push_back(std::move(S));
  }
  return Out;
}

std::vector<Span>
perfbench::spansOf(const std::vector<dhpf::obs::TraceEvent> &Events) {
  std::vector<Span> Out;
  for (const dhpf::obs::TraceEvent &E : Events)
    if (E.Ph == 'X')
      Out.push_back({E.Name, E.TsUs, E.DurUs, E.Tid});
  return Out;
}

double SpanTimes::busy(const std::string &Prefix) const {
  double S = 0;
  for (const auto &[N, V] : Busy)
    if (N.rfind(Prefix, 0) == 0)
      S += V;
  return S;
}

double SpanTimes::self(const std::string &Prefix) const {
  double S = 0;
  for (const auto &[N, V] : Self)
    if (N.rfind(Prefix, 0) == 0)
      S += V;
  return S;
}

SpanTimes perfbench::spanTimes(const std::vector<Span> &Spans) {
  // Spans of one thread nest (they are RAII scopes), so each span's
  // direct children are disjoint and its self time is its duration minus
  // theirs. Order by start, longest first, and keep a stack of open spans.
  std::vector<const Span *> Order;
  for (const Span &S : Spans)
    Order.push_back(&S);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const Span *A, const Span *B) {
                     if (A->Tid != B->Tid)
                       return A->Tid < B->Tid;
                     if (A->TsUs != B->TsUs)
                       return A->TsUs < B->TsUs;
                     return A->DurUs > B->DurUs;
                   });
  SpanTimes T;
  std::vector<std::pair<const Span *, uint64_t>> Stack; // span, child time
  auto Close = [&T, &Stack] {
    const Span *S = Stack.back().first;
    uint64_t Kids = std::min(Stack.back().second, S->DurUs);
    T.Busy[S->Name] += S->DurUs * 1e-6;
    T.Self[S->Name] += (S->DurUs - Kids) * 1e-6;
    Stack.pop_back();
  };
  for (const Span *S : Order) {
    while (!Stack.empty() &&
           (Stack.back().first->Tid != S->Tid ||
            S->TsUs + S->DurUs >
                Stack.back().first->TsUs + Stack.back().first->DurUs))
      Close();
    if (!Stack.empty())
      Stack.back().second += S->DurUs;
    Stack.push_back({S, 0});
  }
  while (!Stack.empty())
    Close();
  return T;
}
