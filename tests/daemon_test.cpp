//===- tests/daemon_test.cpp - Compiler daemon end-to-end tests ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// An in-process rt::Daemon on a temp socket, driven through the same
// client helpers `dhpfc --server=` uses. The contracts:
//
//   - a daemon compile returns byte-identical .spmd text to a local
//     service compile of the same request (the daemon adds no semantics);
//   - N concurrent clients posting the same request fingerprint collapse
//     to ONE compile (CompilesStarted +1, Requests +N);
//   - a daemon-side run renders the same wall-clock-free summary as a
//     local run of the same program;
//   - a malformed request, a degenerate layout (cyclic(0), a template
//     that holds no cell), or a run whose arrays cannot be allocated,
//     draws an error reply and leaves both the connection and the daemon
//     serving;
//   - a malformed DHPF_NET_TIMEOUT_MS stops start() with a named error
//     before the daemon serves anyone;
//   - a finished connection leaves nothing behind: no thread, no mapped
//     stack, no metric;
//   - stop() persists the OpCache and a new daemon starts warm from it;
//   - KernelCache::sweepStale reclaims tmp files of dead writers only.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/CompilerService.h"
#include "hpf/HpfPrinter.h"
#include "obs/Metrics.h"
#include "pset/OpCache.h"
#include "rt/Daemon.h"
#include "spmd/KernelCache.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::rt;

namespace {

std::string tempPath(const std::string &Stem) {
  return "/tmp/" + Stem + "." + std::to_string(::getpid());
}

/// An in-process daemon for one test, torn down on scope exit.
class ScopedDaemon {
public:
  explicit ScopedDaemon(const std::string &CacheFile = "") {
    Opts.SocketPath = tempPath("dhpf_daemon_test.sock");
    Opts.CacheFile = CacheFile;
    Opts.Quiet = true;
    D.reset(new Daemon(Opts));
    D->start();
  }
  ~ScopedDaemon() { D->stop(); }

  Daemon &daemon() { return *D; }
  std::unique_ptr<net::MsgStream> connect() {
    return net::connectClient(Opts.SocketPath);
  }

private:
  DaemonOptions Opts;
  std::unique_ptr<Daemon> D;
};

std::string appSource(apps::AppInstance (*Make)(int64_t, int64_t), int64_t N,
                      int64_t Steps) {
  return hpf::printHpfProgram(*Make(N, Steps).Prog);
}

TEST(DaemonCompile, ByteIdenticalToLocalService) {
  ScopedDaemon SD;
  std::string Source = appSource(apps::makeJacobi, 14, 2);
  // Loop reordering changes the program, so the option must reach the
  // daemon's compile.
  std::vector<std::string> Programs;
  for (bool Reorder : {true, false}) {
    CompilerOptions CO;
    CO.ReorderLoops = Reorder;

    CompileRequest R;
    R.Name = "<daemon_test>";
    R.Source = Source;
    R.Opts = CO;
    R.BypassArtifactCache = true;
    std::shared_ptr<const CompileArtifact> Local =
        CompilerService::global().compile(R);
    ASSERT_TRUE(Local->Ok) << Local->DiagText;

    std::unique_ptr<net::MsgStream> S = SD.connect();
    DaemonCompileResult Remote =
        daemonCompile(*S, "<daemon_test>", Source, CO, /*Fresh=*/true);
    ASSERT_TRUE(Remote.Ok) << Remote.DiagText;
    EXPECT_EQ(Remote.Spmd, Local->Spmd);
    EXPECT_EQ(Remote.ProgName, Local->ProgName);
    EXPECT_EQ(Remote.Fingerprint, Local->Fingerprint);
    Programs.push_back(Remote.Spmd);
  }
  EXPECT_NE(Programs[0], Programs[1]);
}

TEST(DaemonCompile, ConcurrentSameFingerprintDedupsToOneCompile) {
  ScopedDaemon SD;
  // A source no other test compiles, so neither the artifact cache nor an
  // in-flight entry predates this test.
  std::string Source = appSource(apps::makeJacobi, 17, 3);
  CompilerOptions CO;
  ServiceStats Before = CompilerService::global().stats();

  const unsigned N = 8;
  std::vector<std::thread> Ts;
  std::vector<std::string> Spmd(N);
  std::vector<std::string> Errs(N);
  for (unsigned I = 0; I != N; ++I)
    Ts.emplace_back([&, I] {
      try {
        std::unique_ptr<net::MsgStream> S = SD.connect();
        DaemonCompileResult R = daemonCompile(*S, "<dedup>", Source, CO);
        if (!R.Ok)
          Errs[I] = "compile failed: " + R.DiagText;
        Spmd[I] = R.Spmd;
      } catch (const std::exception &E) {
        Errs[I] = E.what();
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Errs[I], "") << "client " << I;

  ServiceStats After = CompilerService::global().stats();
  EXPECT_EQ(After.Requests - Before.Requests, N);
  // All N clients were served by exactly one compiler run; the other N-1
  // either joined it in flight or replayed the finished artifact.
  EXPECT_EQ(After.CompilesStarted - Before.CompilesStarted, 1u);
  EXPECT_EQ(After.DedupedInFlight - Before.DedupedInFlight +
                (After.ArtifactHits - Before.ArtifactHits),
            N - 1);
  for (unsigned I = 1; I != N; ++I)
    EXPECT_EQ(Spmd[I], Spmd[0]) << "client " << I;
}

TEST(DaemonRun, SummaryMatchesLocalRun) {
  ScopedDaemon SD;
  std::string Source = appSource(apps::makeJacobi, 12, 2);
  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult C = daemonCompile(*S, "<run>", Source, CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;

  SessionOptions SO;
  SO.NumProcs = 4;
  DaemonRunResult Remote = daemonRun(*S, C.Spmd, SO, /*Check=*/true);
  ASSERT_TRUE(Remote.Ok) << Remote.Error;

  DiagnosticEngine Diags;
  Expected<std::unique_ptr<spmd::SpmdProgram>> Parsed =
      spmd::parseSpmdProgram(C.Spmd, Diags, "<run>");
  ASSERT_TRUE(bool(Parsed)) << Diags.str();
  std::unique_ptr<spmd::SpmdProgram> SP = std::move(Parsed).take();
  std::string Local, Err;
  ASSERT_TRUE(runForSummary(*SP, SO, /*Check=*/true, Local, Err)) << Err;

  // Wall-clock-free summaries: equal strings <=> bit-identical runs.
  EXPECT_EQ(Remote.Summary, Local);
  EXPECT_NE(Remote.Summary.find("valid 1\n"), std::string::npos)
      << Remote.Summary;
}

TEST(DaemonFault, MalformedRequestKeepsDaemonServing) {
  ScopedDaemon SD;
  std::unique_ptr<net::MsgStream> S = SD.connect();
  // A compile request with no source blob: the daemon must reply with an
  // error frame, not drop the connection or die.
  S->send(MsgCompileReq, "kv name broken\n");
  uint64_t Tag = 0;
  std::string Payload;
  ASSERT_TRUE(S->recv(Tag, Payload));
  EXPECT_EQ(Tag, uint64_t(MsgErrResp));
  EXPECT_NE(Payload.find("source"), std::string::npos) << Payload;
  // Same connection still serves requests...
  daemonPing(*S);
  // ...and a real compile still works on a fresh connection.
  std::unique_ptr<net::MsgStream> S2 = SD.connect();
  DaemonCompileResult R = daemonCompile(
      *S2, "<after>", appSource(apps::makeJacobi, 10, 1), CompilerOptions());
  EXPECT_TRUE(R.Ok) << R.DiagText;
}

TEST(DaemonFault, OversizedArraysDrawAnErrorReply) {
  ScopedDaemon SD;
  std::string Source = appSource(apps::makeJacobi, 16, 1);
  for (size_t P; (P = Source.find("1:16")) != std::string::npos;)
    Source.replace(P, 4, "1:4000000000");
  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult C =
      daemonCompile(*S, "<huge>", Source, CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;
  // 4e9 x 4e9 elements: refused by name before any allocation.
  DaemonRunResult R = daemonRun(*S, C.Spmd, SessionOptions(), /*Check=*/true);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("array 'U'(1:4000000000, 1:4000000000)"),
            std::string::npos)
      << R.Error;
  // The same connection still runs a program that fits.
  DaemonCompileResult Small = daemonCompile(
      *S, "<small>", appSource(apps::makeJacobi, 12, 1), CompilerOptions());
  ASSERT_TRUE(Small.Ok) << Small.DiagText;
  DaemonRunResult Ok = daemonRun(*S, Small.Spmd, SessionOptions(), true);
  EXPECT_TRUE(Ok.Ok) << Ok.Error;
}

/// Degenerate layouts are refused with a reply naming what is wrong: a
/// cyclic(0) distribution at compile time, and a template bound to hold
/// no cell at run time. The daemon then still compiles and runs jacobi.
TEST(DaemonFault, DegenerateLayoutsDrawErrorReplies) {
  ScopedDaemon SD;
  std::string Jacobi = appSource(apps::makeJacobi, 16, 1);
  auto Edited = [&](const std::string &From, const std::string &To) {
    std::string Source = Jacobi;
    size_t P = Source.find(From);
    EXPECT_NE(P, std::string::npos) << From;
    if (P != std::string::npos)
      Source.replace(P, From.size(), To);
    return Source;
  };
  std::unique_ptr<net::MsgStream> S = SD.connect();

  DaemonCompileResult Cyc0 =
      daemonCompile(*S, "<cyclic0>",
                    Edited("T(block, block)", "T(cyclic(0), block)"),
                    CompilerOptions());
  EXPECT_FALSE(Cyc0.Ok);
  EXPECT_NE(Cyc0.DiagText.find("cyclic(k) needs k >= 1"), std::string::npos)
      << Cyc0.DiagText;

  std::string ParamN = Edited("template T(1:16,", "param N\ntemplate T(1:N,");
  DaemonCompileResult C = daemonCompile(*S, "<paramN>", ParamN,
                                        CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;
  SessionOptions SO;
  SO.Params["N"] = 0;
  DaemonRunResult R = daemonRun(*S, C.Spmd, SO, /*Check=*/true);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("template 'T'(1:0, 1:16)"), std::string::npos)
      << R.Error;

  DaemonCompileResult Ok =
      daemonCompile(*S, "<jacobi>", Jacobi, CompilerOptions());
  ASSERT_TRUE(Ok.Ok) << Ok.DiagText;
  DaemonRunResult Run = daemonRun(*S, Ok.Spmd, SessionOptions(), true);
  EXPECT_TRUE(Run.Ok) << Run.Error;
  EXPECT_NE(Run.Summary.find("valid 1\n"), std::string::npos) << Run.Summary;
}

/// 2^32 processors lay jacobi out as 2 x 2^31: the run request draws an
/// error reply naming the processor array and the shape, and the same
/// daemon then runs jacobi on 4 processors.
TEST(DaemonFault, HugeProcessorCountDrawsAnErrorReply) {
  ScopedDaemon SD;
  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult C = daemonCompile(
      *S, "<jacobi>", appSource(apps::makeJacobi, 16, 1), CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;
  SessionOptions Huge;
  Huge.NumProcs = int64_t(1) << 32;
  DaemonRunResult R = daemonRun(*S, C.Spmd, Huge, /*Check=*/true);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("processor array 'PR'(2, 2147483648)"),
            std::string::npos)
      << R.Error;

  DaemonRunResult Run = daemonRun(*S, C.Spmd, SessionOptions(), true);
  EXPECT_TRUE(Run.Ok) << Run.Error;
  EXPECT_NE(Run.Summary.find("valid 1\n"), std::string::npos) << Run.Summary;
}

TEST(DaemonFault, MalformedWatchdogFailsStart) {
  DaemonOptions Opts;
  Opts.SocketPath = tempPath("dhpf_daemon_watchdog.sock");
  Opts.Quiet = true;
  ::setenv("DHPF_NET_TIMEOUT_MS", "abc", 1);
  std::string Err;
  {
    Daemon D(Opts);
    try {
      D.start();
    } catch (const net::TransportError &E) {
      Err = E.what();
    }
  }
  ::unsetenv("DHPF_NET_TIMEOUT_MS");
  EXPECT_NE(Err.find("malformed DHPF_NET_TIMEOUT_MS='abc'"), std::string::npos)
      << "start() under a malformed watchdog: '" << Err << "'";
  EXPECT_NE(::access(Opts.SocketPath.c_str(), F_OK), 0)
      << "the daemon bound " << Opts.SocketPath;
}

size_t lineCount(const std::string &Text) {
  return static_cast<size_t>(std::count(Text.begin(), Text.end(), '\n'));
}

/// Memory mappings of this process; every thread stack still mapped adds
/// two (the stack and its guard page).
size_t mappingCount() {
  std::ifstream In("/proc/self/maps");
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  return lineCount(All);
}

/// A connection's thread ends with the connection and leaves no state:
/// over 200 sequential connections, each compiling the same program, no
/// stack stays mapped, the metrics report does not grow, and afterwards
/// no connection is still counted.
TEST(DaemonServe, ConnectionsLeaveNoState) {
  ScopedDaemon SD;
  std::string Source = appSource(apps::makeJacobi, 11, 1);
  auto Serve = [&] {
    std::unique_ptr<net::MsgStream> S = SD.connect();
    DaemonCompileResult R =
        daemonCompile(*S, "<state>", Source, CompilerOptions());
    EXPECT_TRUE(R.Ok) << R.DiagText;
  };
  // A connection's thread notices the client's close within one 100 ms
  // poll of its socket.
  auto Drain = [&] {
    for (int I = 0; I != 500 && SD.daemon().activeConnections() != 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();

  Serve();
  Drain();
  size_t ReportLines = lineCount(Reg.reportText());
  // Sanitizer runtimes keep the last dozen or so finished threads'
  // contexts mapped, so mappings are counted from after a warm-up.
  for (int I = 0; I != 31; ++I)
    Serve();
  Drain();
  size_t Mappings = mappingCount();
  for (int I = 0; I != 200; ++I)
    Serve();
  Drain();

  EXPECT_LT(mappingCount(), Mappings + 50);
  std::string Report = Reg.reportText();
  EXPECT_EQ(Report.find("svc.client."), std::string::npos) << Report;
  EXPECT_LE(lineCount(Report), ReportLines) << Report;
  EXPECT_EQ(SD.daemon().activeConnections(), 0u);
}

TEST(DaemonPersist, ColdDaemonStartsWarmFromSavedCache) {
  std::string CacheFile = tempPath("dhpf_daemon_test.cache");
  {
    ScopedDaemon SD(CacheFile);
    std::unique_ptr<net::MsgStream> S = SD.connect();
    DaemonCompileResult R =
        daemonCompile(*S, "<persist>", appSource(apps::makeJacobi, 13, 2),
                      CompilerOptions(), /*Fresh=*/true);
    ASSERT_TRUE(R.Ok) << R.DiagText;
    // ~ScopedDaemon -> stop() -> cache saved.
  }
  ASSERT_GT(pset::OpCache::global().entryCount(), 0u);
  pset::OpCache::global().clear();
  {
    ScopedDaemon SD(CacheFile);
    EXPECT_GT(pset::OpCache::global().entryCount(), 0u)
        << "daemon start() did not reload " << CacheFile;
  }
  ::unlink(CacheFile.c_str());
}

//===----------------------------------------------------------------------===//
// KernelCache stale-tmp sweeping
//===----------------------------------------------------------------------===//

void touch(const std::string &Path) {
  std::ofstream(Path.c_str()) << "x";
}

bool exists(const std::string &Path) {
  return ::access(Path.c_str(), F_OK) == 0;
}

TEST(KernelCacheSweep, ReclaimsDeadWritersTmpFilesOnly) {
  char Buf[] = "/tmp/dhpf_sweep_test_XXXXXX";
  ASSERT_NE(mkdtemp(Buf), nullptr);
  std::string Dir = Buf;

  // A pid that is certainly dead: fork a child that exits immediately and
  // reap it.
  pid_t Dead = ::fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    ::_exit(0);
  ASSERT_EQ(::waitpid(Dead, nullptr, 0), Dead);

  std::string DeadTmp = Dir + "/dhpf-abc.so.tmp" + std::to_string(Dead);
  std::string DeadErr = Dir + "/dhpf-abc.cc.err" + std::to_string(Dead);
  std::string LiveTmp =
      Dir + "/dhpf-def.so.tmp" + std::to_string(::getpid());
  std::string Final = Dir + "/dhpf-abc.so";
  std::string Foreign = Dir + "/other.tmp" + std::to_string(Dead);
  touch(DeadTmp);
  touch(DeadErr);
  touch(LiveTmp);
  touch(Final);
  touch(Foreign);

  unsigned Swept = spmd::native::KernelCache::sweepStale(Dir);
  EXPECT_EQ(Swept, 2u);
  EXPECT_FALSE(exists(DeadTmp)) << "dead writer's .tmp kept";
  EXPECT_FALSE(exists(DeadErr)) << "dead writer's .err kept";
  EXPECT_TRUE(exists(LiveTmp)) << "live writer's .tmp swept";
  EXPECT_TRUE(exists(Final)) << "finished artifact swept";
  EXPECT_TRUE(exists(Foreign)) << "non-dhpf file swept";

  ::unlink(LiveTmp.c_str());
  ::unlink(Final.c_str());
  ::unlink(Foreign.c_str());
  ::rmdir(Dir.c_str());
}

} // namespace
