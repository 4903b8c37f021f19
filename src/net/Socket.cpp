//===- net/Socket.cpp - Unix-domain socket transport mesh ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Socket.h"

#include "net/Stream.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dhpf;
using namespace dhpf::net;

namespace {

std::string sockPath(const std::string &Dir, unsigned Rank) {
  return Dir + "/rank" + std::to_string(Rank) + ".sock";
}

std::string errnoStr() { return std::strerror(errno); }

/// Unix-domain wiring over the shared stream engine: rank r listens on
/// `<dir>/rank<r>.sock`, dials every lower rank with retry-and-backoff,
/// then accepts every higher rank.
class SocketTransport final : public detail::StreamTransport {
public:
  SocketTransport(unsigned Rank, unsigned NP, const SocketOptions &Opts)
      : StreamTransport(Rank, NP) {
    if (NP <= 1)
      return;
    int ConnectMs = envMs("DHPF_NET_CONNECT_MS", 5000);
    listenOn(sockPath(Opts.MeshDir, Rank));
    // Connect to every lower rank (retry/backoff: listeners may not have
    // bound yet), then accept every higher rank.
    for (unsigned Q = 0; Q != Rank; ++Q)
      connectTo(Q, sockPath(Opts.MeshDir, Q), ConnectMs);
    acceptPeers(ConnectMs);
    finishWiring();
  }

private:
  void listenOn(const std::string &Path) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      throw TransportError(where() + ": socket(): " + errnoStr());
    ::unlink(Path.c_str());
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      throw TransportError(where() + ": mesh path too long: " + Path);
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      throw TransportError(where() + ": bind(" + Path +
                           "): " + errnoStr());
    if (::listen(ListenFd, static_cast<int>(size())) != 0)
      throw TransportError(where() + ": listen(): " + errnoStr());
  }

  void connectTo(unsigned Q, const std::string &Path, int TimeoutMs) {
    int64_t Deadline = nowMs() + TimeoutMs;
    int BackoffUs = 1000;
    for (;;) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        throw TransportError(where() + ": socket(): " + errnoStr());
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) == 0) {
        adoptConnected(Q, Fd);
        return;
      }
      int E = errno;
      ::close(Fd);
      if (E != ECONNREFUSED && E != ENOENT)
        throw TransportError(where() + ": connect to rank " +
                             std::to_string(Q) + ": " + std::strerror(E));
      if (nowMs() >= Deadline)
        throw TransportError(
            where() + ": timed out connecting to rank " + std::to_string(Q) +
            " after " + std::to_string(TimeoutMs) +
            " ms — rank never started listening");
      ::usleep(BackoffUs);
      BackoffUs = BackoffUs * 3 / 2;
      if (BackoffUs > 100000)
        BackoffUs = 100000;
    }
  }
};

} // namespace

std::unique_ptr<Transport> net::connectSocketMesh(unsigned Rank, unsigned NP,
                                                  const SocketOptions &Opts) {
  return std::make_unique<SocketTransport>(Rank, NP, Opts);
}
