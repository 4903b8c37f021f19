//===- net/Server.cpp - Framed request/response server + client ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dhpf;
using namespace dhpf::net;

namespace {

int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string errnoStr() { return std::strerror(errno); }

sockaddr_un mkAddr(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    throw TransportError("server socket path too long: " + Path);
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  return Addr;
}

} // namespace

//===----------------------------------------------------------------------===//
// MsgStream
//===----------------------------------------------------------------------===//

MsgStream::MsgStream(int FdIn, int TimeoutMs, unsigned SelfId,
                     unsigned PeerId)
    : Fd(FdIn), Watchdog(TimeoutMs), Self(SelfId), Peer(PeerId) {}

MsgStream::~MsgStream() {
  if (Fd >= 0)
    ::close(Fd);
}

void MsgStream::writeFully(const uint8_t *Buf, size_t Len) {
  int64_t Deadline = nowMs() + Watchdog;
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::send(Fd, Buf + Off, Len - Off, MSG_NOSIGNAL);
    if (N > 0) {
      Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int64_t Left = Deadline - nowMs();
      if (Left <= 0)
        throw TransportError("message send: watchdog timeout (" +
                             std::to_string(Watchdog) +
                             " ms) — peer not reading");
      pollfd P{Fd, POLLOUT, 0};
      ::poll(&P, 1, static_cast<int>(Left < 100 ? Left : 100));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    throw TransportError("message send failed: " + errnoStr());
  }
}

void MsgStream::readFully(uint8_t *Buf, size_t Len, bool &SawEof) {
  int64_t Deadline = nowMs() + Watchdog;
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::recv(Fd, Buf + Off, Len - Off, 0);
    if (N > 0) {
      Off += static_cast<size_t>(N);
      continue;
    }
    if (N == 0) {
      if (Off == 0 && SawEof) {
        // Caller treats EOF-before-any-byte as a clean close.
        return;
      }
      throw TransportError("connection closed mid-frame (got " +
                           std::to_string(Off) + " of " +
                           std::to_string(Len) + " bytes)");
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      int64_t Left = Deadline - nowMs();
      if (Left <= 0)
        throw TransportError("message recv: watchdog timeout (" +
                             std::to_string(Watchdog) + " ms)");
      pollfd P{Fd, POLLIN, 0};
      ::poll(&P, 1, static_cast<int>(Left < 100 ? Left : 100));
      continue;
    }
    throw TransportError("message recv failed: " + errnoStr());
  }
  SawEof = false;
}

void MsgStream::send(uint64_t Tag, const std::string &Payload) {
  if (Payload.size() > MaxFramePayload)
    throw TransportError("message payload too large (" +
                         std::to_string(Payload.size()) + " bytes)");
  FrameHeader H;
  H.PayloadLen = static_cast<uint32_t>(Payload.size());
  H.Src = Self;
  H.Dst = Peer;
  H.Tag = Tag;
  H.Seq = NextSendSeq++;
  H.Checksum = fnv1aAccum(fnv1aInit(), Payload.data(), Payload.size());
  uint8_t Hdr[FrameHeaderBytes];
  encodeHeader(H, Hdr);
  writeFully(Hdr, FrameHeaderBytes);
  writeFully(reinterpret_cast<const uint8_t *>(Payload.data()),
             Payload.size());
}

bool MsgStream::recv(uint64_t &Tag, std::string &Payload) {
  uint8_t Hdr[FrameHeaderBytes];
  bool SawEof = true; // EOF before any header byte is a clean close
  readFully(Hdr, FrameHeaderBytes, SawEof);
  if (SawEof)
    return false;
  FrameHeader H = decodeHeader(Hdr);
  if (H.Magic != FrameMagic)
    throw TransportError("garbled message stream (bad magic)");
  if (H.PayloadLen > MaxFramePayload)
    throw TransportError("garbled message length (" +
                         std::to_string(H.PayloadLen) + " bytes)");
  if (H.Seq != NextRecvSeq)
    throw TransportError("message sequence break (expected seq " +
                         std::to_string(NextRecvSeq) + ", got " +
                         std::to_string(H.Seq) + ")");
  ++NextRecvSeq;
  Payload.resize(H.PayloadLen);
  if (H.PayloadLen) {
    bool MidEof = false;
    readFully(reinterpret_cast<uint8_t *>(Payload.data()), H.PayloadLen,
              MidEof);
  }
  uint64_t Sum = fnv1aAccum(fnv1aInit(), Payload.data(), Payload.size());
  if (Sum != H.Checksum)
    throw TransportError("corrupted message (tag " + std::to_string(H.Tag) +
                         ", bad checksum)");
  Tag = H.Tag;
  return true;
}

//===----------------------------------------------------------------------===//
// MsgServer
//===----------------------------------------------------------------------===//

MsgServer::~MsgServer() { stop(); }

void MsgServer::start(const std::string &SocketPath, Handler H) {
  if (Running.load())
    throw TransportError("server already running on " + Path);
  Watchdog = envMs("DHPF_NET_TIMEOUT_MS", 10000);
  Path = SocketPath;
  Handle = std::move(H);
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    throw TransportError("server socket(): " + errnoStr());
  ::unlink(Path.c_str());
  sockaddr_un Addr = mkAddr(Path);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    std::string E = errnoStr();
    ::close(ListenFd);
    ListenFd = -1;
    throw TransportError("server bind(" + Path + "): " + E);
  }
  if (::listen(ListenFd, 64) != 0) {
    std::string E = errnoStr();
    ::close(ListenFd);
    ListenFd = -1;
    throw TransportError("server listen(): " + E);
  }
  Running.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
}

void MsgServer::acceptLoop() {
  while (Running.load(std::memory_order_relaxed)) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, 100);
    if (R <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    unsigned Id =
        static_cast<unsigned>(Accepted.fetch_add(1, std::memory_order_relaxed)) + 1;
    Active.fetch_add(1, std::memory_order_relaxed);
    try {
      std::thread([this, Fd, Id] { serveOne(Fd, Id); }).detach();
    } catch (const std::system_error &) {
      // No thread to serve it: the client sees the connection close.
      ::close(Fd);
      Active.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void MsgServer::serveOne(int Fd, unsigned ClientId) {
  try {
    // The stream owns Fd and closes it when this scope exits, on every path.
    MsgStream Stream(Fd, Watchdog, /*Self=*/0, /*Peer=*/ClientId);
    uint64_t Tag;
    std::string Payload;
    bool Keep = true;
    while (Keep && Running.load(std::memory_order_relaxed)) {
      // Idle connections are fine: wait for the next request without the
      // per-message watchdog, but wake periodically to honor stop().
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1, 100);
      if (R <= 0)
        continue;
      if (!Stream.recv(Tag, Payload))
        break; // clean EOF
      Keep = Handle(ClientId, Tag, Payload, Stream);
    }
  } catch (const std::exception &) {
    // A torn frame or a handler failure kills this connection only; the
    // client sees the closed socket and diagnoses it on its side.
  }
  // The last access to the server: stop() may return, and the server be
  // destroyed, as soon as this lands.
  Active.fetch_sub(1, std::memory_order_release);
}

void MsgServer::stop() {
  if (!Running.exchange(false))
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  // Connection threads are detached; each sees Running cleared within one
  // 100 ms poll of its socket (or once its current request is served).
  while (Active.load(std::memory_order_acquire) != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (!Path.empty())
    ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Client connect
//===----------------------------------------------------------------------===//

std::unique_ptr<MsgStream> net::connectClient(const std::string &SocketPath) {
  int TimeoutMs = envMs("DHPF_NET_CONNECT_MS", 5000);
  int Watchdog = envMs("DHPF_NET_TIMEOUT_MS", 10000);
  int64_t Deadline = nowMs() + TimeoutMs;
  int BackoffUs = 1000;
  for (;;) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      throw TransportError("client socket(): " + errnoStr());
    sockaddr_un Addr = mkAddr(SocketPath);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return std::make_unique<MsgStream>(Fd, Watchdog, /*Self=*/0,
                                         /*Peer=*/0);
    int E = errno;
    ::close(Fd);
    if (E != ECONNREFUSED && E != ENOENT)
      throw TransportError("connect to server " + SocketPath + ": " +
                           std::strerror(E));
    if (nowMs() >= Deadline)
      throw TransportError("timed out connecting to server " + SocketPath +
                           " after " + std::to_string(TimeoutMs) +
                           " ms — is dhpfd running?");
    ::usleep(BackoffUs);
    BackoffUs = BackoffUs * 3 / 2;
    if (BackoffUs > 100000)
      BackoffUs = 100000;
  }
}
