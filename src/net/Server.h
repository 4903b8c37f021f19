//===- net/Server.h - Framed request/response server + client ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client/server side of the framed wire protocol: where the rank mesh
/// (net/Socket.h) wires a fixed all-to-all topology at startup, this layer
/// serves an open-ended population of clients — the `dhpfd` compile daemon
/// and any `dhpfc --server=` invocation that connects to it.
///
/// Messages reuse the exact frame format of Net.h (40-byte header with
/// magic, length, tag, per-direction sequence numbers, and an FNV-1a
/// payload checksum), so every corruption/truncation/desync failure mode
/// the mesh diagnoses is diagnosed identically here. The Src/Dst header
/// fields carry the server-assigned client id (0 = the server itself).
///
/// MsgStream is a blocking, watchdog-bounded message pipe over one
/// connected socket: send() writes a whole frame, recv() returns the next
/// validated (tag, payload) pair or reports clean EOF. MsgServer owns a
/// listening Unix-domain socket and runs one service thread per accepted
/// connection, invoking a caller-provided handler per request message —
/// concurrency and backpressure live in the handler's layer
/// (core/CompilerService), not here. Bytes only; nothing outlives its
/// connection.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_NET_SERVER_H
#define DHPF_NET_SERVER_H

#include "net/Net.h"

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

namespace dhpf {
namespace net {

/// A blocking framed message pipe over one connected stream socket.
/// Single-threaded per direction; the daemon uses one service thread per
/// connection so send and recv never race.
class MsgStream {
public:
  /// Takes ownership of \p Fd. \p TimeoutMs (positive) bounds every
  /// blocking wait. \p SelfId is stamped into the Src field of outgoing
  /// frames, \p PeerId into the expected Dst.
  MsgStream(int Fd, int TimeoutMs, unsigned SelfId, unsigned PeerId);
  ~MsgStream();
  MsgStream(const MsgStream &) = delete;
  MsgStream &operator=(const MsgStream &) = delete;

  /// Sends one framed message (blocking, watchdog-bounded).
  void send(uint64_t Tag, const std::string &Payload);

  /// Receives the next message. Returns false on clean EOF before any
  /// byte of a frame; throws TransportError on timeout, a torn frame,
  /// checksum/sequence/magic violations, or peer death mid-frame.
  bool recv(uint64_t &Tag, std::string &Payload);

  unsigned selfId() const { return Self; }
  unsigned peerId() const { return Peer; }

private:
  int Fd;
  int Watchdog;
  unsigned Self, Peer;
  uint64_t NextSendSeq = 0, NextRecvSeq = 0;

  void readFully(uint8_t *Buf, size_t Len, bool &SawEof);
  void writeFully(const uint8_t *Buf, size_t Len);
};

/// A Unix-domain socket server: accept loop on its own thread, one
/// detached service thread per connection that ends with the connection.
/// The handler is invoked once per received message and replies through
/// the same stream; a handler exception closes that connection (after a
/// best-effort error frame) but never the server.
class MsgServer {
public:
  /// Called per request message. \p ClientId is the server-assigned
  /// connection id (stable for the connection's lifetime). Return false
  /// to close the connection after this message.
  using Handler = std::function<bool(unsigned ClientId, uint64_t Tag,
                                     const std::string &Payload,
                                     MsgStream &Stream)>;

  MsgServer() = default;
  ~MsgServer();
  MsgServer(const MsgServer &) = delete;
  MsgServer &operator=(const MsgServer &) = delete;

  /// Reads the per-message watchdog (DHPF_NET_TIMEOUT_MS, default 10 s),
  /// binds \p SocketPath (unlinking any stale socket), starts the accept
  /// loop, and returns. Throws TransportError on a malformed watchdog or a
  /// bind/listen failure, before accepting any connection.
  void start(const std::string &SocketPath, Handler H);

  /// Stops accepting, closes the listening socket, and returns once every
  /// connection thread has stopped touching the server (each notices
  /// within 100 ms of its current request). Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_relaxed); }
  const std::string &path() const { return Path; }
  /// Connections currently being served.
  unsigned activeConnections() const {
    return Active.load(std::memory_order_relaxed);
  }
  /// Total connections accepted over the server's lifetime.
  uint64_t totalConnections() const {
    return Accepted.load(std::memory_order_relaxed);
  }

private:
  std::string Path;
  int ListenFd = -1;
  int Watchdog = 0; ///< per-message timeout of every served stream
  Handler Handle;
  std::thread Acceptor;
  std::atomic<bool> Running{false};
  /// Connection threads still using the server. A thread's last access
  /// to the server is its decrement of this count; stop() waits for 0.
  std::atomic<unsigned> Active{0};
  std::atomic<uint64_t> Accepted{0};

  void acceptLoop();
  void serveOne(int Fd, unsigned ClientId);
};

/// Connects to a MsgServer socket with bounded retry (the daemon may
/// still be binding). Returns the connected stream, whose watchdog is
/// DHPF_NET_TIMEOUT_MS (default 10 s); throws TransportError when
/// \p SocketPath cannot be reached within DHPF_NET_CONNECT_MS (default
/// 5000), or when either variable is malformed.
std::unique_ptr<MsgStream> connectClient(const std::string &SocketPath);

} // namespace net
} // namespace dhpf

#endif // DHPF_NET_SERVER_H
