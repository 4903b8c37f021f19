//===- net/Socket.h - Unix-domain socket transport mesh ------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real inter-process backend: each rank owns one Unix-domain stream
/// socket pair per peer, wired at startup from a shared mesh directory.
/// Rank r listens on `<dir>/rank<r>.sock`; every rank first connects to
/// all lower ranks (with bounded retry-and-backoff, so start order does
/// not matter), then accepts from all higher ranks; a hello frame carries
/// the connector's rank. All descriptors run nonblocking afterwards: a
/// poll()-based progress engine drains arrivals and flushes buffered
/// sends, and posted frames are written straight from the caller's spans
/// (writev) when the kernel accepts them immediately — only the unsent
/// remainder is copied.
///
/// EOF / ECONNRESET marks the peer dead; the error surfaces (naming the
/// rank) only when something actually waits on that peer, so a normal
/// shutdown race never kills a run but a genuinely dead peer never hangs
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_NET_SOCKET_H
#define DHPF_NET_SOCKET_H

#include "net/Net.h"

#include <memory>

namespace dhpf {
namespace net {

struct SocketOptions {
  std::string MeshDir; ///< directory holding the rank sockets
};

/// Creates rank \p Rank's transport and wires the full mesh (blocking,
/// bounded by DHPF_NET_CONNECT_MS, default 5000). Throws TransportError if
/// any peer cannot be reached in time.
std::unique_ptr<Transport> connectSocketMesh(unsigned Rank, unsigned NP,
                                             const SocketOptions &Opts);

} // namespace net
} // namespace dhpf

#endif // DHPF_NET_SOCKET_H
