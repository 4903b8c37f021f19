//===- net/Tcp.h - TCP transport mesh -------------------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-host backend: the same framed/checksummed protocol (and the
/// same stream engine, wiring order, fault-injection hooks, and watchdog)
/// as the Unix-domain socket mesh, but over TCP so the P ranks can span
/// machines. Who listens where comes from a *rank-spec file*: line r is
/// rank r's `host:port` (blank lines and `#` comments allowed). Every rank
/// reads the same file, listens on its own entry, dials every lower rank
/// with nonblocking connect + bounded retry (peers may not have bound
/// yet), and accepts every higher rank. Nagle is disabled on every stream
/// (TCP_NODELAY) — the runtime already batches into frames, and delayed
/// ACKs would serialize the reduce round trips.
///
/// `writeLocalRankSpec` reserves NP distinct loopback ports and writes a
/// spec for them, so a single-machine launch (`dhpfc launch --hosts=auto`
/// and the tests) exercises the exact code path a real multi-host run
/// uses.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_NET_TCP_H
#define DHPF_NET_TCP_H

#include "net/Net.h"

#include <memory>

namespace dhpf {
namespace net {

/// One rank's endpoint from a rank-spec file.
struct HostPort {
  std::string Host;
  uint16_t Port = 0;
};

struct TcpOptions {
  std::string HostsPath; ///< rank-spec file: line r = "host:port"
};

/// Parses rank-spec text: one `host:port` per line, rank order; `#` starts
/// a comment. Throws TransportError (naming \p What and the line) on any
/// malformed entry — a typo in a host map must not silently re-rank the
/// mesh.
std::vector<HostPort> parseRankSpec(const std::string &Text,
                                    const std::string &What);

/// Reads and parses a rank-spec file; throws TransportError if unreadable.
std::vector<HostPort> loadRankSpec(const std::string &Path);

/// Reserves \p NP distinct 127.0.0.1 ports (kernel-assigned, immediately
/// released) and writes the spec file to \p Path. The released ports are
/// re-bound by the ranks with SO_REUSEADDR; the reservation window is the
/// standard ephemeral-port handoff.
std::vector<HostPort> writeLocalRankSpec(const std::string &Path,
                                         unsigned NP);

/// Creates rank \p Rank's transport and wires the full mesh over TCP
/// (blocking, bounded by DHPF_NET_CONNECT_MS, default 5000). The spec must
/// list exactly \p NP endpoints. Throws TransportError if any peer cannot
/// be reached in time.
std::unique_ptr<Transport> connectTcpMesh(unsigned Rank, unsigned NP,
                                          const TcpOptions &Opts);

} // namespace net
} // namespace dhpf

#endif // DHPF_NET_TCP_H
