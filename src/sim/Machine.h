//===- sim/Machine.h - Simulated message-passing machine -----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A discrete-event model of a distributed-memory message-passing machine —
/// the stand-in for the paper's IBM SP-2 (Section 7). Each processor has a
/// local clock advanced by compute work; messages are eagerly buffered with
/// an alpha + beta*bytes cost, and a blocking receive waits for the matching
/// message's availability time. Collectives (the paper's reductions) use a
/// log2(P) combining-tree cost.
///
/// The parameters default to SP-2-like constants (tens-of-microseconds
/// latency, ~40 MB/s bandwidth, ~100 MFLOP-ish compute); Figure 7's benches
/// document the values they use. Only speedup *shapes* are meaningful.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SIM_MACHINE_H
#define DHPF_SIM_MACHINE_H

#include "support/CacheLine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <queue>
#include <vector>

namespace dhpf {
namespace sim {

/// Cost parameters of the simulated machine (LogP-flavoured: the sender
/// pays a small injection overhead; the end-to-end latency alpha plus the
/// per-byte transfer time elapse on the wire and are felt by a blocking
/// receiver).
struct MachineParams {
  double Alpha = 40e-6;        ///< end-to-end message latency (seconds)
  double SendOverhead = 8e-6;  ///< sender-side injection overhead
  double BetaPerByte = 25e-9;  ///< per-byte transfer time (~40 MB/s)
  double SecPerWork = 10e-9;   ///< seconds per statement work unit
  double PackPerByte = 4e-9;   ///< buffer copy cost per byte (pack/unpack)
};

/// Per-processor clocks plus an in-flight message store. Each clock sits on
/// its own cache line: in-process ranks on different threads bump their
/// clocks once per statement instance.
class Machine {
public:
  Machine(unsigned NumProcs, MachineParams P = {})
      : Params(P), Clocks(NumProcs) {}

  unsigned numProcs() const { return Clocks.size(); }
  const MachineParams &params() const { return Params; }

  double clock(unsigned P) const { return Clocks[P].T; }
  void addCompute(unsigned P, double WorkUnits) {
    Clocks[P].T += WorkUnits * Params.SecPerWork;
  }
  /// Direct clock storage for \p P. The native SPMD engine hands this to
  /// its compiled kernels, which replicate addCompute's exact arithmetic
  /// (one precomputed WorkUnits * SecPerWork product added per statement)
  /// so simulated times stay bit-identical across engines.
  double &clockRef(unsigned P) { return Clocks[P].T; }
  void addSeconds(unsigned P, double S) { Clocks[P].T += S; }

  /// Posts a message of \p Bytes from \p Src to \p Dst under \p Tag.
  /// The sender pays the injection overhead; the payload becomes available
  /// to the receiver after latency + transfer time. \p PackBytes models the
  /// explicit copy into a send buffer (0 when sent in place).
  void send(unsigned Src, unsigned Dst, uint64_t Tag, uint64_t Bytes,
            uint64_t PackBytes) {
    double &T = Clocks[Src].T;
    T += PackBytes * Params.PackPerByte;
    T += Params.SendOverhead;
    double Avail = T + Params.Alpha + Bytes * Params.BetaPerByte;
    InFlight[key(Src, Dst, Tag)].push(Avail);
    TotalMessages++;
    TotalBytes += Bytes;
  }

  /// Blocking receive of the oldest matching message; advances Dst's clock
  /// to the availability time and charges the unpack copy.
  void recv(unsigned Src, unsigned Dst, uint64_t Tag, uint64_t UnpackBytes) {
    auto It = InFlight.find(key(Src, Dst, Tag));
    assert(It != InFlight.end() && !It->second.empty() &&
           "receive without a matching send");
    double Avail = It->second.front();
    It->second.pop();
    if (It->second.empty())
      InFlight.erase(It);
    double &T = Clocks[Dst].T;
    T = std::max(T, Avail);
    T += UnpackBytes * Params.PackPerByte;
  }

  /// An all-reduce over all processors: synchronizes clocks and charges a
  /// combining-tree cost of 2*ceil(log2 P) message steps.
  void allReduce(uint64_t Bytes) {
    double T = elapsed();
    unsigned P = numProcs();
    double Steps = P > 1 ? 2.0 * std::ceil(std::log2(double(P))) : 0.0;
    T += Steps * (Params.Alpha + Bytes * Params.BetaPerByte);
    for (Clock &C : Clocks)
      C.T = T;
    TotalMessages += P > 1 ? P : 0;
  }

  /// Simulated parallel completion time.
  double elapsed() const {
    return std::max_element(Clocks.begin(), Clocks.end(),
                            [](const Clock &A, const Clock &B) {
                              return A.T < B.T;
                            })
        ->T;
  }

  /// True if every posted message was received.
  bool allMessagesConsumed() const { return InFlight.empty(); }

  uint64_t totalMessages() const { return TotalMessages; }
  uint64_t totalBytes() const { return TotalBytes; }

private:
  static uint64_t key(unsigned Src, unsigned Dst, uint64_t Tag) {
    return (uint64_t(Src) << 48) | (uint64_t(Dst) << 32) | (Tag & 0xffffffff);
  }

  struct alignas(CacheLine) Clock {
    double T = 0.0;
  };
  static_assert(sizeof(Clock) == CacheLine, "one clock per cache line");

  MachineParams Params;
  std::vector<Clock> Clocks;
  std::map<uint64_t, std::queue<double>> InFlight;
  uint64_t TotalMessages = 0;
  uint64_t TotalBytes = 0;
};

} // namespace sim
} // namespace dhpf

#endif // DHPF_SIM_MACHINE_H
