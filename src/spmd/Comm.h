//===- spmd/Comm.h - Message exchange under the plan executor -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the plan executor (ExecPlan.h) and whatever carries its
/// messages. The executor runs the lowered plan for the ranks that live in
/// its process — all P of them in-process, exactly one in a `dhpf_rt` rank
/// process — and hands every message, reduction and progress pump to a
/// Comm. There are two implementations: the Interpreter's in-process comm
/// (Interp.cpp), which queues payloads between the ranks of one address
/// space and charges the simulated machine for them, and rt::TransportComm,
/// which moves them between rank processes over a net::Transport.
/// Everything else — partner enumeration, packing, validation, unpacking —
/// is the executor's, so a distributed rank runs the same bytecode or
/// native plan as the in-process engines.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_COMM_H
#define DHPF_SPMD_COMM_H

#include <cstdint>
#include <memory>
#include <vector>

namespace dhpf {
namespace obs {
class TraceBuffer;
} // namespace obs
namespace spmd {

class ArrayStore;
struct EventPlan;
struct PlanNode;
struct RunResult;

/// One message of a communication event: sorted unique flat indices of the
/// event's array plus their values.
struct Payload {
  /// The elements, sorted and unique; null when Contig (the run
  /// [Base, Base + N) is implicit).
  std::shared_ptr<const std::vector<int64_t>> Flats;
  /// The values, in element order. Empty on an outgoing Span payload.
  std::vector<double> Vals;
  int64_t Base = 0;
  size_t N = 0; ///< element count
  bool Contig = false;
  /// Outgoing only: the elements are a contiguous run of locally owned
  /// storage (the Section 3.3 shape). The executor does not gather them;
  /// the comm reads [Base, Base + N) straight from the array at post time.
  bool Span = false;
};

/// Carries one process's share of the messages, reductions and progress of
/// a run. Every call is made in the executor's deterministic order.
class Comm {
public:
  /// This process runs ranks [First, First + Local) of a Size-rank mesh.
  const unsigned Size, First, Local;
  /// Sink for the executor's per-node spans (rank:run, compute:<nest>,
  /// rank:finish); null traces nothing.
  obs::TraceBuffer *const Trace;

  virtual ~Comm() = default;
  Comm(const Comm &) = delete;
  Comm &operator=(const Comm &) = delete;

  /// Sends rank \p P's payload for rank \p Q under event \p EP, whose
  /// array is \p A.
  virtual void post(unsigned P, unsigned Q, const EventPlan &EP,
                    const ArrayStore &A, Payload &&Pay) = 0;

  /// The next payload rank \p P receives from rank \p Q under event \p EP;
  /// false when \p Q never sent one.
  virtual bool receive(unsigned P, unsigned Q, const EventPlan &EP,
                       const ArrayStore &A, Payload &Out) = 0;

  /// Reduction \p N over every rank of the mesh: \p Own holds the
  /// contributions of this process's ranks in rank order. The result is
  /// folded from the identity in rank order 0..Size-1, so its bits do not
  /// depend on where the ranks run.
  virtual double allReduce(const PlanNode &N,
                           const std::vector<double> &Own) = 0;

  /// Drives posted messages forward; compute calls it every 256 statement
  /// instances (the Figure 4 overlap window).
  virtual void progress() = 0;

  /// Ends the run: checks that every message was consumed and fills in the
  /// counters only the comm knows.
  virtual void finish(RunResult &R) = 0;

protected:
  Comm(unsigned Size, unsigned First, unsigned Local, obs::TraceBuffer *Trace)
      : Size(Size), First(First), Local(Local), Trace(Trace) {}

  /// The fold every allReduce ends in: \p ByRank holds one contribution per
  /// rank in rank order, combined from the identity of \p N's operator.
  static double fold(const PlanNode &N, const std::vector<double> &ByRank);
};

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_COMM_H
