//===- rt/TransportComm.h - Plan-executor messages over a Transport -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed half of spmd::Comm: one rank process's messages,
/// reductions and progress pumps carried over a net::Transport, so a
/// `dhpf_rt` rank runs the same bytecode or native plan as the in-process
/// engines (spmd::Interpreter constructed over this comm) — the node
/// program the paper generates for a distributed-memory machine.
///
/// A comm-event message is one frame tagged with the event id:
///
///   u8 kind (1 = contiguous span, 0 = packed)   u64 count
///   kind 1: i64 base, then count raw doubles
///   kind 0: count i64 flat indices (strictly increasing), then count
///           raw doubles
///
/// A span of locally owned storage (the Section 3.3 shape) is posted
/// zero-copy: the header and the array bytes go out as two scatter parts.
/// The receiver checks every frame against its own copy of the array
/// before using it; a frame that could not have come from a correct sender
/// is a TransportError naming both ranks and the event.
///
/// A reduction gathers every rank's raw contribution (one 8-byte frame) at
/// rank 0, which folds them in rank order 0..P-1 exactly as the in-process
/// comm does and broadcasts the result, so the result bits match the
/// in-process engines. Rank 0 posts and receives 2(P-1) frames per
/// reduction, every other rank 2; CollMessages/CollBytes count them.
/// finish() drains the send queues, runs a FIN barrier with every peer,
/// and reports frames left undelivered as a validity violation.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_TRANSPORTCOMM_H
#define DHPF_RT_TRANSPORTCOMM_H

#include "net/Net.h"
#include "obs/Trace.h"
#include "spmd/Comm.h"

namespace dhpf {
namespace rt {

class TransportComm final : public spmd::Comm {
public:
  /// Runs rank T.rank() of a T.size()-rank mesh. Spans go to \p Trace
  /// (tests give each in-process rank its own buffer).
  explicit TransportComm(net::Transport &T,
                         obs::TraceBuffer *Trace = &obs::TraceBuffer::global());

  void post(unsigned P, unsigned Q, const spmd::EventPlan &EP,
            const spmd::ArrayStore &A, spmd::Payload &&Pay) override;
  bool receive(unsigned P, unsigned Q, const spmd::EventPlan &EP,
               const spmd::ArrayStore &A, spmd::Payload &Out) override;
  double allReduce(const spmd::PlanNode &N,
                   const std::vector<double> &Own) override;
  void progress() override;
  void finish(spmd::RunResult &R) override;

private:
  net::Transport &T;
  uint64_t ReduceSeq = 0; ///< reduce instance counter (tag sync)
  uint64_t Messages = 0, Bytes = 0, ProgressCalls = 0;
  uint64_t CollMessages = 0, CollBytes = 0;

  void postScalar(unsigned Q, uint64_t Tag, double V);
  double recvScalar(unsigned Q, uint64_t Tag);
};

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_TRANSPORTCOMM_H
