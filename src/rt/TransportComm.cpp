//===- rt/TransportComm.cpp - Plan-executor messages over a Transport -----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/TransportComm.h"

#include "obs/Metrics.h"
#include "spmd/ExecPlan.h"

#include <cstring>

using namespace dhpf;
using namespace dhpf::rt;
using namespace dhpf::spmd;

namespace {

/// Tag spaces: comm events use their event id; reductions and the
/// shutdown barrier live above every possible event id.
constexpr uint64_t ReduceTagBase = 1ull << 32;
constexpr uint64_t FinTag = 1ull << 33;

constexpr uint8_t KindPacked = 0;
constexpr uint8_t KindContig = 1;

/// memcpy that also accepts an empty (possibly null) range.
void copyBytes(void *Dst, const void *Src, size_t N) {
  if (N)
    std::memcpy(Dst, Src, N);
}

/// Decodes one comm-event frame into \p Out, checked against the event's
/// \p Size-element array. False when no correct
/// sender could have produced it: unknown kind, a length that disagrees
/// with the count, a span reaching outside the array, or packed elements
/// that are not strictly increasing in-range indices.
bool decode(const std::vector<uint8_t> &Pay, uint64_t Size, Payload &Out) {
  if (Pay.size() < 9)
    return false;
  uint64_t Count;
  std::memcpy(&Count, Pay.data() + 1, 8);
  size_t Body = Pay.size() - 9;
  if (Pay[0] == KindContig) {
    if (Body < 8 || (Body - 8) % 8 != 0 || (Body - 8) / 8 != Count)
      return false;
    uint64_t Base;
    std::memcpy(&Base, Pay.data() + 9, 8);
    if (Base > Size || Count > Size - Base)
      return false;
    Out.Contig = true;
    Out.Base = static_cast<int64_t>(Base);
    Out.N = Count;
    Out.Vals.resize(Count);
    copyBytes(Out.Vals.data(), Pay.data() + 17, Count * 8);
    return true;
  }
  if (Pay[0] != KindPacked || Body % 16 != 0 || Body / 16 != Count)
    return false;
  auto Flats = std::make_shared<std::vector<int64_t>>(Count);
  copyBytes(Flats->data(), Pay.data() + 9, Count * 8);
  for (size_t I = 0; I != Count; ++I) {
    int64_t F = (*Flats)[I];
    if (F < 0 || static_cast<uint64_t>(F) >= Size ||
        (I != 0 && F <= (*Flats)[I - 1]))
      return false;
  }
  Out.Flats = std::move(Flats);
  Out.N = Count;
  Out.Vals.resize(Count);
  copyBytes(Out.Vals.data(), Pay.data() + 9 + Count * 8, Count * 8);
  return true;
}

} // namespace

TransportComm::TransportComm(net::Transport &TIn, obs::TraceBuffer *Trace)
    : Comm(TIn.size(), TIn.rank(), 1, Trace), T(TIn) {}

void TransportComm::post(unsigned, unsigned Q, const EventPlan &EP,
                         Payload &&Pay) {
  uint64_t PayBytes = Pay.N * EP.ElemBytes;
  // Exactly one "send" span per counted message (++Messages below) — the
  // trace/counter cross-check in the tests relies on it.
  obs::TraceSpan Span(Trace, "send", "rt.comm",
                      "\"dst\": " + std::to_string(Q) + ", \"event\": " +
                          std::to_string(EP.Id) +
                          ", \"bytes\": " + std::to_string(PayBytes));
  uint8_t Head[17];
  uint64_t Count = Pay.N;
  Head[0] = Pay.Contig ? KindContig : KindPacked;
  std::memcpy(Head + 1, &Count, 8);
  net::ByteSpan Parts[3];
  size_t NumParts = 0;
  if (Pay.Contig) {
    std::memcpy(Head + 9, &Pay.Base, 8);
    Parts[NumParts++] = {Head, 17};
  } else {
    Parts[NumParts++] = {Head, 9};
    Parts[NumParts++] = {Pay.Flats->data(), Pay.N * 8};
  }
  // A span goes out straight from array storage — zero copy.
  const double *Vals = Pay.Span ? Pay.Span : Pay.Vals.data();
  Parts[NumParts++] = {Vals, Pay.N * 8};
  T.post(Q, static_cast<uint64_t>(EP.Id), Parts, NumParts);
  // Logical counters match the simulated machine: the sender counts the
  // message and its payload bytes; wire framing is tracked separately.
  ++Messages;
  Bytes += PayBytes;
}

bool TransportComm::receive(unsigned P, unsigned Q, const EventPlan &EP,
                            Payload &Out) {
  obs::TraceSpan Span(Trace, "recv", "rt.comm",
                      "\"src\": " + std::to_string(Q) +
                          ", \"event\": " + std::to_string(EP.Id));
  std::vector<uint8_t> Pay = T.recv(Q, static_cast<uint64_t>(EP.Id));
  // The frame passed its checksum, so a payload that fails to decode is a
  // broken or hostile sender, not line noise.
  if (!decode(Pay, static_cast<uint64_t>(EP.Elems), Out))
    throw net::TransportError("rank " + std::to_string(P) +
                              ": malformed payload from rank " +
                              std::to_string(Q) + " for event " +
                              std::to_string(EP.Id));
  return true;
}

void TransportComm::postScalar(unsigned Q, uint64_t Tag, double V) {
  net::ByteSpan S{&V, 8};
  T.post(Q, Tag, &S, 1);
  ++CollMessages;
  CollBytes += 8;
}

double TransportComm::recvScalar(unsigned Q, uint64_t Tag) {
  std::vector<uint8_t> Pay = T.recv(Q, Tag);
  if (Pay.size() != 8)
    throw net::TransportError("rank " + std::to_string(First) +
                              ": malformed reduction frame from rank " +
                              std::to_string(Q));
  ++CollMessages;
  CollBytes += 8;
  double V = 0;
  std::memcpy(&V, Pay.data(), 8);
  return V;
}

double TransportComm::allReduce(const PlanNode &N,
                                const std::vector<double> &Own) {
  obs::TraceSpan Span(Trace, "reduce:" + N.RedName, "rt.comm");
  uint64_t Tag = ReduceTagBase + ReduceSeq++;
  double Combined = 0;
  if (First == 0) {
    std::vector<double> ByRank(Size);
    ByRank[0] = Own.front();
    for (unsigned Q = 1; Q != Size; ++Q)
      ByRank[Q] = recvScalar(Q, Tag);
    Combined = fold(N, ByRank);
    for (unsigned Q = 1; Q != Size; ++Q)
      postScalar(Q, Tag, Combined);
  } else {
    postScalar(0, Tag, Own.front());
    Combined = recvScalar(0, Tag);
  }
  // Logical accounting mirrors sim::Machine::allReduce: P messages total
  // for the collective, one per rank. The paired zero-duration "send" span
  // keeps trace event counts == Messages.
  if (T.size() > 1) {
    ++Messages;
    if (Trace && Trace->active())
      Trace->complete("send", "rt.comm", Trace->nowUs(), 0,
                      "\"reduce\": \"" + obs::jsonEscape(N.RedName) + "\"");
  }
  return Combined;
}

void TransportComm::progress() {
  ++ProgressCalls;
  T.progress();
}

void TransportComm::finish(RunResult &R) {
  unsigned NP = T.size(), Me = T.rank();
  if (NP > 1) {
    // Drain the user-space send queues, then a FIN handshake with every
    // peer: the per-stream FIFO guarantees all data frames precede the
    // FIN, so leftover queued frames below really are undeliverable.
    T.flush();
    uint8_t Fin = 0xF1;
    for (unsigned Q = 0; Q != NP; ++Q) {
      if (Q == Me)
        continue;
      net::ByteSpan S{&Fin, 1};
      T.post(Q, FinTag, &S, 1);
    }
    T.flush();
    for (unsigned Q = 0; Q != NP; ++Q)
      if (Q != Me)
        T.recv(Q, FinTag);
  }
  if (T.hasUndelivered())
    R.addViolation("unconsumed messages remain (send/recv sets are not dual)");
  R.Messages = Messages;
  R.Bytes = Bytes;
  R.CollMessages = CollMessages;
  R.CollBytes = CollBytes;
  const net::TransportStats &St = T.stats();
  R.OverlapRatio =
      St.WireBytesSent
          ? double(St.BytesFlushedDuringCompute) / double(St.WireBytesSent)
          : 0.0;
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  M.counter("rt.comm.messages")->inc(R.Messages);
  M.counter("rt.comm.bytes")->inc(R.Bytes);
  M.counter("rt.comm.span_copies")->inc(R.SpanCopies);
  M.counter("rt.comm.packed_copies")->inc(R.PackedCopies);
  M.counter("rt.comm.progress_calls")->inc(ProgressCalls);
  M.counter("rt.exec.stmt_instances")->inc(R.StmtInstances);
}
