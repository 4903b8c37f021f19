//===- obs/Trace.h - Structured tracing with Chrome trace export ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped wall-clock tracing for the compiler and runtime, exported as
/// Chrome trace-event JSON (the catapult format `chrome://tracing` and
/// Perfetto load directly). A TraceBuffer collects complete ("X") and
/// instant ("i") events with microsecond timestamps relative to the
/// buffer's start; TraceSpan is the RAII probe call sites use:
///
///   obs::TraceSpan S(&obs::TraceBuffer::global(), "pass:comm", "compile");
///
/// A span records *nothing* unless the buffer is active (started), so an
/// idle process pays one relaxed atomic load per probe.
///
/// Lanes: every buffer carries a Chrome `pid` (the lane) plus a process
/// name. The driver traces in lane 0; rank R of a distributed run traces
/// in lane R+1 (`dhpf_rt` sets this from --rank). `mergeChromeTraces`
/// stitches per-rank trace files into one timeline by concatenating their
/// event arrays — lanes keep rank events apart, so the merged file shows
/// the driver plus every rank side by side. Timestamps in one document are
/// per-process (microseconds since its buffer started); the lane metadata
/// event records that start as steady-clock microseconds
/// (`steady_start_us`), a clock all processes of a machine share, and the
/// merge moves each lane by its start minus the earliest start. So the
/// merged timeline is on one clock: it shows when each rank started after
/// the launcher forked it, and how long the launcher waited after the last
/// rank exited.
///
/// Threads within a lane get small dense `tid`s in first-use order;
/// setThreadId() pins the calling thread's id (the in-process rank
/// executors pin tid = rank so lanes are stable).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_TRACE_H
#define DHPF_TRACE_H

#include "obs/Metrics.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dhpf {
namespace obs {

struct TraceEvent {
  std::string Name;
  std::string Cat;
  char Ph = 'X';    ///< 'X' complete, 'i' instant
  uint64_t TsUs = 0;  ///< microseconds since buffer start
  uint64_t DurUs = 0; ///< 'X' only
  uint32_t Tid = 0;
  std::string Args; ///< pre-rendered JSON object body ("\"k\":1"), may be ""
};

/// The calling thread's dense trace id (assigned on first use).
uint32_t threadId();
/// Pins the calling thread's trace id (e.g. tid = rank).
void setThreadId(uint32_t Tid);

class TraceBuffer {
public:
  /// The process-global buffer. Idle (inactive) until start() — the
  /// DHPF_TRACE env var or the --trace flag starts it.
  static TraceBuffer &global();

  TraceBuffer() = default;
  TraceBuffer(const TraceBuffer &) = delete;
  TraceBuffer &operator=(const TraceBuffer &) = delete;

  /// Starts (or restarts) recording; resets the clock epoch.
  void start();
  void stop() { Active.store(false, std::memory_order_relaxed); }
  bool active() const { return Active.load(std::memory_order_relaxed); }

  /// Chrome `pid` for every event of this buffer, plus the process name
  /// shown in the timeline ("driver", "rank 2").
  void setLane(uint32_t Pid, std::string Name);
  uint32_t lane() const { return Lane; }

  /// Microseconds since start() (0 when inactive).
  uint64_t nowUs() const;

  void complete(std::string Name, std::string Cat, uint64_t TsUs,
                uint64_t DurUs, std::string Args = "");
  void instant(std::string Name, std::string Cat, std::string Args = "");

  /// The whole buffer as one Chrome trace JSON object:
  /// {"displayTimeUnit":"ms","traceEvents":[...]} with a process_name
  /// metadata event for the lane. Valid JSON even when empty (it is then
  /// just the metadata).
  std::string chromeJson() const;

  std::vector<TraceEvent> snapshot() const;
  size_t eventCount() const;
  void clear();

private:
  mutable std::mutex M;
  std::vector<TraceEvent> Events;
  std::atomic<bool> Active{false};
  std::chrono::steady_clock::time_point Epoch{};
  uint32_t Lane = 0;
  std::string LaneName = "driver";
};

/// RAII scoped timer: records one complete event over its lifetime.
/// Null buffer or inactive buffer: fully inert.
class TraceSpan {
public:
  TraceSpan(TraceBuffer *Buf, std::string Name, std::string Cat,
            std::string Args = "") {
    if (Buf && Buf->active()) {
      B = Buf;
      N = std::move(Name);
      C = std::move(Cat);
      A = std::move(Args);
      T0 = B->nowUs();
    }
  }
  ~TraceSpan() {
    if (B)
      B->complete(std::move(N), std::move(C), T0, B->nowUs() - T0,
                  std::move(A));
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceBuffer *B = nullptr;
  std::string N, C, A;
  uint64_t T0 = 0;
};

/// Escapes a string for embedding in a JSON string literal.
std::string jsonEscape(const std::string &S);

/// Merges several Chrome trace JSON documents (each the chromeJson() of
/// one lane, or a per-rank trace file) into one timeline document by
/// concatenating their traceEvents arrays, each event's "ts" moved by its
/// lane's start minus the earliest lane start (a document that records no
/// start stays as it is). Inputs that are empty or lack a traceEvents
/// array are skipped. The result is always valid JSON.
std::string mergeChromeTraces(const std::vector<std::string> &Docs);

/// If DHPF_TRACE names a file, starts the global buffer (lane \p Lane,
/// named \p LaneName) and returns the path; else returns "". The caller
/// writes TraceBuffer::global().chromeJson() there when done.
std::string startTraceFromEnv(uint32_t Lane, const std::string &LaneName);

/// The DHPF_METRICS path, or "".
std::string metricsPathFromEnv();

} // namespace obs
} // namespace dhpf

#endif // DHPF_TRACE_H
