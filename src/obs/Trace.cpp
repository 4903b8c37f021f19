//===- obs/Trace.cpp - Structured tracing with Chrome trace export -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>

using namespace dhpf;
using namespace dhpf::obs;

//===----------------------------------------------------------------------===//
// Thread ids
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint32_t> &nextTid() {
  static std::atomic<uint32_t> N{0};
  return N;
}

thread_local uint32_t TlsTid = UINT32_MAX;

/// The lane metadata's argument holding the buffer's start: steady-clock
/// microseconds, the same clock in every process of a machine.
constexpr const char *StartKey = "steady_start_us";

} // namespace

uint32_t obs::threadId() {
  if (TlsTid == UINT32_MAX)
    TlsTid = nextTid().fetch_add(1, std::memory_order_relaxed);
  return TlsTid;
}

void obs::setThreadId(uint32_t Tid) { TlsTid = Tid; }

//===----------------------------------------------------------------------===//
// TraceBuffer
//===----------------------------------------------------------------------===//

TraceBuffer &TraceBuffer::global() {
  static TraceBuffer B;
  return B;
}

void TraceBuffer::start() {
  std::lock_guard<std::mutex> Lock(M);
  Epoch = std::chrono::steady_clock::now();
  Active.store(true, std::memory_order_relaxed);
}

void TraceBuffer::setLane(uint32_t Pid, std::string Name) {
  std::lock_guard<std::mutex> Lock(M);
  Lane = Pid;
  LaneName = std::move(Name);
}

uint64_t TraceBuffer::nowUs() const {
  if (!active())
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void TraceBuffer::complete(std::string Name, std::string Cat, uint64_t TsUs,
                           uint64_t DurUs, std::string Args) {
  if (!active())
    return;
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  E.Ph = 'X';
  E.TsUs = TsUs;
  E.DurUs = DurUs;
  E.Tid = threadId();
  E.Args = std::move(Args);
  std::lock_guard<std::mutex> Lock(M);
  Events.push_back(std::move(E));
}

void TraceBuffer::instant(std::string Name, std::string Cat,
                          std::string Args) {
  if (!active())
    return;
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  E.Ph = 'i';
  E.TsUs = nowUs();
  E.Tid = threadId();
  E.Args = std::move(Args);
  std::lock_guard<std::mutex> Lock(M);
  Events.push_back(std::move(E));
}

std::string TraceBuffer::chromeJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Lane metadata first, so viewers label the lane even when empty; it
  // carries the buffer's start on the steady clock, which every process
  // of the machine shares, for mergeChromeTraces.
  OS << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << Lane
     << ", \"tid\": 0, \"args\": {\"name\": \"" << jsonEscape(LaneName)
     << "\"";
  if (Epoch != std::chrono::steady_clock::time_point())
    OS << ", \"" << StartKey << "\": "
       << std::chrono::duration_cast<std::chrono::microseconds>(
              Epoch.time_since_epoch())
              .count();
  OS << "}}";
  for (const TraceEvent &E : Events) {
    OS << ",\n{\"name\": \"" << jsonEscape(E.Name) << "\", \"cat\": \""
       << jsonEscape(E.Cat) << "\", \"ph\": \"" << E.Ph
       << "\", \"ts\": " << E.TsUs;
    if (E.Ph == 'X')
      OS << ", \"dur\": " << E.DurUs;
    if (E.Ph == 'i')
      OS << ", \"s\": \"t\"";
    OS << ", \"pid\": " << Lane << ", \"tid\": " << E.Tid;
    if (!E.Args.empty())
      OS << ", \"args\": {" << E.Args << "}";
    OS << "}";
  }
  OS << "\n]}\n";
  return OS.str();
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events;
}

size_t TraceBuffer::eventCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events.size();
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Events.clear();
}

//===----------------------------------------------------------------------===//
// JSON utilities and the cross-process merge
//===----------------------------------------------------------------------===//

std::string obs::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

/// Extracts the body (between the brackets, exclusive) of the
/// `"traceEvents": [...]` array of one Chrome trace document. Returns
/// false when the document has no such array. The scan respects string
/// literals and nesting, so event payloads containing brackets are safe.
bool extractEventArray(const std::string &Doc, std::string &Body) {
  size_t Key = Doc.find("\"traceEvents\"");
  if (Key == std::string::npos)
    return false;
  size_t Open = Doc.find('[', Key);
  if (Open == std::string::npos)
    return false;
  int Depth = 0;
  bool InStr = false, Esc = false;
  for (size_t I = Open; I != Doc.size(); ++I) {
    char C = Doc[I];
    if (InStr) {
      if (Esc)
        Esc = false;
      else if (C == '\\')
        Esc = true;
      else if (C == '"')
        InStr = false;
      continue;
    }
    if (C == '"')
      InStr = true;
    else if (C == '[')
      ++Depth;
    else if (C == ']' && --Depth == 0) {
      Body = Doc.substr(Open + 1, I - Open - 1);
      return true;
    }
  }
  return false;
}

/// The start a chromeJson document records for its lane, if any.
bool laneStart(const std::string &Doc, uint64_t &Start) {
  std::string Key = std::string("\"") + StartKey + "\": ";
  size_t At = Doc.find(Key);
  if (At == std::string::npos)
    return false;
  const char *P = Doc.c_str() + At + Key.size();
  char *End = nullptr;
  Start = std::strtoull(P, &End, 10);
  return End != P;
}

/// \p Body, an event array's contents, with \p Shift added to the "ts" of
/// every event in it. The scan respects string literals and nesting, so
/// a "ts" inside an event's args stays as it is.
std::string shiftTimestamps(const std::string &Body, uint64_t Shift) {
  if (Shift == 0)
    return Body;
  std::string Out;
  Out.reserve(Body.size() + Body.size() / 16);
  int Depth = 0;
  for (size_t I = 0; I != Body.size();) {
    char C = Body[I];
    if (C != '"') {
      Depth += C == '{' || C == '[' ? 1 : C == '}' || C == ']' ? -1 : 0;
      Out += C;
      ++I;
      continue;
    }
    size_t End = I + 1;
    while (End < Body.size() && Body[End] != '"')
      End += Body[End] == '\\' ? 2 : 1;
    End = std::min(End + 1, Body.size());
    bool TsKey = Depth == 1 && Body.compare(I, End - I, "\"ts\"") == 0;
    Out.append(Body, I, End - I);
    I = End;
    if (!TsKey)
      continue;
    size_t Num = Body.find_first_not_of(" :", I);
    size_t NumEnd = Num == std::string::npos
                        ? Num
                        : Body.find_first_not_of("0123456789", Num);
    if (Num == std::string::npos || NumEnd == Num)
      continue;
    Out.append(Body, I, Num - I);
    Out += std::to_string(
        std::strtoull(Body.c_str() + Num, nullptr, 10) + Shift);
    I = NumEnd == std::string::npos ? Body.size() : NumEnd;
  }
  return Out;
}

bool allWhitespace(const std::string &S) {
  for (char C : S)
    if (C != ' ' && C != '\n' && C != '\t' && C != '\r')
      return false;
  return true;
}

} // namespace

std::string obs::mergeChromeTraces(const std::vector<std::string> &Docs) {
  // One clock: each lane moves by how much later than the earliest lane
  // its buffer started.
  std::vector<uint64_t> Starts(Docs.size(), 0);
  std::vector<bool> HasStart(Docs.size(), false);
  uint64_t Earliest = UINT64_MAX;
  for (size_t K = 0; K != Docs.size(); ++K)
    if ((HasStart[K] = laneStart(Docs[K], Starts[K])))
      Earliest = std::min(Earliest, Starts[K]);
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool First = true;
  for (size_t K = 0; K != Docs.size(); ++K) {
    std::string Body;
    if (!extractEventArray(Docs[K], Body) || allWhitespace(Body))
      continue;
    if (HasStart[K])
      Body = shiftTimestamps(Body, Starts[K] - Earliest);
    // Trim surrounding whitespace so the joined array stays tidy.
    size_t B = Body.find_first_not_of(" \n\t\r");
    size_t E = Body.find_last_not_of(" \n\t\r");
    OS << (First ? "" : ",\n") << Body.substr(B, E - B + 1);
    First = false;
  }
  OS << "\n]}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Environment activation
//===----------------------------------------------------------------------===//

std::string obs::startTraceFromEnv(uint32_t Lane,
                                   const std::string &LaneName) {
  const char *Path = std::getenv("DHPF_TRACE");
  if (!Path || !*Path)
    return "";
  TraceBuffer &B = TraceBuffer::global();
  B.setLane(Lane, LaneName);
  B.start();
  return Path;
}

std::string obs::metricsPathFromEnv() {
  const char *Path = std::getenv("DHPF_METRICS");
  return Path && *Path ? Path : "";
}
