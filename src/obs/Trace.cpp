//===- obs/Trace.cpp - Structured tracing with Chrome trace export -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

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
  // Lane metadata first, so viewers label the lane even when empty.
  OS << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << Lane
     << ", \"tid\": 0, \"args\": {\"name\": \"" << jsonEscape(LaneName)
     << "\"}}";
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

bool allWhitespace(const std::string &S) {
  for (char C : S)
    if (C != ' ' && C != '\n' && C != '\t' && C != '\r')
      return false;
  return true;
}

} // namespace

std::string obs::mergeChromeTraces(const std::vector<std::string> &Docs) {
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool First = true;
  for (const std::string &Doc : Docs) {
    std::string Body;
    if (!extractEventArray(Doc, Body) || allWhitespace(Body))
      continue;
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
