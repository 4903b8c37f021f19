//===- obs/Metrics.cpp - Process-wide metrics registry -------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <sstream>

using namespace dhpf;
using namespace dhpf::obs;

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry R;
  return R;
}

Counter *MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = Metrics[Name];
  if (!E.C)
    E.C = std::make_unique<Counter>();
  return E.C.get();
}

Gauge *MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = Metrics[Name];
  if (!E.G)
    E.G = std::make_unique<Gauge>();
  return E.G.get();
}

std::string MetricsRegistry::reportText() const {
  std::lock_guard<std::mutex> Lock(M);
  std::ostringstream OS;
  for (const auto &[Name, E] : Metrics) {
    if (E.C)
      OS << Name << " " << E.C->value() << "\n";
    if (E.G)
      OS << Name << " " << E.G->value() << "\n";
  }
  return OS.str();
}

std::string MetricsRegistry::reportJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  auto Key = [&](const std::string &Name) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n  \"" << Name << "\": ";
  };
  for (const auto &[Name, E] : Metrics) {
    if (E.C)
      Key(Name), OS << E.C->value();
    if (E.G)
      Key(Name), OS << E.G->value();
  }
  OS << "\n}\n";
  return OS.str();
}

void MetricsRegistry::resetAll() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, E] : Metrics) {
    (void)Name;
    if (E.C)
      E.C->reset();
    if (E.G)
      E.G->reset();
  }
}
