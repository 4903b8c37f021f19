//===- obs/Metrics.h - Process-wide metrics registry ---------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead, thread-safe registry of named counters and gauges
/// shared by every layer of the system (set engine, compiler driver, SPMD
/// engines, transport, rank runtime). Instruments register a metric once
/// (a mutex-guarded map insert) and keep the returned pointer; the
/// hot-path operations — Counter::inc, Gauge::set — are single relaxed
/// atomics with no locking.
///
/// Reports come in two shapes: a flat text table (one `name value` line
/// per metric, sorted by name) and a JSON object, both stable across runs
/// of the same workload so they diff cleanly.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_METRICS_H
#define DHPF_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dhpf {
namespace obs {

/// A monotonically increasing counter.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A last-value-wins signed gauge.
class Gauge {
public:
  void set(int64_t X) { V.store(X, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// The registry: name -> metric, with stable pointers for the lifetime of
/// the registry. Metric names use dotted lower-case paths
/// ("pset.cache.hits", "rt.comm.send.bytes").
class MetricsRegistry {
public:
  /// The process-global registry (lazily constructed; no static
  /// constructors, per the repo rule).
  static MetricsRegistry &global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Finds or creates the named metric. Pointers stay valid for the
  /// registry's lifetime; re-registering a name returns the same object.
  Counter *counter(const std::string &Name);
  Gauge *gauge(const std::string &Name);

  /// Flat text report: one `name<space>value` line per metric.
  std::string reportText() const;
  /// The same data as one JSON object (metric name -> number).
  std::string reportJson() const;

  /// Zeroes every registered metric (tests; metrics keep registration).
  void resetAll();

private:
  struct Entry {
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
  };
  mutable std::mutex M;
  std::map<std::string, Entry> Metrics;
};

} // namespace obs
} // namespace dhpf

#endif // DHPF_METRICS_H
