//===- support/CacheLine.h - Storage that owns its cache lines -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process plan executor runs the ranks of one program on worker
/// threads, each rank on its own state. When two ranks' state shares a
/// cache line, every write by one invalidates the other's copy, and the
/// line bounces between cores on each statement instance (false sharing).
/// Per-rank records are therefore declared alignas(CacheLine), which pads
/// them to whole lines, and their small heap blocks come from
/// LineAllocator, which hands out whole, line-aligned lines.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SUPPORT_CACHELINE_H
#define DHPF_SUPPORT_CACHELINE_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dhpf {

/// Bytes per cache line on the hosts this runs on (x86-64 and common
/// AArch64 cores).
inline constexpr size_t CacheLine = 64;

/// Allocates blocks that start on a cache line and end on one, so no other
/// allocation shares a line with them.
template <typename T> struct LineAllocator {
  using value_type = T;

  LineAllocator() = default;
  template <typename U> LineAllocator(const LineAllocator<U> &) {}

  T *allocate(size_t N) {
    if (N > (SIZE_MAX - CacheLine) / sizeof(T))
      throw std::bad_array_new_length();
    size_t Bytes = (N * sizeof(T) + CacheLine - 1) / CacheLine * CacheLine;
    return static_cast<T *>(
        ::operator new(Bytes, std::align_val_t(CacheLine)));
  }
  void deallocate(T *P, size_t) {
    ::operator delete(P, std::align_val_t(CacheLine));
  }

  template <typename U> bool operator==(const LineAllocator<U> &) const {
    return true;
  }
};

/// A vector whose heap block owns every cache line it touches.
template <typename T> using LineVector = std::vector<T, LineAllocator<T>>;

} // namespace dhpf

#endif // DHPF_SUPPORT_CACHELINE_H
