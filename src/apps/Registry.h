//===- apps/Registry.h - Named benchmark registry for dhpfc --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps the program names embedded in exported .hpf / .spmd files back to
/// the benchmark constructors, so the dhpfc CLI can attach the serial
/// reference check (Check) to a program it parsed from text. Programs
/// carry their own arithmetic; Check only references array names and the
/// canonical problem size, so it applies to any program that prints like
/// the canonical export — in particular one reconstructed from the
/// serialized form.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_APPS_REGISTRY_H
#define DHPF_APPS_REGISTRY_H

#include "apps/Apps.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dhpf {
namespace apps {

/// One registered benchmark (the four Figure 7 applications).
struct RegistryEntry {
  std::string Name;    ///< hpf::Program::name() as exported
  std::string Summary; ///< one-line description for `dhpfc list`
  /// Builds the app at its canonical size (the size `dhpfc export`
  /// writes, and the only size at which Check is valid).
  AppInstance (*MakeCanonical)();
  /// Extents for the app's processor array given a total processor
  /// count; empty when \p NumProcs cannot be mapped onto the grid.
  std::vector<int64_t> (*ProcShape)(int64_t NumProcs);
};

/// All registered benchmarks, in export order.
const std::vector<RegistryEntry> &appRegistry();

/// Finds a benchmark by program name; null if unknown.
const RegistryEntry *findApp(const std::string &Name);

} // namespace apps
} // namespace dhpf

#endif // DHPF_APPS_REGISTRY_H
