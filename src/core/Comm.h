//===- core/Comm.h - Communication analysis (paper Figures 3 and 5) ------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's unified communication analysis: given a set of coalesced
/// read/write references to a common array (one *logical communication
/// event*), computes the SendCommMap/RecvCommMap of Figure 3 — the data the
/// representative processor m must exchange with each partner — and the
/// active virtual-processor sets of Figure 5 used to restrict VP loops
/// under symbolic distribution parameters.
///
/// Send and receive maps are duals: m sends q exactly what q receives from
/// m. So each direction subtracts the layout once, NLDataAccessed =
/// DataAccessed - Layout, and both maps are restrictions of that one map:
/// to the data m owns (what others need from m) or to the owners of the
/// data m needs (DESIGN.md §5).
///
/// Message vectorization is expressed by the placement level: loops outside
/// the placement stay as parameters (J0, J1, ...) while communication for
/// all deeper iterations is aggregated into one event. Message coalescing
/// is expressed by passing several references in one event: DataAccessed
/// unions them *before* the expensive downstream equations, the
/// formulation Section 5 credits with controlling disjunction growth.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMM_H
#define DHPF_CORE_COMM_H

#include "core/Partition.h"
#include "hpf/Maps.h"

#include <string>
#include <vector>

namespace dhpf {
namespace core {

/// One reference participating in a logical communication event.
struct CommRef {
  Relation CPMap;    ///< proc/VP -> iterations (invalid if ReplicatedCP)
  bool ReplicatedCP = false;
  Relation RefMap;   ///< loop -> data
  bool IsWrite = false;
};

/// A logical communication event: coalesced references to one array.
struct CommEventInput {
  std::string Array;
  std::vector<CommRef> Refs;
  /// Number of outer loops the communication is placed inside (vectorized
  /// out of all deeper loops). Outer loop variables become parameters
  /// J0..J{PlacementLevel-1} in the resulting sets.
  unsigned PlacementLevel = 0;
};

/// The outputs of Figure 3 (bound to the representative processor, whose
/// per-dimension index is the mv* parameter) and Figure 5.
struct CommSets {
  /// partner -> array elements m must send to that partner: the partners
  /// that read m's data non-locally, plus the owners of data m writes
  /// non-locally.
  Relation SendCommMap;
  /// partner -> array elements m must receive from that partner: the
  /// owners of data m reads non-locally, plus the partners that write m's
  /// data non-locally.
  Relation RecvCommMap;
  /// All data accessed by each processor via the event's reads/writes.
  Relation DataAccessedRead, DataAccessedWrite;
  /// Off-processor data referenced by each processor (maps, unbound):
  /// DataAccessed - Layout, the one subtraction per direction every other
  /// map derives from. Also decides whether the event communicates at
  /// all: under the VP model the partner maps can be spuriously non-empty
  /// (fictitious VPs "access" data), but these maps are exact.
  Relation NLDataAccessedRead, NLDataAccessedWrite;
  /// Figure 5: active virtual processors.
  Relation BusyVPSet, ActiveSendVPSet, ActiveRecvVPSet;
  /// Layout of the event's array.
  hpf::LayoutResult Layout;
};

/// The name of the placement parameter for enclosing loop depth \p Level.
std::string placementParam(unsigned Level);

/// Runs the Figure 3 / Figure 5 equations for one event.
///
/// \p CombinedFormulation selects the Section 5 formulation that unions the
/// DataAccessed maps *before* the downstream equations; when false, the
/// "more intuitive" per-reference form is used (equations 4-7 applied per
/// reference, unioned at the end), which the paper reports producing
/// intermediate sets with many more disjunctive terms.
CommSets computeCommSets(const hpf::MapBuilder &MB,
                         const CommEventInput &Event,
                         bool CombinedFormulation = true);

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMM_H
