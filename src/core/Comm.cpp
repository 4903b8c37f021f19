//===- core/Comm.cpp - Communication analysis (Figures 3 and 5) ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Comm.h"

#include <utility>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

std::string core::placementParam(unsigned Level) {
  return "J" + std::to_string(Level);
}

namespace {

/// Builds { [i0..ik] : i_j = J_j for j < Level } over the loop space: the
/// range restriction realizing equation (1) of Figure 3 (vectorization).
Relation placementSet(const Relation &LoopSpaceTemplate, unsigned Level) {
  Relation S = Relation::universe(
      Space::set(LoopSpaceTemplate.space().outNames(),
                 LoopSpaceTemplate.space().params()));
  for (unsigned L = 0; L != Level; ++L)
    S = S.equateOutDimToParam(L, placementParam(L));
  return S;
}

/// Cross product { [p..] -> [a..] : P(p) && D(a) } of two sets.
Relation crossMap(const Relation &P, const Relation &D) {
  assert(P.isSet() && D.isSet());
  // Build via relations: P as (0 -> p), inverted to (p -> 0), composed with
  // D as (0 -> a): (p -> 0) ; (0 -> a) = (p -> a).
  return P.inverse().composeWith(D);
}

/// Binds a map's domain to the mv* parameters.
Relation bindToMy(const Relation &Map) {
  std::vector<std::string> Names;
  for (unsigned D = 0; D != Map.numIn(); ++D)
    Names.push_back(myDimParam(D));
  return Map.bindDomainToParams(Names);
}

} // namespace

CommSets core::computeCommSets(const MapBuilder &MB,
                               const CommEventInput &Event,
                               bool CombinedFormulation) {
  if (!CombinedFormulation && Event.Refs.size() > 1) {
    // Ablation: apply the downstream equations per reference and union the
    // outputs at the end (the paper's original, slower formulation).
    CommSets Acc;
    bool First = true;
    for (const CommRef &R : Event.Refs) {
      CommEventInput Single = Event;
      Single.Refs = {R};
      CommSets S = computeCommSets(MB, Single, true);
      if (First) {
        Acc = std::move(S);
        First = false;
        continue;
      }
      auto UnionIf = [](Relation &A, const Relation &B) {
        if (B.conjuncts().empty())
          return;
        A = std::as_const(A).conjuncts().empty() ? B
                                                 : A.unionWith(B).simplify();
      };
      UnionIf(Acc.SendCommMap, S.SendCommMap);
      UnionIf(Acc.RecvCommMap, S.RecvCommMap);
      UnionIf(Acc.DataAccessedRead, S.DataAccessedRead);
      UnionIf(Acc.DataAccessedWrite, S.DataAccessedWrite);
      UnionIf(Acc.NLDataAccessedRead, S.NLDataAccessedRead);
      UnionIf(Acc.NLDataAccessedWrite, S.NLDataAccessedWrite);
      UnionIf(Acc.BusyVPSet, S.BusyVPSet);
      UnionIf(Acc.ActiveSendVPSet, S.ActiveSendVPSet);
      UnionIf(Acc.ActiveRecvVPSet, S.ActiveRecvVPSet);
    }
    return Acc;
  }
  CommSets Out;
  Out.Layout = MB.layout(Event.Array);
  const Relation &Layout = Out.Layout.Map;
  assert(!Out.Layout.ProcName.empty() &&
         "communication analysis needs a distributed array");
  Relation OwnerDom = Layout.domain().simplify();

  // Steps 1-2: DataAccessed_t = U_r CPMap_r^v o RefMap_r.
  bool AnyRead = false, AnyWrite = false;
  Relation BusyVP;
  bool AnyBusy = false;
  for (const CommRef &R : Event.Refs) {
    Relation CPv;
    if (R.ReplicatedCP) {
      // Every owner-domain processor executes the reference.
      Relation LoopDom = R.RefMap.domain();
      Relation Restricted =
          placementSet(LoopDom, Event.PlacementLevel).intersect(LoopDom);
      CPv = crossMap(OwnerDom, Restricted);
    } else {
      Relation LoopDom = R.CPMap.range();
      CPv = R.CPMap.restrictRange(placementSet(LoopDom, Event.PlacementLevel));
    }
    Relation Acc = CPv.composeWith(R.RefMap).simplify();
    Relation &Slot = R.IsWrite ? Out.DataAccessedWrite : Out.DataAccessedRead;
    bool &Any = R.IsWrite ? AnyWrite : AnyRead;
    Slot = Any ? Slot.unionWith(Acc) : Acc;
    Any = true;
    // Figure 5: busyVPSet = U_r Domain(CPMap_r).
    Relation Busy = R.ReplicatedCP ? OwnerDom : R.CPMap.domain();
    BusyVP = AnyBusy ? BusyVP.unionWith(Busy) : Busy;
    AnyBusy = true;
  }
  Out.BusyVPSet = BusyVP.simplify().coalesce();

  // Step 3, one subtraction per direction: NLDataAccessed_t =
  // DataAccessed_t - Layout, which Figure 5 needs as it is. Steps 4-5 are
  // restrictions of it: m's non-local data nlDataSet_t(m) is the map bound
  // to mv*, NLComm_t is the layout restricted to that data, and
  // LocalComm_t is the map restricted to m's own data. LocalComm_t thus
  // tests "a not in Layout(p)" in place of step 5's "p != m": that
  // excludes m itself, and with single ownership (footnote 2) keeps every
  // other real processor (DESIGN §5).
  Relation MyLayoutData = bindToMy(Layout);
  Relation NLCommRead, NLCommWrite, LocalCommRead, LocalCommWrite;
  auto Derive = [&](const Relation &DataAccessed, Relation &NLDataAccessed,
                    Relation &NLComm, Relation &LocalComm) {
    NLDataAccessed = DataAccessed.subtract(Layout).simplify();
    NLComm = Layout.restrictRange(bindToMy(NLDataAccessed));
    LocalComm = NLDataAccessed.restrictRange(MyLayoutData);
  };
  if (AnyRead)
    Derive(Out.DataAccessedRead, Out.NLDataAccessedRead, NLCommRead,
           LocalCommRead);
  if (AnyWrite)
    Derive(Out.DataAccessedWrite, Out.NLDataAccessedWrite, NLCommWrite,
           LocalCommWrite);

  // Steps 6-7.
  auto UnionOpt = [](bool HasA, const Relation &A, bool HasB,
                     const Relation &B) {
    if (HasA && HasB)
      return A.unionWith(B);
    return HasA ? A : B;
  };
  if (AnyRead || AnyWrite) {
    Out.SendCommMap =
        UnionOpt(AnyRead, LocalCommRead, AnyWrite, NLCommWrite)
            .simplify()
            .coalesce();
    Out.RecvCommMap =
        UnionOpt(AnyRead, NLCommRead, AnyWrite, LocalCommWrite)
            .simplify()
            .coalesce();
  }

  // Figure 5: active send/receive virtual processors.
  Relation LayoutInv = Layout.inverse();
  Relation ActiveSend, ActiveRecv;
  bool HasSend = false, HasRecv = false;
  if (AnyRead) {
    Relation AllNL = Out.NLDataAccessedRead.apply(Out.BusyVPSet).simplify();
    Relation Owners = LayoutInv.apply(AllNL).simplify();
    Relation Accessors = Out.NLDataAccessedRead.domain().simplify();
    ActiveSend = Owners;
    ActiveRecv = Accessors;
    HasSend = HasRecv = true;
  }
  if (AnyWrite) {
    Relation AllNL = Out.NLDataAccessedWrite.apply(Out.BusyVPSet).simplify();
    Relation Owners = LayoutInv.apply(AllNL).simplify();
    Relation Accessors = Out.NLDataAccessedWrite.domain().simplify();
    ActiveSend = HasSend ? ActiveSend.unionWith(Accessors) : Accessors;
    ActiveRecv = HasRecv ? ActiveRecv.unionWith(Owners) : Owners;
    HasSend = HasRecv = true;
  }
  if (HasSend) {
    Out.ActiveSendVPSet = ActiveSend.simplify().coalesce();
    Out.ActiveRecvVPSet = ActiveRecv.simplify().coalesce();
  }
  return Out;
}
