//===- pset/Fingerprint.h - Structural hashing ---------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fingerprint(): a canonical 64-bit structural hash of a Conjunct or
/// Relation, the key of the set engine's operation cache. Rows are
/// GCD-normalized and hashed order-insensitively, so two conjuncts that
/// differ only in row order or a common row factor collide on purpose;
/// conjunct order and every Space name (parameters and tuple dimensions)
/// are part of the hash, because operations align parameters by name and
/// propagate dimension names into results. Equal fingerprints are treated
/// as "structurally identical" by the operation cache and by the
/// isSubsetOf/isEqualTo short-circuits. Relation::fingerprint() memoizes
/// the relation hash on the object.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_PSET_FINGERPRINT_H
#define DHPF_PSET_FINGERPRINT_H

#include "pset/Conjunct.h"

#include <cstdint>

namespace dhpf {

class Relation;

namespace pset {

/// Canonical structural hash of one conjunct (row-order-insensitive,
/// GCD-normalized; includes the region shape and existential count).
uint64_t fingerprint(const Conjunct &C);

/// Canonical structural hash of a relation: the Space (all names) plus the
/// conjunct fingerprints in order.
uint64_t fingerprint(const Relation &R);

} // namespace pset
} // namespace dhpf

#endif // DHPF_PSET_FINGERPRINT_H
