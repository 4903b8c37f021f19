//===- spmd/NativeGen.h - ExecPlan -> C kernel source emitter -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a built ExecPlan to one self-contained C translation unit — the
/// generated node code the paper's multiple-mappings codegen ultimately
/// targets. Each Compute node becomes a C function running its loop nest
/// for one processor rank; each communication event side becomes a
/// (partner, flat-element) enumeration function with the DimPlan
/// virtual-processor mapping folded to constants; each Reduce node becomes
/// a combine body with the engines' exact floating-point order; and the
/// Section 3.3 contiguous pack/unpack helpers ride along. The TU depends
/// only on <stdint.h>/<string.h>/<math.h> plus the DhpfCtx ABI of
/// KernelABI.h, so the system C compiler can build it with no include
/// paths.
///
/// Emission is deterministic: the same plan always produces the same
/// bytes, so the FNV-1a fingerprint of the source doubles as the kernel
/// cache key component (KernelCache adds compiler version and ABI
/// version).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_NATIVEGEN_H
#define DHPF_SPMD_NATIVEGEN_H

#include "spmd/Bytecode.h"

#include <cstdint>
#include <string>

namespace dhpf {
namespace spmd {

struct ExecPlan;

namespace native {

/// One emitted translation unit plus the table shape the loader expects.
struct PlanSource {
  std::string C;            ///< the full .c text
  uint64_t Fingerprint = 0; ///< FNV-1a of C (matches the baked table field)
  int32_t NumCompute = 0;
  int32_t NumEvents = 0;
  unsigned MaxReads = 0; ///< widest statement read arity in the plan
};

/// Emits the complete kernel TU for \p Plan. Requires the plan's compute
/// nodes to carry NativeComputeId (assigned by buildExecPlan).
PlanSource emitPlanSource(const ExecPlan &Plan);

/// C expression text for one compiled bytecode program, reading variable
/// slot s as `Regs[s]`. Shared by the plan emitter and the cross-engine
/// expression tests, so both engines agree on every arithmetic corner
/// (floor/ceil division and floorMod on negative operands, pow2
/// shift/mask forms, INT64 boundaries).
std::string emitExprC(const bc::Prog &P, const std::string &Regs);

/// The static helper preamble (dhpf_fdiv/dhpf_cdiv/dhpf_fmod/min/max and
/// the load/store fast paths) every generated TU — and every test TU using
/// emitExprC — starts with. Mirrors support/MathExtras.h semantics.
std::string helperPreamble();

/// FNV-1a 64-bit over \p S (the fingerprint/cache-key hash).
uint64_t fnv1a64(const std::string &S);

} // namespace native
} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_NATIVEGEN_H
