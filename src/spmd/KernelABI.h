//===- spmd/KernelABI.h - C ABI between host and native kernels ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary contract between the host (the PlanExecutor, in-process or
/// in a distributed rank) and the native kernels NativeGen emits and
/// KernelCache compiles with the system C compiler. The declarations live
/// in the DHPF_KERNEL_ABI_DECLS macro so there is exactly one source of
/// truth:
/// this header expands it for the C++ host, and NativeGen stringizes the
/// same macro into the preamble of every generated translation unit.
///
/// Kernels see the world through DhpfCtx: the executing rank's storage
/// boxes (Layout.h) with a validity byte per element for the inline fast
/// path — a kernel's flats are unbased box flats, identical on every rank,
/// and the rank's Base turns one into an index into its box — the rank's
/// accumulator slots, callbacks for the slow paths (non-owner writes,
/// validity violations), a progress hook (the Figure 4 compute/comm
/// overlap window), and a growable (partner, flat) pair buffer for
/// communication-event enumeration. Statement arithmetic is inline C:
/// nothing calls back into the host per statement instance, and a compute
/// function keeps the clock and both instance counters in locals, writing
/// them back before Progress and on return.
///
/// Compatibility is verified at load time, not assumed: the kernel bakes
/// DHPF_KERNEL_ABI_VERSION, sizeof(DhpfCtx) as the C compiler saw it, and
/// the plan fingerprint into its DhpfKernelTable, and the loader rejects
/// any mismatch. Fields are append-only; any layout change must bump
/// DHPF_KERNEL_ABI_VERSION (which also invalidates every cached kernel,
/// because the version participates in the cache key).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_KERNELABI_H
#define DHPF_SPMD_KERNELABI_H

#include <stdint.h>

#define DHPF_KERNEL_ABI_VERSION 4

/// The symbol every kernel exports; resolves to a DhpfEntryFn.
#define DHPF_KERNEL_ENTRY_SYMBOL "dhpf_kernel_entry"

// clang-format off
#define DHPF_KERNEL_ABI_DECLS                                                 \
  typedef struct DhpfCtx DhpfCtx;                                             \
  typedef double (*DhpfReadSlowFn)(DhpfCtx *, int32_t, int64_t);              \
  typedef void (*DhpfWriteSlowFn)(DhpfCtx *, int32_t, int64_t, double);       \
  typedef void (*DhpfHookFn)(DhpfCtx *);                                      \
  enum { DhpfValidOwn = 1 };    /* validity bit: the rank owns it */          \
  struct DhpfCtx {                                                            \
    void *Host;                 /* engine-private trampoline state */         \
    int32_t Me;                 /* executing processor rank */                \
    int32_t NumArrays;                                                        \
    double **Data;              /* [array id] the rank's box storage */       \
    uint8_t *const *Valid;      /* [array id] validity byte per element */    \
    const int64_t *Base;        /* [array id] unbased flat of box index 0 */  \
    const int64_t *Size;        /* [array id] box element count */            \
    double *Accum;              /* [slot] the rank's accumulators */          \
    const double *LeafCostSec;  /* [leaf id] Cost * SecPerWork */             \
    double *Clock;              /* simulated per-proc clock */                \
    uint64_t *Stmts;            /* statement-instance counter */              \
    uint64_t ProgressCtr;       /* instances since the last Progress() */     \
    uint64_t ProgressEvery;     /* pump period; UINT64_MAX disables */        \
    DhpfReadSlowFn ReadSlow;    /* element not yet valid: a violation */      \
    DhpfWriteSlowFn WriteSlow;  /* non-owner write */                         \
    DhpfHookFn Progress;        /* transport progress pump */                 \
    uint32_t *PairQ;            /* event enumeration: partner ranks */        \
    int64_t *PairF;             /* event enumeration: unbased box flats */    \
    uint64_t NumPairs;                                                        \
    uint64_t CapPairs;                                                        \
    DhpfHookFn GrowPairs;       /* enlarge PairQ/PairF, update CapPairs */    \
  };                                                                          \
  typedef void (*DhpfComputeFn)(DhpfCtx *, int64_t *);                        \
  typedef void (*DhpfEnumFn)(DhpfCtx *, int64_t *);                           \
  typedef void (*DhpfCopySpanFn)(double *, const double *, uint64_t);         \
  typedef void (*DhpfGatherFn)(double *, const double *, const int64_t *,     \
                               uint64_t);                                     \
  typedef struct DhpfKernelTable {                                            \
    int32_t AbiVersion;         /* DHPF_KERNEL_ABI_VERSION at emit time */    \
    int32_t NumCompute;                                                       \
    int32_t NumEvents;                                                        \
    uint64_t Fingerprint;       /* FNV-1a of the TU body */                   \
    uint64_t CtxSize;           /* sizeof(DhpfCtx) as the C compiler saw */   \
    const DhpfComputeFn *Compute;   /* [NumCompute] */                        \
    const DhpfEnumFn *EventSend;    /* [NumEvents], entries may be 0 */       \
    const DhpfEnumFn *EventRecv;    /* [NumEvents], entries may be 0 */       \
    DhpfCopySpanFn CopySpan;    /* Section 3.3 contiguous pack/unpack */      \
    DhpfGatherFn Gather;        /* element-by-element pack */                 \
  } DhpfKernelTable;
// clang-format on

DHPF_KERNEL_ABI_DECLS

typedef const DhpfKernelTable *(*DhpfEntryFn)(void);

#endif // DHPF_SPMD_KERNELABI_H
