#ifndef SHAREINSIGHTS_SIMD_KERNELS_H_
#define SHAREINSIGHTS_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/dispatch.h"

namespace shareinsights {
namespace simd {

/// Columnar kernels behind the engine's hot loops. Each public entry
/// point dispatches once (per batch, i.e. per morsel-sized columnar
/// pass) to the variant SelectedIsa() picked; the scalar variant is the
/// semantic reference and every other variant is pinned byte-identical
/// to it by tests/simd/simd_kernels_test.cc plus the operator-level
/// encoding-equivalence suites.
///
/// Selection masks are byte-per-row (`sel[i] != 0` = row still selected).
/// Every `And*` kernel computes its own verdict per row and ANDs it into
/// `sel`, so a conjunction of filters is one columnar pass per filter.
/// `nulls` is the column's byte-per-row null map (nullptr = no nulls);
/// null rows take the constant `null_keep` verdict, everything else is
/// compared on the raw array — exactly replicating Value::Compare
/// semantics for the cases each kernel is compiled for (see filter.cc's
/// CompileColumnarCompare for the routing rules, e.g. NaN literals and
/// int64-vs-double cross compares stay on scalar fallbacks).
///
/// X(return_type, name, (params), (args)) for each dispatched kernel.
#define SI_SIMD_KERNEL_LIST(X)                                                \
  /* cmp(v[i], lit) in {-1,0,+1}; keep when the matching lt/eq/gt flag is     \
     set. */                                                                  \
  X(void, AndInt64Cmp,                                                        \
    (const int64_t* v, const uint8_t* nulls, bool null_keep, int64_t lit,     \
     bool lt, bool eq, bool gt, uint8_t* sel, size_t n),                      \
    (v, nulls, null_keep, lit, lt, eq, gt, sel, n))                           \
  /* keep when lo <= v[i] <= hi (inclusive, int64 bounds). */                 \
  X(void, AndInt64Range,                                                      \
    (const int64_t* v, const uint8_t* nulls, bool null_keep, int64_t lo,      \
     int64_t hi, uint8_t* sel, size_t n),                                     \
    (v, nulls, null_keep, lo, hi, sel, n))                                    \
  /* lit must not be NaN; NaN cells order after every number, so they         \
     take the gt verdict. -0.0 == 0.0 as in Value::Compare. */                \
  X(void, AndDoubleCmp,                                                       \
    (const double* v, const uint8_t* nulls, bool null_keep, double lit,       \
     bool lt, bool eq, bool gt, uint8_t* sel, size_t n),                      \
    (v, nulls, null_keep, lit, lt, eq, gt, sel, n))                           \
  /* keep when lo <= v[i] <= hi; bounds must not be NaN. NaN cells order      \
     above hi and are dropped. */                                             \
  X(void, AndDoubleRange,                                                     \
    (const double* v, const uint8_t* nulls, bool null_keep, double lo,        \
     double hi, uint8_t* sel, size_t n),                                      \
    (v, nulls, null_keep, lo, hi, sel, n))                                    \
  /* Ordered compare against a sorted dictionary, collapsed to the code      \
     threshold: cmp = -1 below lower_bound, 0 on the exact literal code      \
     (only when has_exact), +1 otherwise. */                                  \
  X(void, AndCodeCmp,                                                         \
    (const uint32_t* codes, const uint8_t* nulls, bool null_keep,             \
     uint32_t lower_bound, bool has_exact, bool lt, bool eq, bool gt,         \
     uint8_t* sel, size_t n),                                                 \
    (codes, nulls, null_keep, lower_bound, has_exact, lt, eq, gt, sel, n))    \
  /* keep when lo <= code < hi (half-open, unsigned). */                      \
  X(void, AndCodeRange,                                                       \
    (const uint32_t* codes, const uint8_t* nulls, bool null_keep,             \
     uint32_t lo, uint32_t hi, uint8_t* sel, size_t n),                       \
    (codes, nulls, null_keep, lo, hi, sel, n))                                \
  /* keep when allowed[code] != 0. `allowed` MUST have at least 3 padding     \
     bytes past the last valid code (kCodeSetPadding) — the AVX2 variant      \
     gathers 4-byte words at byte offsets. */                                 \
  X(void, AndCodeSet,                                                         \
    (const uint32_t* codes, const uint8_t* nulls, bool null_keep,             \
     const uint8_t* allowed, uint8_t* sel, size_t n),                         \
    (codes, nulls, null_keep, allowed, sel, n))                               \
  /* Constant verdict: non-null rows keep `keep`, null rows `null_keep`.      \
     (A compare whose outcome is decided by type rank alone.) */              \
  X(void, AndConst,                                                           \
    (const uint8_t* nulls, bool null_keep, bool keep, uint8_t* sel,           \
     size_t n),                                                               \
    (nulls, null_keep, keep, sel, n))                                         \
  /* Number of selected rows in the mask. */                                  \
  X(size_t, CountMask, (const uint8_t* sel, size_t n), (sel, n))              \
  /* Appends base+i for every selected row, in row order (the compress        \
     step turning a mask back into gather indexes). */                        \
  X(void, CompressMask,                                                       \
    (const uint8_t* sel, size_t n, size_t base, std::vector<size_t>& out),    \
    (sel, n, base, out))                                                      \
  /* out[i] = PackDoubleBits(v[i]): -0.0 -> +0.0, NaN -> canonical qNaN. */   \
  X(void, PackDoubleBitsBlock, (const double* v, uint64_t* out, size_t n),    \
    (v, out, n))

/// Required zero padding past the last valid code of an AndCodeSet table.
inline constexpr size_t kCodeSetPadding = 3;

/// splitmix64 finalizer — the canonical per-word mix of the packed-key
/// hash (ops/packed_key.h's PackedKeyHash delegates here, so the batched
/// HashPackedKeysBlock and the per-row hash share one definition).
inline uint64_t PackedKeyHashMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Per-ISA variants. Only SelectedIsa()-supported variants are ever
// called; avx2/neon bodies are compiled only on their architecture.
#define SI_SIMD_DECLARE(ret, name, params, args) ret name params;
namespace scalar {
SI_SIMD_KERNEL_LIST(SI_SIMD_DECLARE)
}
namespace avx2 {
SI_SIMD_KERNEL_LIST(SI_SIMD_DECLARE)
}
namespace neon {
SI_SIMD_KERNEL_LIST(SI_SIMD_DECLARE)
}

// Public dispatching entry points (defined in kernels.cc).
SI_SIMD_KERNEL_LIST(SI_SIMD_DECLARE)
#undef SI_SIMD_DECLARE

// ---------------------------------------------------------------------------
// Group-by key kernels: one implementation shared by every ISA. Vector
// bodies measured no faster than these loops (a gathered 4-lane hash
// pays more for the 64-bit multiply emulation than its lanes recover),
// so they are not in SI_SIMD_KERNEL_LIST.
// ---------------------------------------------------------------------------

/// out[i] = PackedKeyHash over words[i*stride .. i*stride+stride) —
/// bit-identical to the per-row splitmix64/boost-combine in
/// ops/packed_key.h.
void HashPackedKeysBlock(const uint64_t* words, size_t stride, size_t n,
                         uint64_t* out);

/// out[i] = nulls[i] ? null_code : codes[i] (group slot per row of the
/// dense dict-code group-by; nulls nullptr = no nulls).
void GroupIndexes(const uint32_t* codes, const uint8_t* nulls,
                  uint32_t null_code, uint32_t* out, size_t n);

// ---------------------------------------------------------------------------
// Dense group-by accumulation.
//
// Scattered accumulator updates (acc[group] op= value) cannot use SIMD
// lanes without conflict detection, so these kernels break the
// loop-carried dependency with kDenseStripes independent accumulator
// stripes instead (stripe-major layout: acc[stripe * num_groups + g]),
// folded back with Reduce*. Integer sums (uint64 wrap-add), counts and
// min/max are commutative, so the striped result is bit-identical to the
// sequential scan no matter how rows land on stripes — which is also why
// there is exactly one implementation, shared by every ISA.
// Order-sensitive aggregates (double sum/avg/min-max) stay on in-order
// scalar loops in groupby.cc.
// ---------------------------------------------------------------------------

inline constexpr size_t kDenseStripes = 4;

/// acc[stripe][groups[i]] += 1 for every non-null row (nulls nullptr =
/// count every row). `seen` is not tracked: count finalizes to 0, not
/// null.
void DenseCount(const uint32_t* groups, const uint8_t* nulls, size_t n,
                size_t num_groups, int64_t* acc);

/// acc[stripe][groups[i]] += v[i] (two's-complement wrap, matching the
/// sequential int64 sum bit for bit); seen[g] = 1 on any non-null row.
void DenseSumInt64(const uint32_t* groups, const int64_t* v,
                   const uint8_t* nulls, size_t n, size_t num_groups,
                   uint64_t* acc, uint8_t* seen);

/// Strict-compare min/max per group. Caller pre-fills acc with the
/// identity (INT64_MAX for min, INT64_MIN for max) and seen with 0.
void DenseMinMaxInt64(const uint32_t* groups, const int64_t* v,
                      const uint8_t* nulls, bool is_min, size_t n,
                      size_t num_groups, int64_t* acc, uint8_t* seen);

/// Same over dictionary codes (sorted dictionary: code order == string
/// order). Identity: UINT32_MAX for min, 0 for max.
void DenseMinMaxCode(const uint32_t* groups, const uint32_t* v,
                     const uint8_t* nulls, bool is_min, size_t n,
                     size_t num_groups, uint32_t* acc, uint8_t* seen);

/// Fold stripes 1..kDenseStripes-1 into stripe 0 (acc[0..num_groups)).
void ReduceStripesAddI64(int64_t* acc, size_t num_groups);
void ReduceStripesAddU64(uint64_t* acc, size_t num_groups);
void ReduceStripesMinMaxI64(int64_t* acc, size_t num_groups, bool is_min);
void ReduceStripesMinMaxU32(uint32_t* acc, size_t num_groups, bool is_min);

}  // namespace simd
}  // namespace shareinsights

#endif  // SHAREINSIGHTS_SIMD_KERNELS_H_
