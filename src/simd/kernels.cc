#include "simd/kernels.h"

#include <algorithm>

namespace shareinsights {
namespace simd {

// Dispatching entry points: one RecordKernelDispatch per columnar batch,
// then a tail call into the selected variant. Architectures without a
// vector variant compile only the scalar branch.
#if defined(__x86_64__) || defined(_M_X64)
#define SI_SIMD_DISPATCH(ret, name, params, args)             \
  ret name params {                                           \
    RecordKernelDispatch();                                   \
    if (SelectedIsa() == Isa::kAvx2) return avx2::name args;  \
    return scalar::name args;                                 \
  }
#elif defined(__aarch64__)
#define SI_SIMD_DISPATCH(ret, name, params, args)             \
  ret name params {                                           \
    RecordKernelDispatch();                                   \
    if (SelectedIsa() == Isa::kNeon) return neon::name args;  \
    return scalar::name args;                                 \
  }
#else
#define SI_SIMD_DISPATCH(ret, name, params, args) \
  ret name params {                               \
    RecordKernelDispatch();                       \
    return scalar::name args;                     \
  }
#endif

SI_SIMD_KERNEL_LIST(SI_SIMD_DISPATCH)
#undef SI_SIMD_DISPATCH

void HashPackedKeysBlock(const uint64_t* words, size_t stride, size_t n,
                         uint64_t* out) {
  RecordKernelDispatch();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* key = words + i * stride;
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (size_t k = 0; k < stride; ++k) {
      h ^= PackedKeyHashMix(key[k]) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    out[i] = h;
  }
}

void GroupIndexes(const uint32_t* codes, const uint8_t* nulls,
                  uint32_t null_code, uint32_t* out, size_t n) {
  RecordKernelDispatch();
  if (nulls == nullptr) {
    std::copy_n(codes, n, out);  // no memcpy: codes may be null when n == 0
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = nulls[i] != 0 ? null_code : codes[i];
  }
}

// ---------------------------------------------------------------------------
// Dense group-by accumulation: one shared implementation (see kernels.h
// for why striping, not lanes, is the vectorization strategy here). The
// 4-way unrolled body keeps four independent accumulator chains in
// flight, which is where the ILP win comes from; the per-row operations
// are all commutative, so any row-to-stripe assignment yields identical
// bits.
// ---------------------------------------------------------------------------

void DenseCount(const uint32_t* groups, const uint8_t* nulls, size_t n,
                size_t num_groups, int64_t* acc) {
  RecordKernelDispatch();
  size_t i = 0;
  if (nulls == nullptr) {
    for (; i + 4 <= n; i += 4) {
      acc[0 * num_groups + groups[i]] += 1;
      acc[1 * num_groups + groups[i + 1]] += 1;
      acc[2 * num_groups + groups[i + 2]] += 1;
      acc[3 * num_groups + groups[i + 3]] += 1;
    }
    for (; i < n; ++i) acc[groups[i]] += 1;
    return;
  }
  for (; i + 4 <= n; i += 4) {
    acc[0 * num_groups + groups[i]] += nulls[i] == 0 ? 1 : 0;
    acc[1 * num_groups + groups[i + 1]] += nulls[i + 1] == 0 ? 1 : 0;
    acc[2 * num_groups + groups[i + 2]] += nulls[i + 2] == 0 ? 1 : 0;
    acc[3 * num_groups + groups[i + 3]] += nulls[i + 3] == 0 ? 1 : 0;
  }
  for (; i < n; ++i) acc[groups[i]] += nulls[i] == 0 ? 1 : 0;
}

void DenseSumInt64(const uint32_t* groups, const int64_t* v,
                   const uint8_t* nulls, size_t n, size_t num_groups,
                   uint64_t* acc, uint8_t* seen) {
  RecordKernelDispatch();
  size_t i = 0;
  if (nulls == nullptr) {
    for (; i + 4 <= n; i += 4) {
      acc[0 * num_groups + groups[i]] += static_cast<uint64_t>(v[i]);
      acc[1 * num_groups + groups[i + 1]] += static_cast<uint64_t>(v[i + 1]);
      acc[2 * num_groups + groups[i + 2]] += static_cast<uint64_t>(v[i + 2]);
      acc[3 * num_groups + groups[i + 3]] += static_cast<uint64_t>(v[i + 3]);
      seen[groups[i]] = 1;
      seen[groups[i + 1]] = 1;
      seen[groups[i + 2]] = 1;
      seen[groups[i + 3]] = 1;
    }
    for (; i < n; ++i) {
      acc[groups[i]] += static_cast<uint64_t>(v[i]);
      seen[groups[i]] = 1;
    }
    return;
  }
  for (; i < n; ++i) {
    if (nulls[i] != 0) continue;
    // Stripe by row index so the null-skipping loop stays branch-light.
    acc[(i & 3) * num_groups + groups[i]] += static_cast<uint64_t>(v[i]);
    seen[groups[i]] = 1;
  }
}

void DenseMinMaxInt64(const uint32_t* groups, const int64_t* v,
                      const uint8_t* nulls, bool is_min, size_t n,
                      size_t num_groups, int64_t* acc, uint8_t* seen) {
  RecordKernelDispatch();
  for (size_t i = 0; i < n; ++i) {
    if (nulls != nullptr && nulls[i] != 0) continue;
    int64_t* slot = acc + (i & 3) * num_groups + groups[i];
    int64_t x = v[i];
    if (is_min ? x < *slot : x > *slot) *slot = x;
    seen[groups[i]] = 1;
  }
}

void DenseMinMaxCode(const uint32_t* groups, const uint32_t* v,
                     const uint8_t* nulls, bool is_min, size_t n,
                     size_t num_groups, uint32_t* acc, uint8_t* seen) {
  RecordKernelDispatch();
  for (size_t i = 0; i < n; ++i) {
    if (nulls != nullptr && nulls[i] != 0) continue;
    uint32_t* slot = acc + (i & 3) * num_groups + groups[i];
    uint32_t x = v[i];
    if (is_min ? x < *slot : x > *slot) *slot = x;
    seen[groups[i]] = 1;
  }
}

void ReduceStripesAddI64(int64_t* acc, size_t num_groups) {
  for (size_t s = 1; s < kDenseStripes; ++s) {
    for (size_t g = 0; g < num_groups; ++g) {
      acc[g] += acc[s * num_groups + g];
    }
  }
}

void ReduceStripesAddU64(uint64_t* acc, size_t num_groups) {
  for (size_t s = 1; s < kDenseStripes; ++s) {
    for (size_t g = 0; g < num_groups; ++g) {
      acc[g] += acc[s * num_groups + g];
    }
  }
}

void ReduceStripesMinMaxI64(int64_t* acc, size_t num_groups, bool is_min) {
  for (size_t s = 1; s < kDenseStripes; ++s) {
    for (size_t g = 0; g < num_groups; ++g) {
      int64_t x = acc[s * num_groups + g];
      if (is_min ? x < acc[g] : x > acc[g]) acc[g] = x;
    }
  }
}

void ReduceStripesMinMaxU32(uint32_t* acc, size_t num_groups, bool is_min) {
  for (size_t s = 1; s < kDenseStripes; ++s) {
    for (size_t g = 0; g < num_groups; ++g) {
      uint32_t x = acc[s * num_groups + g];
      if (is_min ? x < acc[g] : x > acc[g]) acc[g] = x;
    }
  }
}

}  // namespace simd
}  // namespace shareinsights
