// NEON kernel variants (aarch64 only; NEON is baseline there, no runtime
// probe needed beyond the architecture itself). Compare kernels run 2
// int64/double lanes or 4 code lanes per op; kernels whose win depends
// on gathers or byte-mask movemasks (set membership, compress) delegate
// to the scalar reference — aarch64 still gets
// the columnar-pass structure and auto-vectorization, and stays
// byte-identical by construction.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "simd/kernels.h"
#include "table/column.h"

namespace shareinsights {
namespace simd {
namespace neon {

namespace {

inline uint8_t LaneKeep(uint64_t lane_mask) {
  return static_cast<uint8_t>(lane_mask & 1);
}

inline const uint8_t* Tail(const uint8_t* nulls, size_t i) {
  return nulls == nullptr ? nullptr : nulls + i;
}

/// ANDs a 2-lane 64-bit keep mask into 2 selection bytes, overriding
/// null rows with the constant null_keep verdict.
inline void AndMask2(uint64x2_t keep, const uint8_t* nulls, size_t i,
                     bool null_keep, uint8_t* sel) {
  uint8_t k0 = LaneKeep(vgetq_lane_u64(keep, 0));
  uint8_t k1 = LaneKeep(vgetq_lane_u64(keep, 1));
  if (nulls != nullptr) {
    uint8_t nk = null_keep ? 1 : 0;
    if (nulls[i] != 0) k0 = nk;
    if (nulls[i + 1] != 0) k1 = nk;
  }
  sel[0] &= k0;
  sel[1] &= k1;
}

/// Same for a 4-lane 32-bit keep mask.
inline void AndMask4(uint32x4_t keep, const uint8_t* nulls, size_t i,
                     bool null_keep, uint8_t* sel) {
  uint8_t k[4] = {LaneKeep(vgetq_lane_u32(keep, 0)),
                  LaneKeep(vgetq_lane_u32(keep, 1)),
                  LaneKeep(vgetq_lane_u32(keep, 2)),
                  LaneKeep(vgetq_lane_u32(keep, 3))};
  if (nulls != nullptr) {
    uint8_t nk = null_keep ? 1 : 0;
    for (int j = 0; j < 4; ++j) {
      if (nulls[i + j] != 0) k[j] = nk;
    }
  }
  for (int j = 0; j < 4; ++j) sel[j] &= k[j];
}

// No vmvnq for 64-bit lanes; bitwise NOT via EOR with all-ones.
inline uint64x2_t NotU64(uint64x2_t x) {
  return veorq_u64(x, vdupq_n_u64(~0ULL));
}

inline uint64x2_t SelectVerdict64(uint64x2_t lt_m, uint64x2_t eq_m, bool lt,
                                  bool eq, bool gt) {
  uint64x2_t lt_c = vdupq_n_u64(lt ? ~0ULL : 0);
  uint64x2_t eq_c = vdupq_n_u64(eq ? ~0ULL : 0);
  uint64x2_t gt_c = vdupq_n_u64(gt ? ~0ULL : 0);
  uint64x2_t gt_m = NotU64(vorrq_u64(lt_m, eq_m));
  return vorrq_u64(vorrq_u64(vandq_u64(lt_m, lt_c), vandq_u64(eq_m, eq_c)),
                   vandq_u64(gt_m, gt_c));
}

}  // namespace

void AndInt64Cmp(const int64_t* v, const uint8_t* nulls, bool null_keep,
                 int64_t lit, bool lt, bool eq, bool gt, uint8_t* sel,
                 size_t n) {
  const int64x2_t vlit = vdupq_n_s64(lit);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int64x2_t x = vld1q_s64(v + i);
    uint64x2_t lt_m = vcltq_s64(x, vlit);
    uint64x2_t eq_m = vceqq_s64(x, vlit);
    AndMask2(SelectVerdict64(lt_m, eq_m, lt, eq, gt), nulls, i, null_keep,
             sel + i);
  }
  scalar::AndInt64Cmp(v + i, Tail(nulls, i), null_keep, lit, lt, eq, gt,
                      sel + i, n - i);
}

void AndInt64Range(const int64_t* v, const uint8_t* nulls, bool null_keep,
                   int64_t lo, int64_t hi, uint8_t* sel, size_t n) {
  const int64x2_t vlo = vdupq_n_s64(lo);
  const int64x2_t vhi = vdupq_n_s64(hi);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int64x2_t x = vld1q_s64(v + i);
    uint64x2_t keep = vandq_u64(vcgeq_s64(x, vlo), vcleq_s64(x, vhi));
    AndMask2(keep, nulls, i, null_keep, sel + i);
  }
  scalar::AndInt64Range(v + i, Tail(nulls, i), null_keep, lo, hi, sel + i,
                        n - i);
}

void AndDoubleCmp(const double* v, const uint8_t* nulls, bool null_keep,
                  double lit, bool lt, bool eq, bool gt, uint8_t* sel,
                  size_t n) {
  const float64x2_t vlit = vdupq_n_f64(lit);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t x = vld1q_f64(v + i);
    // NaN lanes fail both compares and land on the gt verdict.
    uint64x2_t lt_m = vcltq_f64(x, vlit);
    uint64x2_t eq_m = vceqq_f64(x, vlit);
    AndMask2(SelectVerdict64(lt_m, eq_m, lt, eq, gt), nulls, i, null_keep,
             sel + i);
  }
  scalar::AndDoubleCmp(v + i, Tail(nulls, i), null_keep, lit, lt, eq, gt,
                       sel + i, n - i);
}

void AndDoubleRange(const double* v, const uint8_t* nulls, bool null_keep,
                    double lo, double hi, uint8_t* sel, size_t n) {
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t x = vld1q_f64(v + i);
    uint64x2_t keep = vandq_u64(vcgeq_f64(x, vlo), vcleq_f64(x, vhi));
    AndMask2(keep, nulls, i, null_keep, sel + i);
  }
  scalar::AndDoubleRange(v + i, Tail(nulls, i), null_keep, lo, hi, sel + i,
                         n - i);
}

void AndCodeCmp(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                uint32_t lower_bound, bool has_exact, bool lt, bool eq,
                bool gt, uint8_t* sel, size_t n) {
  const uint32x4_t vlb = vdupq_n_u32(lower_bound);
  const uint32x4_t lt_c = vdupq_n_u32(lt ? ~0U : 0);
  const uint32x4_t eq_c = vdupq_n_u32(eq ? ~0U : 0);
  const uint32x4_t gt_c = vdupq_n_u32(gt ? ~0U : 0);
  const uint32x4_t exact_c = vdupq_n_u32(has_exact ? ~0U : 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32x4_t x = vld1q_u32(codes + i);
    uint32x4_t lt_m = vcltq_u32(x, vlb);
    uint32x4_t eq_m = vandq_u32(vceqq_u32(x, vlb), exact_c);
    uint32x4_t gt_m = vmvnq_u32(vorrq_u32(lt_m, eq_m));
    uint32x4_t keep =
        vorrq_u32(vorrq_u32(vandq_u32(lt_m, lt_c), vandq_u32(eq_m, eq_c)),
                  vandq_u32(gt_m, gt_c));
    AndMask4(keep, nulls, i, null_keep, sel + i);
  }
  scalar::AndCodeCmp(codes + i, Tail(nulls, i), null_keep, lower_bound,
                     has_exact, lt, eq, gt, sel + i, n - i);
}

void AndCodeRange(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                  uint32_t lo, uint32_t hi, uint8_t* sel, size_t n) {
  const uint32x4_t vlo = vdupq_n_u32(lo);
  const uint32x4_t vhi = vdupq_n_u32(hi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32x4_t x = vld1q_u32(codes + i);
    uint32x4_t keep = vandq_u32(vcgeq_u32(x, vlo), vcltq_u32(x, vhi));
    AndMask4(keep, nulls, i, null_keep, sel + i);
  }
  scalar::AndCodeRange(codes + i, Tail(nulls, i), null_keep, lo, hi, sel + i,
                       n - i);
}

void AndCodeSet(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                const uint8_t* allowed, uint8_t* sel, size_t n) {
  scalar::AndCodeSet(codes, nulls, null_keep, allowed, sel, n);
}

void AndConst(const uint8_t* nulls, bool null_keep, bool keep, uint8_t* sel,
              size_t n) {
  if (nulls == nullptr || keep == null_keep) {
    if (!keep) std::fill_n(sel, n, uint8_t{0});
    return;
  }
  const uint8x16_t zero = vdupq_n_u8(0);
  const uint8x16_t one = vdupq_n_u8(1);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t nb = vld1q_u8(nulls + i);
    uint8x16_t non_null = vceqq_u8(nb, zero);
    uint8x16_t verdict = keep ? vandq_u8(non_null, one)
                              : vandq_u8(vmvnq_u8(non_null), one);
    vst1q_u8(sel + i, vandq_u8(vld1q_u8(sel + i), verdict));
  }
  scalar::AndConst(nulls + i, null_keep, keep, sel + i, n - i);
}

size_t CountMask(const uint8_t* sel, size_t n) {
  return scalar::CountMask(sel, n);
}

void CompressMask(const uint8_t* sel, size_t n, size_t base,
                  std::vector<size_t>& out) {
  scalar::CompressMask(sel, n, base, out);
}

void PackDoubleBitsBlock(const double* v, uint64_t* out, size_t n) {
  const float64x2_t zero_pd = vdupq_n_f64(0.0);
  double canon = std::numeric_limits<double>::quiet_NaN();
  uint64_t canon_bits;
  std::memcpy(&canon_bits, &canon, sizeof(canon_bits));
  const uint64x2_t canon_v = vdupq_n_u64(canon_bits);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t x = vld1q_f64(v + i);
    uint64x2_t bits = vreinterpretq_u64_f64(vaddq_f64(x, zero_pd));
    uint64x2_t not_nan = vceqq_f64(x, x);
    vst1q_u64(out + i, vbslq_u64(not_nan, bits, canon_v));
  }
  scalar::PackDoubleBitsBlock(v + i, out + i, n - i);
}

}  // namespace neon
}  // namespace simd
}  // namespace shareinsights

#endif  // defined(__aarch64__)
