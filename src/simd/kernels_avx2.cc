// AVX2 kernel variants. This translation unit is compiled with -mavx2
// (see src/simd/CMakeLists.txt) and only ever executed after the runtime
// CPUID probe in dispatch.cc confirms AVX2, so the intrinsics are safe.
//
// Lane semantics are pinned byte-identical to the scalar reference:
//  - int64/double compares run 4 lanes per op, dict codes 8 lanes;
//  - null rows are blended to the constant null_keep verdict;
//  - NaN cells fall out of the lt/eq IEEE compares onto the gt verdict
//    (NaN orders after every number in Value::Compare's total order);
//  - unsigned u32 compares are emulated by biasing the sign bit.
// Every kernel finishes the sub-lane-width tail with the scalar variant.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "simd/kernels.h"
#include "table/column.h"

namespace shareinsights {
namespace simd {
namespace avx2 {

namespace {

inline __m256i Set1U64(uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

/// 64-bit lane mask (all-ones/0) of "row is null" for rows [i, i+4).
inline __m256i NullMask4(const uint8_t* nulls, size_t i) {
  int32_t four;
  std::memcpy(&four, nulls + i, sizeof(four));
  __m256i w = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(four));
  return _mm256_cmpgt_epi64(w, _mm256_setzero_si256());
}

/// 32-bit lane mask of "row is null" for rows [i, i+8).
inline __m256i NullMask8(const uint8_t* nulls, size_t i) {
  __m128i eight =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(nulls + i));
  __m256i w = _mm256_cvtepu8_epi32(eight);
  return _mm256_cmpgt_epi32(w, _mm256_setzero_si256());
}

/// ANDs a 64-bit-lane keep mask into 4 selection bytes.
inline void AndMask4(__m256i keep, uint8_t* sel) {
  int bits = _mm256_movemask_pd(_mm256_castsi256_pd(keep));
  sel[0] &= static_cast<uint8_t>(bits & 1);
  sel[1] &= static_cast<uint8_t>((bits >> 1) & 1);
  sel[2] &= static_cast<uint8_t>((bits >> 2) & 1);
  sel[3] &= static_cast<uint8_t>((bits >> 3) & 1);
}

/// ANDs a 32-bit-lane keep mask into 8 selection bytes.
inline void AndMask8(__m256i keep, uint8_t* sel) {
  int bits = _mm256_movemask_ps(_mm256_castsi256_ps(keep));
  for (int j = 0; j < 8; ++j) {
    sel[j] &= static_cast<uint8_t>((bits >> j) & 1);
  }
}

inline const uint8_t* Tail(const uint8_t* nulls, size_t i) {
  return nulls == nullptr ? nullptr : nulls + i;
}

}  // namespace

void AndInt64Cmp(const int64_t* v, const uint8_t* nulls, bool null_keep,
                 int64_t lit, bool lt, bool eq, bool gt, uint8_t* sel,
                 size_t n) {
  const __m256i vlit = _mm256_set1_epi64x(lit);
  const __m256i lt_c = Set1U64(lt ? ~0ULL : 0);
  const __m256i eq_c = Set1U64(eq ? ~0ULL : 0);
  const __m256i gt_c = Set1U64(gt ? ~0ULL : 0);
  const __m256i nk_c = Set1U64(null_keep ? ~0ULL : 0);
  const __m256i ones = Set1U64(~0ULL);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    __m256i lt_m = _mm256_cmpgt_epi64(vlit, x);
    __m256i eq_m = _mm256_cmpeq_epi64(x, vlit);
    __m256i gt_m = _mm256_andnot_si256(_mm256_or_si256(lt_m, eq_m), ones);
    __m256i keep = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(lt_m, lt_c),
                        _mm256_and_si256(eq_m, eq_c)),
        _mm256_and_si256(gt_m, gt_c));
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask4(nulls, i));
    }
    AndMask4(keep, sel + i);
  }
  scalar::AndInt64Cmp(v + i, Tail(nulls, i), null_keep, lit, lt, eq, gt,
                      sel + i, n - i);
}

void AndInt64Range(const int64_t* v, const uint8_t* nulls, bool null_keep,
                   int64_t lo, int64_t hi, uint8_t* sel, size_t n) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const __m256i nk_c = Set1U64(null_keep ? ~0ULL : 0);
  const __m256i ones = Set1U64(~0ULL);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    __m256i below = _mm256_cmpgt_epi64(vlo, x);
    __m256i above = _mm256_cmpgt_epi64(x, vhi);
    __m256i keep =
        _mm256_andnot_si256(_mm256_or_si256(below, above), ones);
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask4(nulls, i));
    }
    AndMask4(keep, sel + i);
  }
  scalar::AndInt64Range(v + i, Tail(nulls, i), null_keep, lo, hi, sel + i,
                        n - i);
}

void AndDoubleCmp(const double* v, const uint8_t* nulls, bool null_keep,
                  double lit, bool lt, bool eq, bool gt, uint8_t* sel,
                  size_t n) {
  const __m256d vlit = _mm256_set1_pd(lit);
  const __m256i lt_c = Set1U64(lt ? ~0ULL : 0);
  const __m256i eq_c = Set1U64(eq ? ~0ULL : 0);
  const __m256i gt_c = Set1U64(gt ? ~0ULL : 0);
  const __m256i nk_c = Set1U64(null_keep ? ~0ULL : 0);
  const __m256i ones = Set1U64(~0ULL);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    // NaN lanes fail both ordered compares and land on gt — NaN orders
    // after every non-NaN literal.
    __m256i lt_m = _mm256_castpd_si256(_mm256_cmp_pd(x, vlit, _CMP_LT_OQ));
    __m256i eq_m = _mm256_castpd_si256(_mm256_cmp_pd(x, vlit, _CMP_EQ_OQ));
    __m256i gt_m = _mm256_andnot_si256(_mm256_or_si256(lt_m, eq_m), ones);
    __m256i keep = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(lt_m, lt_c),
                        _mm256_and_si256(eq_m, eq_c)),
        _mm256_and_si256(gt_m, gt_c));
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask4(nulls, i));
    }
    AndMask4(keep, sel + i);
  }
  scalar::AndDoubleCmp(v + i, Tail(nulls, i), null_keep, lit, lt, eq, gt,
                       sel + i, n - i);
}

void AndDoubleRange(const double* v, const uint8_t* nulls, bool null_keep,
                    double lo, double hi, uint8_t* sel, size_t n) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256i nk_c = Set1U64(null_keep ? ~0ULL : 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    // Ordered compares are false on NaN lanes, so NaN cells drop out —
    // they order above any non-NaN hi bound.
    __m256i ge_lo = _mm256_castpd_si256(_mm256_cmp_pd(x, vlo, _CMP_GE_OQ));
    __m256i le_hi = _mm256_castpd_si256(_mm256_cmp_pd(x, vhi, _CMP_LE_OQ));
    __m256i keep = _mm256_and_si256(ge_lo, le_hi);
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask4(nulls, i));
    }
    AndMask4(keep, sel + i);
  }
  scalar::AndDoubleRange(v + i, Tail(nulls, i), null_keep, lo, hi, sel + i,
                         n - i);
}

void AndCodeCmp(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                uint32_t lower_bound, bool has_exact, bool lt, bool eq,
                bool gt, uint8_t* sel, size_t n) {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vlb = _mm256_set1_epi32(static_cast<int>(lower_bound));
  const __m256i vlb_u = _mm256_xor_si256(vlb, sign);
  const __m256i lt_c = _mm256_set1_epi32(lt ? -1 : 0);
  const __m256i eq_c = _mm256_set1_epi32(eq ? -1 : 0);
  const __m256i gt_c = _mm256_set1_epi32(gt ? -1 : 0);
  const __m256i nk_c = _mm256_set1_epi32(null_keep ? -1 : 0);
  const __m256i exact_c = _mm256_set1_epi32(has_exact ? -1 : 0);
  const __m256i ones = _mm256_set1_epi32(-1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    __m256i xu = _mm256_xor_si256(x, sign);
    __m256i lt_m = _mm256_cmpgt_epi32(vlb_u, xu);
    __m256i eq_m = _mm256_and_si256(_mm256_cmpeq_epi32(x, vlb), exact_c);
    __m256i gt_m = _mm256_andnot_si256(_mm256_or_si256(lt_m, eq_m), ones);
    __m256i keep = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(lt_m, lt_c),
                        _mm256_and_si256(eq_m, eq_c)),
        _mm256_and_si256(gt_m, gt_c));
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask8(nulls, i));
    }
    AndMask8(keep, sel + i);
  }
  scalar::AndCodeCmp(codes + i, Tail(nulls, i), null_keep, lower_bound,
                     has_exact, lt, eq, gt, sel + i, n - i);
}

void AndCodeRange(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                  uint32_t lo, uint32_t hi, uint8_t* sel, size_t n) {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vlo_u =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(lo)), sign);
  const __m256i vhi_u =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(hi)), sign);
  const __m256i nk_c = _mm256_set1_epi32(null_keep ? -1 : 0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i xu = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)),
        sign);
    // keep = !(lo > x) && (hi > x), all unsigned via the sign-bit bias.
    __m256i keep = _mm256_andnot_si256(_mm256_cmpgt_epi32(vlo_u, xu),
                                       _mm256_cmpgt_epi32(vhi_u, xu));
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask8(nulls, i));
    }
    AndMask8(keep, sel + i);
  }
  scalar::AndCodeRange(codes + i, Tail(nulls, i), null_keep, lo, hi, sel + i,
                       n - i);
}

void AndCodeSet(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                const uint8_t* allowed, uint8_t* sel, size_t n) {
  const __m256i nk_c = _mm256_set1_epi32(null_keep ? -1 : 0);
  const __m256i byte_mask = _mm256_set1_epi32(0xFF);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    // Scale-1 gather reads the 4 bytes at allowed[code...]; only the low
    // byte is the verdict (kCodeSetPadding guarantees the over-read is
    // in-bounds). Null rows carry code 0, also in-bounds.
    __m256i w = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(allowed), x, 1);
    __m256i keep =
        _mm256_cmpgt_epi32(_mm256_and_si256(w, byte_mask), zero);
    if (nulls != nullptr) {
      keep = _mm256_blendv_epi8(keep, nk_c, NullMask8(nulls, i));
    }
    AndMask8(keep, sel + i);
  }
  scalar::AndCodeSet(codes + i, Tail(nulls, i), null_keep, allowed, sel + i,
                     n - i);
}

void AndConst(const uint8_t* nulls, bool null_keep, bool keep, uint8_t* sel,
              size_t n) {
  if (nulls == nullptr || keep == null_keep) {
    if (!keep) std::fill_n(sel, n, uint8_t{0});
    return;
  }
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i nb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nulls + i));
    __m256i non_null = _mm256_cmpeq_epi8(nb, zero);
    // verdict = non_null ? keep : null_keep, with keep != null_keep here.
    __m256i verdict = keep ? _mm256_and_si256(non_null, one)
                           : _mm256_andnot_si256(non_null, one);
    __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + i),
                        _mm256_and_si256(s, verdict));
  }
  scalar::AndConst(nulls + i, null_keep, keep, sel + i, n - i);
}

size_t CountMask(const uint8_t* sel, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  size_t count = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    uint32_t zero_bits = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, zero)));
    count += 32 - static_cast<size_t>(__builtin_popcount(zero_bits));
  }
  count += scalar::CountMask(sel + i, n - i);
  return count;
}

void CompressMask(const uint8_t* sel, size_t n, size_t base,
                  std::vector<size_t>& out) {
  out.reserve(out.size() + CountMask(sel, n));
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    uint32_t m = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, zero)));
    while (m != 0) {
      unsigned j = static_cast<unsigned>(__builtin_ctz(m));
      out.push_back(base + i + j);
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (sel[i] != 0) out.push_back(base + i);
  }
}

void PackDoubleBitsBlock(const double* v, uint64_t* out, size_t n) {
  const __m256d zero_pd = _mm256_setzero_pd();
  double canon = std::numeric_limits<double>::quiet_NaN();
  uint64_t canon_bits;
  std::memcpy(&canon_bits, &canon, sizeof(canon_bits));
  const __m256i canon_v = Set1U64(canon_bits);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    // x + 0.0 is exact for every non-NaN value and collapses -0.0 to
    // +0.0; NaN lanes are overwritten with the canonical quiet NaN.
    __m256i bits = _mm256_castpd_si256(_mm256_add_pd(x, zero_pd));
    __m256i nan_m =
        _mm256_castpd_si256(_mm256_cmp_pd(x, x, _CMP_UNORD_Q));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_blendv_epi8(bits, canon_v, nan_m));
  }
  scalar::PackDoubleBitsBlock(v + i, out + i, n - i);
}

}  // namespace avx2
}  // namespace simd
}  // namespace shareinsights

#endif  // defined(__x86_64__) || defined(_M_X64)
