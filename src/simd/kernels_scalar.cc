#include <algorithm>

#include "simd/kernels.h"
#include "table/column.h"

// Portable reference variants. These are the semantic oracle for every
// other ISA, so favor the obvious formulation; the compiler's
// auto-vectorizer does well on the branch-free ones anyway.

namespace shareinsights {
namespace simd {
namespace scalar {

namespace {

inline uint8_t Verdict(bool lt, bool eq, bool gt, int cmp) {
  return (cmp < 0 ? lt : cmp > 0 ? gt : eq) ? 1 : 0;
}

}  // namespace

void AndInt64Cmp(const int64_t* v, const uint8_t* nulls, bool null_keep,
                 int64_t lit, bool lt, bool eq, bool gt, uint8_t* sel,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      keep = Verdict(lt, eq, gt, v[i] < lit ? -1 : v[i] > lit ? 1 : 0);
    }
    sel[i] &= keep;
  }
}

void AndInt64Range(const int64_t* v, const uint8_t* nulls, bool null_keep,
                   int64_t lo, int64_t hi, uint8_t* sel, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      keep = (v[i] >= lo && v[i] <= hi) ? 1 : 0;
    }
    sel[i] &= keep;
  }
}

void AndDoubleCmp(const double* v, const uint8_t* nulls, bool null_keep,
                  double lit, bool lt, bool eq, bool gt, uint8_t* sel,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      double x = v[i];
      // IEEE compares are all false for NaN cells, which lands on the gt
      // verdict — NaN orders after every (non-NaN) literal.
      uint8_t is_lt = x < lit ? 1 : 0;
      uint8_t is_eq = x == lit ? 1 : 0;
      keep = is_lt ? (lt ? 1 : 0) : is_eq ? (eq ? 1 : 0) : (gt ? 1 : 0);
    }
    sel[i] &= keep;
  }
}

void AndDoubleRange(const double* v, const uint8_t* nulls, bool null_keep,
                    double lo, double hi, uint8_t* sel, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      // NaN cells fail v <= hi, dropping them — they order above hi.
      keep = (v[i] >= lo && v[i] <= hi) ? 1 : 0;
    }
    sel[i] &= keep;
  }
}

void AndCodeCmp(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                uint32_t lower_bound, bool has_exact, bool lt, bool eq,
                bool gt, uint8_t* sel, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      uint32_t code = codes[i];
      int cmp = code < lower_bound ? -1
                : (has_exact && code == lower_bound) ? 0
                                                     : 1;
      keep = Verdict(lt, eq, gt, cmp);
    }
    sel[i] &= keep;
  }
}

void AndCodeRange(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                  uint32_t lo, uint32_t hi, uint8_t* sel, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      keep = (codes[i] >= lo && codes[i] < hi) ? 1 : 0;
    }
    sel[i] &= keep;
  }
}

void AndCodeSet(const uint32_t* codes, const uint8_t* nulls, bool null_keep,
                const uint8_t* allowed, uint8_t* sel, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t keep;
    if (nulls != nullptr && nulls[i] != 0) {
      keep = null_keep ? 1 : 0;
    } else {
      keep = allowed[codes[i]] != 0 ? 1 : 0;
    }
    sel[i] &= keep;
  }
}

void AndConst(const uint8_t* nulls, bool null_keep, bool keep, uint8_t* sel,
              size_t n) {
  if (nulls == nullptr || keep == null_keep) {
    if (!keep) std::fill_n(sel, n, uint8_t{0});
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    sel[i] &= (nulls[i] != 0 ? null_keep : keep) ? 1 : 0;
  }
}

size_t CountMask(const uint8_t* sel, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += sel[i] != 0 ? 1 : 0;
  return count;
}

void CompressMask(const uint8_t* sel, size_t n, size_t base,
                  std::vector<size_t>& out) {
  out.reserve(out.size() + CountMask(sel, n));
  for (size_t i = 0; i < n; ++i) {
    if (sel[i] != 0) out.push_back(base + i);
  }
}

void PackDoubleBitsBlock(const double* v, uint64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = PackDoubleBits(v[i]);
}

}  // namespace scalar
}  // namespace simd
}  // namespace shareinsights
