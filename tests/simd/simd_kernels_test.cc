// SIMD kernel equivalence suite: every dispatched kernel variant must be
// BYTE-identical to the scalar reference implementation, across every ISA
// this host can run (unsupported ISAs degrade to scalar, which keeps the
// suite meaningful on any machine), across buffer lengths that are not
// multiples of any lane width, and across the hostile value cases — null
// maps, NaN, -0.0, INT64_MIN/MAX, empty dictionaries. The operator-level
// section then pins whole-operator output bits across ISA overrides and
// thread counts, which is what the engine actually relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "ops/exec_context.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "ops/packed_key.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "table/column.h"
#include "table/table.h"

namespace shareinsights {
namespace {

// Lengths straddling every lane width the variants use (AVX2: 4x64/8x32,
// NEON: 2x64/4x32) plus their unroll tails, and the empty buffer.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100};

const simd::Isa kAllIsas[] = {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kNeon};

uint64_t Lcg(uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

// Hostile int64 data: small values around the literals, extremes, signs.
std::vector<int64_t> Int64Data(size_t n, uint64_t seed) {
  std::vector<int64_t> v(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    switch (Lcg(state) % 8) {
      case 0: v[i] = std::numeric_limits<int64_t>::min(); break;
      case 1: v[i] = std::numeric_limits<int64_t>::max(); break;
      case 2: v[i] = -static_cast<int64_t>(Lcg(state) % 100); break;
      default: v[i] = static_cast<int64_t>(Lcg(state) % 100); break;
    }
  }
  return v;
}

// Hostile double data: NaN, +/-0.0, +/-inf, denormal, ordinary values.
std::vector<double> DoubleData(size_t n, uint64_t seed) {
  std::vector<double> v(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    switch (Lcg(state) % 10) {
      case 0: v[i] = std::nan(""); break;
      case 1: v[i] = -0.0; break;
      case 2: v[i] = 0.0; break;
      case 3: v[i] = std::numeric_limits<double>::infinity(); break;
      case 4: v[i] = -std::numeric_limits<double>::infinity(); break;
      case 5: v[i] = std::numeric_limits<double>::denorm_min(); break;
      default: v[i] = static_cast<double>(Lcg(state) % 64) / 8.0 - 3.0;
    }
  }
  return v;
}

std::vector<uint32_t> CodeData(size_t n, uint32_t num_codes, uint64_t seed) {
  std::vector<uint32_t> v(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    v[i] = num_codes == 0 ? 0 : static_cast<uint32_t>(Lcg(state) % num_codes);
  }
  return v;
}

std::vector<uint8_t> NullMap(size_t n, uint64_t seed) {
  std::vector<uint8_t> nulls(n, 0);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) nulls[i] = Lcg(state) % 7 == 0 ? 1 : 0;
  return nulls;
}

// Selection masks start partially cleared so the And* contract (AND into
// the existing mask, never resurrect a dropped row) is exercised.
std::vector<uint8_t> SelMask(size_t n, uint64_t seed) {
  std::vector<uint8_t> sel(n, 1);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    if (Lcg(state) % 5 == 0) sel[i] = 0;
  }
  return sel;
}

// Runs `fn` once per ISA under ScopedIsaForTesting and hands it a label
// for failure messages. Unsupported ISAs degrade to scalar inside the
// dispatcher, so every iteration is a valid (if sometimes redundant) run.
template <typename Fn>
void ForEachIsa(Fn fn) {
  for (simd::Isa isa : kAllIsas) {
    simd::ScopedIsaForTesting scoped(isa);
    fn(std::string(simd::IsaName(isa)) +
       (simd::IsaSupported(isa) ? "" : " (degraded to scalar)"));
  }
}

// ---------------------------------------------------------------------------
// Filter kernels vs the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdKernelsTest, AndInt64CmpMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<int64_t> v = Int64Data(n, 11);
    std::vector<uint8_t> nulls = NullMap(n, 13);
    for (int64_t lit : {int64_t{17}, int64_t{0},
                        std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}) {
      for (int m = 0; m < 8; ++m) {
        bool lt = (m & 1) != 0, eq = (m & 2) != 0, gt = (m & 4) != 0;
        for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
          for (bool null_keep : {false, true}) {
            std::vector<uint8_t> want = SelMask(n, 29);
            simd::scalar::AndInt64Cmp(v.data(), nmap, null_keep, lit, lt, eq,
                                      gt, want.data(), n);
            ForEachIsa([&](const std::string& label) {
              std::vector<uint8_t> got = SelMask(n, 29);
              simd::AndInt64Cmp(v.data(), nmap, null_keep, lit, lt, eq, gt,
                                got.data(), n);
              ASSERT_EQ(want, got) << label << " n=" << n << " lit=" << lit
                                   << " mask=" << m;
            });
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AndInt64RangeMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<int64_t> v = Int64Data(n, 19);
    std::vector<uint8_t> nulls = NullMap(n, 23);
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    const int64_t kMax = std::numeric_limits<int64_t>::max();
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, 50}, {-10, 10}, {kMin, kMax}, {kMax, kMin}, {5, 5}, {kMin, 0}};
    for (auto [lo, hi] : ranges) {
      for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
        std::vector<uint8_t> want = SelMask(n, 31);
        simd::scalar::AndInt64Range(v.data(), nmap, false, lo, hi,
                                    want.data(), n);
        ForEachIsa([&](const std::string& label) {
          std::vector<uint8_t> got = SelMask(n, 31);
          simd::AndInt64Range(v.data(), nmap, false, lo, hi, got.data(), n);
          ASSERT_EQ(want, got) << label << " n=" << n << " [" << lo << ","
                               << hi << "]";
        });
      }
    }
  }
}

TEST(SimdKernelsTest, AndDoubleCmpMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<double> v = DoubleData(n, 37);
    std::vector<uint8_t> nulls = NullMap(n, 41);
    for (double lit : {0.0, -0.0, 2.5, -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity()}) {
      for (int m = 0; m < 8; ++m) {
        bool lt = (m & 1) != 0, eq = (m & 2) != 0, gt = (m & 4) != 0;
        for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
          std::vector<uint8_t> want = SelMask(n, 43);
          simd::scalar::AndDoubleCmp(v.data(), nmap, true, lit, lt, eq, gt,
                                     want.data(), n);
          ForEachIsa([&](const std::string& label) {
            std::vector<uint8_t> got = SelMask(n, 43);
            simd::AndDoubleCmp(v.data(), nmap, true, lit, lt, eq, gt,
                               got.data(), n);
            ASSERT_EQ(want, got) << label << " n=" << n << " lit=" << lit
                                 << " mask=" << m;
          });
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AndDoubleRangeMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<double> v = DoubleData(n, 47);
    std::vector<uint8_t> nulls = NullMap(n, 53);
    const std::pair<double, double> ranges[] = {
        {-1.0, 1.0},
        {-0.0, 0.0},
        {0.0, -0.0},  // equal bounds under -0.0 == 0.0
        {-std::numeric_limits<double>::infinity(),
         std::numeric_limits<double>::infinity()},
        {3.0, -3.0}};
    for (auto [lo, hi] : ranges) {
      for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
        std::vector<uint8_t> want = SelMask(n, 59);
        simd::scalar::AndDoubleRange(v.data(), nmap, false, lo, hi,
                                     want.data(), n);
        ForEachIsa([&](const std::string& label) {
          std::vector<uint8_t> got = SelMask(n, 59);
          simd::AndDoubleRange(v.data(), nmap, false, lo, hi, got.data(), n);
          ASSERT_EQ(want, got) << label << " n=" << n << " [" << lo << ","
                               << hi << "]";
        });
      }
    }
  }
}

TEST(SimdKernelsTest, AndCodeCmpMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<uint32_t> codes = CodeData(n, 11, 61);
    std::vector<uint8_t> nulls = NullMap(n, 67);
    for (uint32_t lower : {0u, 5u, 10u, 11u}) {
      for (bool has_exact : {false, true}) {
        for (int m = 0; m < 8; ++m) {
          bool lt = (m & 1) != 0, eq = (m & 2) != 0, gt = (m & 4) != 0;
          for (bool null_keep : {false, true}) {
            std::vector<uint8_t> want = SelMask(n, 71);
            simd::scalar::AndCodeCmp(codes.data(), nulls.data(), null_keep,
                                     lower, has_exact, lt, eq, gt,
                                     want.data(), n);
            ForEachIsa([&](const std::string& label) {
              std::vector<uint8_t> got = SelMask(n, 71);
              simd::AndCodeCmp(codes.data(), nulls.data(), null_keep, lower,
                               has_exact, lt, eq, gt, got.data(), n);
              ASSERT_EQ(want, got) << label << " n=" << n << " lower="
                                   << lower << " exact=" << has_exact
                                   << " mask=" << m;
            });
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AndCodeRangeMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<uint32_t> codes = CodeData(n, 20, 73);
    std::vector<uint8_t> nulls = NullMap(n, 79);
    const std::pair<uint32_t, uint32_t> ranges[] = {
        {0, 20}, {5, 12}, {7, 7}, {12, 5}, {0, 0xffffffffu}};
    for (auto [lo, hi] : ranges) {
      std::vector<uint8_t> want = SelMask(n, 83);
      simd::scalar::AndCodeRange(codes.data(), nulls.data(), false, lo, hi,
                                 want.data(), n);
      ForEachIsa([&](const std::string& label) {
        std::vector<uint8_t> got = SelMask(n, 83);
        simd::AndCodeRange(codes.data(), nulls.data(), false, lo, hi,
                           got.data(), n);
        ASSERT_EQ(want, got) << label << " n=" << n << " [" << lo << ","
                             << hi << ")";
      });
    }
  }
}

TEST(SimdKernelsTest, AndCodeSetMatchesScalar) {
  for (size_t n : kSizes) {
    for (uint32_t num_codes : {1u, 9u, 211u}) {
      std::vector<uint32_t> codes = CodeData(n, num_codes, 89);
      std::vector<uint8_t> nulls = NullMap(n, 97);
      std::vector<uint8_t> allowed(num_codes + simd::kCodeSetPadding, 0);
      uint64_t state = 101;
      for (uint32_t c = 0; c < num_codes; ++c) {
        allowed[c] = Lcg(state) % 3 == 0 ? 1 : 0;
      }
      for (bool null_keep : {false, true}) {
        std::vector<uint8_t> want = SelMask(n, 103);
        simd::scalar::AndCodeSet(codes.data(), nulls.data(), null_keep,
                                 allowed.data(), want.data(), n);
        ForEachIsa([&](const std::string& label) {
          std::vector<uint8_t> got = SelMask(n, 103);
          simd::AndCodeSet(codes.data(), nulls.data(), null_keep,
                           allowed.data(), got.data(), n);
          ASSERT_EQ(want, got) << label << " n=" << n << " codes="
                               << num_codes;
        });
      }
    }
  }
}

// The empty-dictionary shape: an all-null dict column stores code 0 at
// every row while the dictionary itself has zero entries, so the verdict
// table is sized max(size, 1) + padding and code 0 must read "not in
// the set" without touching uninitialized memory.
TEST(SimdKernelsTest, AndCodeSetEmptyDictionary) {
  for (size_t n : kSizes) {
    std::vector<uint32_t> codes(n, 0);
    std::vector<uint8_t> nulls(n, 1);
    std::vector<uint8_t> allowed(1 + simd::kCodeSetPadding, 0);
    for (bool null_keep : {false, true}) {
      ForEachIsa([&](const std::string& label) {
        std::vector<uint8_t> got(n, 1);
        simd::AndCodeSet(codes.data(), nulls.data(), null_keep,
                         allowed.data(), got.data(), n);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], null_keep ? 1 : 0) << label << " n=" << n;
        }
      });
    }
  }
}

TEST(SimdKernelsTest, AndConstMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<uint8_t> nulls = NullMap(n, 107);
    for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
      for (bool keep : {false, true}) {
        for (bool null_keep : {false, true}) {
          std::vector<uint8_t> want = SelMask(n, 109);
          simd::scalar::AndConst(nmap, null_keep, keep, want.data(), n);
          ForEachIsa([&](const std::string& label) {
            std::vector<uint8_t> got = SelMask(n, 109);
            simd::AndConst(nmap, null_keep, keep, got.data(), n);
            ASSERT_EQ(want, got) << label << " n=" << n;
          });
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mask utilities, packing and hashing.
// ---------------------------------------------------------------------------

TEST(SimdKernelsTest, CountMaskMatchesScalar) {
  for (size_t n : kSizes) {
    std::vector<uint8_t> sel = SelMask(n, 113);
    size_t want = simd::scalar::CountMask(sel.data(), n);
    ForEachIsa([&](const std::string& label) {
      EXPECT_EQ(simd::CountMask(sel.data(), n), want) << label << " n=" << n;
    });
  }
}

TEST(SimdKernelsTest, CompressMaskAppendsInRowOrder) {
  for (size_t n : kSizes) {
    std::vector<uint8_t> sel = SelMask(n, 127);
    std::vector<size_t> want = {424242};  // pre-existing content survives
    simd::scalar::CompressMask(sel.data(), n, 1000, want);
    ForEachIsa([&](const std::string& label) {
      std::vector<size_t> got = {424242};
      simd::CompressMask(sel.data(), n, 1000, got);
      ASSERT_EQ(want, got) << label << " n=" << n;
    });
    // Sanity against first principles, not just the scalar kernel.
    std::vector<size_t> naive = {424242};
    for (size_t i = 0; i < n; ++i) {
      if (sel[i] != 0) naive.push_back(1000 + i);
    }
    EXPECT_EQ(want, naive) << "n=" << n;
  }
}

TEST(SimdKernelsTest, PackDoubleBitsBlockMatchesPerElement) {
  for (size_t n : kSizes) {
    std::vector<double> v = DoubleData(n, 131);
    std::vector<uint64_t> want(n);
    for (size_t i = 0; i < n; ++i) want[i] = PackDoubleBits(v[i]);
    ForEachIsa([&](const std::string& label) {
      std::vector<uint64_t> got(n, ~0ULL);
      simd::PackDoubleBitsBlock(v.data(), got.data(), n);
      ASSERT_EQ(want, got) << label << " n=" << n;
    });
  }
}

TEST(SimdKernelsTest, HashPackedKeysBlockMatchesPerRowHash) {
  PackedKeyHash row_hash;
  for (size_t n : kSizes) {
    for (size_t stride : {size_t{1}, size_t{2}, size_t{5}}) {
      std::vector<uint64_t> words(n * stride);
      uint64_t state = 137;
      for (uint64_t& w : words) w = Lcg(state) * 0x9e3779b97f4a7c15ULL;
      std::vector<uint64_t> want(n);
      std::vector<uint64_t> key(stride);
      for (size_t i = 0; i < n; ++i) {
        std::copy(words.begin() + i * stride,
                  words.begin() + (i + 1) * stride, key.begin());
        want[i] = row_hash(key);
      }
      ForEachIsa([&](const std::string& label) {
        std::vector<uint64_t> got(n, 0);
        simd::HashPackedKeysBlock(words.data(), stride, n, got.data());
        ASSERT_EQ(want, got) << label << " n=" << n << " stride=" << stride;
      });
    }
  }
}

TEST(SimdKernelsTest, GroupIndexesMapsNullsToNullCode) {
  for (size_t n : kSizes) {
    std::vector<uint32_t> codes = CodeData(n, 9, 139);
    std::vector<uint8_t> nulls = NullMap(n, 149);
    for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
      std::vector<uint32_t> want(n);
      for (size_t i = 0; i < n; ++i) {
        want[i] = nmap != nullptr && nmap[i] != 0 ? 9u : codes[i];
      }
      std::vector<uint32_t> got(n, ~0u);
      simd::GroupIndexes(codes.data(), nmap, 9, got.data(), n);
      ASSERT_EQ(want, got) << "n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Dense (striped) group-by accumulators vs a sequential reference. These
// share one implementation across ISAs; what needs pinning is that the
// stripe-and-reduce scheme is bit-identical to the in-order scan for the
// commutative aggregates it serves.
// ---------------------------------------------------------------------------

TEST(SimdKernelsTest, DenseCountMatchesSequential) {
  for (size_t n : kSizes) {
    const size_t ng = 5;
    std::vector<uint32_t> groups = CodeData(n, ng, 151);
    std::vector<uint8_t> nulls = NullMap(n, 157);
    for (const uint8_t* nmap : {(const uint8_t*)nullptr, (const uint8_t*)nulls.data()}) {
      std::vector<int64_t> want(ng, 0);
      for (size_t i = 0; i < n; ++i) {
        if (nmap == nullptr || nmap[i] == 0) want[groups[i]] += 1;
      }
      std::vector<int64_t> acc(simd::kDenseStripes * ng, 0);
      simd::DenseCount(groups.data(), nmap, n, ng, acc.data());
      simd::ReduceStripesAddI64(acc.data(), ng);
      acc.resize(ng);
      EXPECT_EQ(acc, want) << "n=" << n;
    }
  }
}

TEST(SimdKernelsTest, DenseSumInt64MatchesSequentialWithWrap) {
  for (size_t n : kSizes) {
    const size_t ng = 4;
    std::vector<uint32_t> groups = CodeData(n, ng, 163);
    std::vector<int64_t> v = Int64Data(n, 167);  // includes INT64_MIN/MAX
    std::vector<uint8_t> nulls = NullMap(n, 173);
    std::vector<uint64_t> want(ng, 0);
    std::vector<uint8_t> want_seen(ng, 0);
    for (size_t i = 0; i < n; ++i) {
      if (nulls[i] != 0) continue;
      want[groups[i]] += static_cast<uint64_t>(v[i]);  // two's-complement wrap
      want_seen[groups[i]] = 1;
    }
    std::vector<uint64_t> acc(simd::kDenseStripes * ng, 0);
    std::vector<uint8_t> seen(ng, 0);
    simd::DenseSumInt64(groups.data(), v.data(), nulls.data(), n, ng,
                        acc.data(), seen.data());
    simd::ReduceStripesAddU64(acc.data(), ng);
    acc.resize(ng);
    EXPECT_EQ(acc, want) << "n=" << n;
    EXPECT_EQ(seen, want_seen) << "n=" << n;
  }
}

TEST(SimdKernelsTest, DenseMinMaxInt64MatchesSequential) {
  for (size_t n : kSizes) {
    const size_t ng = 4;
    std::vector<uint32_t> groups = CodeData(n, ng, 179);
    std::vector<int64_t> v = Int64Data(n, 181);
    std::vector<uint8_t> nulls = NullMap(n, 191);
    for (bool is_min : {true, false}) {
      const int64_t identity = is_min ? std::numeric_limits<int64_t>::max()
                                      : std::numeric_limits<int64_t>::min();
      std::vector<int64_t> want(ng, identity);
      std::vector<uint8_t> want_seen(ng, 0);
      for (size_t i = 0; i < n; ++i) {
        if (nulls[i] != 0) continue;
        uint32_t g = groups[i];
        if (want_seen[g] == 0) {
          want[g] = v[i];
        } else if (is_min ? v[i] < want[g] : want[g] < v[i]) {
          want[g] = v[i];
        }
        want_seen[g] = 1;
      }
      std::vector<int64_t> acc(simd::kDenseStripes * ng, identity);
      std::vector<uint8_t> seen(ng, 0);
      simd::DenseMinMaxInt64(groups.data(), v.data(), nulls.data(), is_min, n,
                             ng, acc.data(), seen.data());
      simd::ReduceStripesMinMaxI64(acc.data(), ng, is_min);
      acc.resize(ng);
      for (size_t g = 0; g < ng; ++g) {
        EXPECT_EQ(seen[g], want_seen[g]) << "n=" << n << " g=" << g;
        if (want_seen[g] != 0) {
          EXPECT_EQ(acc[g], want[g])
              << "n=" << n << " g=" << g << " is_min=" << is_min;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, DenseMinMaxCodeMatchesSequential) {
  for (size_t n : kSizes) {
    const size_t ng = 4;
    std::vector<uint32_t> groups = CodeData(n, ng, 193);
    std::vector<uint32_t> v = CodeData(n, 200, 197);
    std::vector<uint8_t> nulls = NullMap(n, 199);
    for (bool is_min : {true, false}) {
      const uint32_t identity = is_min ? 0xffffffffu : 0u;
      std::vector<uint32_t> want(ng, identity);
      std::vector<uint8_t> want_seen(ng, 0);
      for (size_t i = 0; i < n; ++i) {
        if (nulls[i] != 0) continue;
        uint32_t g = groups[i];
        if (want_seen[g] == 0) {
          want[g] = v[i];
        } else if (is_min ? v[i] < want[g] : want[g] < v[i]) {
          want[g] = v[i];
        }
        want_seen[g] = 1;
      }
      std::vector<uint32_t> acc(simd::kDenseStripes * ng, identity);
      std::vector<uint8_t> seen(ng, 0);
      simd::DenseMinMaxCode(groups.data(), v.data(), nulls.data(), is_min, n,
                            ng, acc.data(), seen.data());
      simd::ReduceStripesMinMaxU32(acc.data(), ng, is_min);
      acc.resize(ng);
      for (size_t g = 0; g < ng; ++g) {
        EXPECT_EQ(seen[g], want_seen[g]) << "n=" << n << " g=" << g;
        if (want_seen[g] != 0) {
          EXPECT_EQ(acc[g], want[g])
              << "n=" << n << " g=" << g << " is_min=" << is_min;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// KeyPacker's columnar PackBlock vs the per-row PackRow reference.
// ---------------------------------------------------------------------------

TablePtr PackerDataset(size_t rows) {
  std::vector<Value> id, cat, score, flag;
  uint64_t state = 211;
  for (size_t i = 0; i < rows; ++i) {
    uint64_t r = Lcg(state);
    id.push_back(i % 5 == 0 ? Value::Null()
                            : Value(static_cast<int64_t>(r % 40) - 20));
    cat.push_back(i % 7 == 0 ? Value::Null()
                             : Value("k" + std::to_string(r % 6)));
    double d = static_cast<double>(r % 32) / 4.0;
    if (i % 11 == 0) d = -0.0;
    if (i % 13 == 0) d = std::nan("");
    score.push_back(i % 9 == 0 ? Value::Null() : Value(d));
    flag.push_back(i % 8 == 0 ? Value::Null() : Value((r & 1) != 0));
  }
  return *Table::Create(Schema({Field{"id", ValueType::kInt64},
                                Field{"cat", ValueType::kString},
                                Field{"score", ValueType::kDouble},
                                Field{"flag", ValueType::kBool}}),
                        {std::move(id), std::move(cat), std::move(score),
                         std::move(flag)},
                        false);
}

TEST(SimdKernelsTest, PackBlockMatchesPackRow) {
  TablePtr table = PackerDataset(257);
  std::optional<KeyPacker> packer =
      KeyPacker::Create(*table, {0, 1, 2, 3});
  ASSERT_TRUE(packer.has_value());
  const size_t stride = packer->stride();
  const std::pair<size_t, size_t> ranges[] = {
      {0, 257}, {0, 0}, {3, 4}, {100, 133}, {250, 257}};
  for (auto [begin, end] : ranges) {
    size_t n = end - begin;
    std::vector<uint64_t> want(n * stride, ~0ULL);
    for (size_t i = 0; i < n; ++i) {
      packer->PackRow(begin + i, want.data() + i * stride);
    }
    ForEachIsa([&](const std::string& label) {
      std::vector<uint64_t> got(n * stride, ~0ULL);
      packer->PackBlock(begin, end, got.data());
      ASSERT_EQ(want, got) << label << " [" << begin << "," << end << ")";
    });
  }
}

// Cross-dictionary translation (the join probe shape): probe codes map
// through translate[], absent strings to the no-match sentinel.
TEST(SimdKernelsTest, PackBlockMatchesPackRowWithTranslation) {
  TablePtr probe = PackerDataset(101);
  std::vector<Value> key;
  for (int i = 0; i < 3; ++i) key.push_back(Value("k" + std::to_string(i)));
  key.push_back(Value("absent"));
  TablePtr build = *Table::Create(Schema({Field{"cat", ValueType::kString}}),
                                  {std::move(key)}, false);
  std::optional<KeyPacker> probe_packer, build_packer;
  ASSERT_TRUE(KeyPacker::CreatePair(*probe, {1}, *build, {0}, &probe_packer,
                                    &build_packer));
  const size_t stride = probe_packer->stride();
  std::vector<uint64_t> want(101 * stride);
  for (size_t i = 0; i < 101; ++i) {
    probe_packer->PackRow(i, want.data() + i * stride);
  }
  std::vector<uint64_t> got(101 * stride, ~0ULL);
  probe_packer->PackBlock(0, 101, got.data());
  EXPECT_EQ(want, got);
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, IsaNamesRoundTrip) {
  for (simd::Isa isa : kAllIsas) {
    std::optional<simd::Isa> parsed = simd::ParseIsaName(simd::IsaName(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(simd::ParseIsaName("avx512").has_value());
  EXPECT_FALSE(simd::ParseIsaName("").has_value());
}

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndSelectedIsaRuns) {
  EXPECT_TRUE(simd::IsaSupported(simd::Isa::kScalar));
  EXPECT_TRUE(simd::IsaSupported(simd::SelectedIsa()));
}

TEST(SimdDispatchTest, ScopedOverrideRestoresAndDegrades) {
  simd::Isa before = simd::SelectedIsa();
  {
    simd::ScopedIsaForTesting scoped(simd::Isa::kScalar);
    EXPECT_EQ(simd::SelectedIsa(), simd::Isa::kScalar);
    {
      // Nested override; an unsupported request degrades to scalar.
      simd::ScopedIsaForTesting inner(simd::Isa::kNeon);
      if (simd::IsaSupported(simd::Isa::kNeon)) {
        EXPECT_EQ(simd::SelectedIsa(), simd::Isa::kNeon);
      } else {
        EXPECT_EQ(simd::SelectedIsa(), simd::Isa::kScalar);
      }
    }
    EXPECT_EQ(simd::SelectedIsa(), simd::Isa::kScalar);
  }
  EXPECT_EQ(simd::SelectedIsa(), before);
}

TEST(SimdDispatchTest, KernelBatchesBumpDispatchCounter) {
  simd::ScopedIsaForTesting scoped(simd::Isa::kScalar);
  Counter* counter = MetricsRegistry::Default().GetCounter(
      "simd_kernel_dispatch_total{isa=\"scalar\"}");
  int64_t before = counter->Value();
  uint8_t sel[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  simd::AndConst(nullptr, false, true, sel, 8);
  simd::CountMask(sel, 8);
  EXPECT_EQ(counter->Value(), before + 2);
}

// ---------------------------------------------------------------------------
// Operator-level: whole filter / group-by outputs are byte-identical
// across every ISA override and across thread counts. The scalar run is
// the oracle; morsel size 33 keeps tails that are not lane-multiples.
// ---------------------------------------------------------------------------

uint64_t CellDoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::string CellBits(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "N";
    case ValueType::kBool: return v.bool_value() ? "b1" : "b0";
    case ValueType::kInt64: return "i" + std::to_string(v.int64_value());
    case ValueType::kDouble:
      return "d" + std::to_string(CellDoubleBits(v.double_value()));
    case ValueType::kString: return "s" + v.string_value();
  }
  return "?";
}

std::string TableBits(const Table& table) {
  std::string out = table.schema().ToString() + "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      out += CellBits(table.at(r, c)) + "|";
    }
    out += "\n";
  }
  return out;
}

class SimdOperatorEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = PackerDataset(997);  // prime row count: every morsel tail odd
    ASSERT_EQ(table_->typed_column(1).encoding(), ColumnEncoding::kDict);
  }

  // Runs `op` under every ISA x thread-count combination and expects all
  // outputs to match the scalar single-threaded run bit for bit.
  void ExpectIsaInvariant(const TableOperator& op) {
    std::string oracle;
    {
      simd::ScopedIsaForTesting scoped(simd::Isa::kScalar);
      ExecContext ctx;
      ctx.morsel_rows = 33;
      Result<TablePtr> r = op.Execute({table_}, ctx);
      ASSERT_TRUE(r.ok()) << op.name() << ": " << r.status();
      oracle = TableBits(**r);
    }
    for (simd::Isa isa : kAllIsas) {
      // Set the override BEFORE pool threads pick up work (the scoped
      // selection is process-global, read per batch on worker threads).
      simd::ScopedIsaForTesting scoped(isa);
      for (int threads : {1, 4, 8}) {
        std::unique_ptr<ThreadPool> pool;
        ExecContext ctx;
        ctx.morsel_rows = 33;
        if (threads > 1) {
          pool = std::make_unique<ThreadPool>(threads);
          ctx.pool = pool.get();
        }
        Result<TablePtr> r = op.Execute({table_}, ctx);
        ASSERT_TRUE(r.ok()) << op.name() << ": " << r.status();
        EXPECT_EQ(TableBits(**r), oracle)
            << op.name() << " isa=" << simd::IsaName(isa)
            << " threads=" << threads;
      }
    }
  }

  TablePtr table_;
};

TEST_F(SimdOperatorEquivalenceTest, FilterExpression) {
  for (const char* expr : {"id < 5", "score >= 2.0", "id = 0",
                           "score = 0", "cat = 'k3'", "flag = true"}) {
    auto op = FilterExpressionOp::Create(expr);
    ASSERT_TRUE(op.ok()) << expr;
    ExpectIsaInvariant(**op);
  }
}

TEST_F(SimdOperatorEquivalenceTest, FilterCompare) {
  using Cmp = FilterCompareOp::Cmp;
  for (Cmp cmp : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                  Cmp::kGe}) {
    ExpectIsaInvariant(FilterCompareOp("id", cmp, Value(int64_t{3})));
    ExpectIsaInvariant(FilterCompareOp("score", cmp, Value(0.0)));
    ExpectIsaInvariant(FilterCompareOp("score", cmp, Value(-0.0)));
    ExpectIsaInvariant(FilterCompareOp("cat", cmp, Value("k2")));
  }
  ExpectIsaInvariant(FilterCompareOp("cat", Cmp::kContains, Value("4")));
}

TEST_F(SimdOperatorEquivalenceTest, FilterValues) {
  using CF = FilterValuesOp::ColumnFilter;
  ExpectIsaInvariant(FilterValuesOp(
      {CF{"cat", {Value("k1"), Value("k4"), Value::Null()}, false}}));
  ExpectIsaInvariant(FilterValuesOp({CF{"cat", {Value("k1"), Value("k4")},
                                        true}}));
  ExpectIsaInvariant(FilterValuesOp(
      {CF{"id", {Value(int64_t{-5}), Value(int64_t{5})}, true}}));
  ExpectIsaInvariant(FilterValuesOp(
      {CF{"score", {Value(0.0), Value(4.0)}, true}}));
}

TEST_F(SimdOperatorEquivalenceTest, GroupByDenseAndPacked) {
  auto dense = GroupByOp::Create(
      {"cat"},
      {AggregateSpec{"count", "", "n"}, AggregateSpec{"sum", "id", "s"},
       AggregateSpec{"sum", "score", "ds"},
       AggregateSpec{"avg", "score", "m"}, AggregateSpec{"min", "id", "lo"},
       AggregateSpec{"max", "score", "hi"},
       AggregateSpec{"min", "cat", "first_cat"}},
      false);
  ASSERT_TRUE(dense.ok());
  ExpectIsaInvariant(**dense);
  // Composite key: takes the packed-key hash path (PackBlock + batched
  // hashing) instead of the dense dict-code path.
  auto packed = GroupByOp::Create(
      {"cat", "flag"},
      {AggregateSpec{"count", "", "n"}, AggregateSpec{"sum", "score", "s"}},
      false);
  ASSERT_TRUE(packed.ok());
  ExpectIsaInvariant(**packed);
}

}  // namespace
}  // namespace shareinsights
