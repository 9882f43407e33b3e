// SIMD kernel harness: the hot paths of the simd/ library. The columnar
// filter, which has per-ISA variants, is measured at several
// selectivities twice in one process — once under the best ISA this host
// supports and once forced to the portable scalar kernels via the same
// override SI_SIMD uses — so the speedup is computable from one run
// (EXPERIMENTS.md quotes these numbers). The dense dict-code group-by
// and packed-key hashing run one implementation on every ISA and are
// measured once:
//
//   simd/filter_selectivity_{10,50,90}_rows_per_sec        best ISA
//   simd/filter_selectivity_{10,50,90}_scalar_rows_per_sec forced scalar
//   simd/groupby_dense_rows_per_sec
//   simd/hash_packed_keys_rows_per_sec
//
// Usage: bench_simd [rows]   (default 1M)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "datagen/datagen.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "ops/packed_key.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

using namespace shareinsights;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `body` repeatedly until ~300ms of samples exist (at least 3) and
// returns the best per-iteration wall millis — the usual bench hygiene
// against one-off scheduler noise.
double TimeBestMs(const std::function<void()>& body) {
  body();  // warmup (first run pays dictionary/cache setup)
  double best = 1e300;
  double spent = 0.0;
  int iters = 0;
  while (iters < 3 || spent < 300.0) {
    double t0 = NowMs();
    body();
    double ms = NowMs() - t0;
    if (ms < best) best = ms;
    spent += ms;
    ++iters;
    if (iters > 200) break;
  }
  return best;
}

// Emits the entry for one measurement under the best ISA.
void Emit(const std::string& name, size_t rows,
          const std::function<void()>& body) {
  simd::Isa best_isa = simd::SelectedIsa();
  std::string params = std::string("{\"isa\":\"") + simd::IsaName(best_isa) +
                       "\",\"rows\":" + std::to_string(rows) + "}";
  benchjson::EmitBenchMillis("simd/" + name + "_rows_per_sec", params,
                             TimeBestMs(body), static_cast<double>(rows));
}

// Emits the paired best-ISA / forced-scalar entries for one measurement.
void EmitPair(const std::string& name, size_t rows,
              const std::function<void()>& body) {
  Emit(name, rows, body);
  {
    simd::ScopedIsaForTesting forced(simd::Isa::kScalar);
    std::string scalar_params =
        "{\"isa\":\"scalar\",\"rows\":" + std::to_string(rows) + "}";
    benchjson::EmitBenchMillis("simd/" + name + "_scalar_rows_per_sec",
                               scalar_params, TimeBestMs(body),
                               static_cast<double>(rows));
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 1u << 20;
  if (argc > 1) rows = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));

  std::fprintf(stderr, "bench_simd: %zu rows, best isa=%s\n", rows,
               simd::IsaName(simd::SelectedIsa()));
  TablePtr input = GenerateBenchTable(rows, 64, 1);

  // Filter selectivity sweep. `value` is uniform in [0, 1000], so the
  // threshold sets the kept fraction: > 900 keeps ~10%, > 500 ~50%,
  // > 100 ~90%.
  const std::pair<const char*, const char*> filters[] = {
      {"filter_selectivity_10", "value > 900"},
      {"filter_selectivity_50", "value > 500"},
      {"filter_selectivity_90", "value > 100"}};
  for (auto [name, expr] : filters) {
    auto op = FilterExpressionOp::Create(expr);
    if (!op.ok()) {
      std::fprintf(stderr, "bench_simd: %s\n",
                   op.status().ToString().c_str());
      return 1;
    }
    EmitPair(name, rows, [&] {
      auto out = (*op)->Execute({input});
      if (!out.ok()) std::abort();
    });
  }

  // Dense dict-code group-by: 64 string groups (well under the dense
  // cutoff) with the typed aggregate mix — striped count/int-sum/int-min
  // plus the order-sensitive double max/avg.
  auto groupby = GroupByOp::Create(
      {"key"},
      {AggregateSpec{"count", "", "n"}, AggregateSpec{"sum", "value", "total"},
       AggregateSpec{"min", "value", "lo"}, AggregateSpec{"max", "score", "hi"},
       AggregateSpec{"avg", "score", "mean"}},
      false);
  if (!groupby.ok()) return 1;
  Emit("groupby_dense", rows, [&] {
    auto out = (*groupby)->Execute({input});
    if (!out.ok()) std::abort();
  });

  // Packed-key hashing: the group-by/join inner loop — pack a block of
  // (dict, int64) keys columnar, hash the packed words batched.
  std::optional<KeyPacker> packer = KeyPacker::Create(*input, {0, 1});
  if (!packer.has_value()) return 1;
  const size_t stride = packer->stride();
  constexpr size_t kBlock = 1024;
  std::vector<uint64_t> words(kBlock * stride);
  std::vector<uint64_t> hashes(kBlock);
  volatile uint64_t sink = 0;
  Emit("hash_packed_keys", rows, [&] {
    uint64_t mix = 0;
    for (size_t begin = 0; begin < rows; begin += kBlock) {
      size_t n = std::min(kBlock, rows - begin);
      packer->PackBlock(begin, begin + n, words.data());
      simd::HashPackedKeysBlock(words.data(), stride, n, hashes.data());
      mix ^= hashes[n - 1];
    }
    sink = sink ^ mix;
  });

  return 0;
}
