// Incremental re-execution bench: the executor's dirty-node scheduling
// against full re-runs. This is the mechanism behind section 4.5.3's
// benefits 3/4 ("long running data flows are executed only by the
// dashboard which shares the data objects"; consumers "get extremely
// quick feedback"): after an edit, only the transitively affected flows
// re-run. We build a diamond of flow chains over a sizeable source and
// dirty progressively deeper nodes.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_json.h"
#include "datagen/datagen.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "compile/compiler.h"
#include "io/csv.h"
#include "table/append.h"

using namespace shareinsights;

namespace {

constexpr int kBranches = 3;
constexpr int kDepth = 5;

// Three independent branches of kDepth chained flows off one source.
std::string DiamondFlowFile(const std::string& payload) {
  std::ostringstream out;
  out << "D:\n  src: [key, value, score, text]\n";
  out << "D.src:\n  protocol: inline\n  format: csv\n  data: \"" << payload
      << "\"\n";
  out << "F:\n";
  for (int b = 0; b < kBranches; ++b) {
    for (int d = 0; d < kDepth; ++d) {
      std::string input =
          d == 0 ? "src" : "b" + std::to_string(b) + "_" + std::to_string(d - 1);
      out << "  D.b" << b << "_" << d << ": D." << input << " | T.t" << b
          << "_" << d << "\n";
    }
  }
  out << "T:\n";
  for (int b = 0; b < kBranches; ++b) {
    for (int d = 0; d < kDepth; ++d) {
      out << "  t" << b << "_" << d << ":\n    type: map\n"
          << "    operator: expression\n    expression: 'value + " << d
          << "'\n    output: v" << b << "_" << d << "\n";
    }
  }
  return out.str();
}

double MedianOfRuns(const std::function<double()>& run, int n = 3) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) times.push_back(run());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  std::cout << "=== Incremental re-execution vs full re-run ===\n"
            << "(diamond DAG: " << kBranches << " branches x " << kDepth
            << " chained flows over a 40k-row source)\n\n";
  TablePtr source = GenerateBenchTable(40000, 64, 5);
  std::string payload = WriteCsvString(*source);
  auto file = ParseFlowFile(DiamondFlowFile(payload), "diamond");
  if (!file.ok()) {
    std::cerr << file.status() << "\n";
    return EXIT_FAILURE;
  }
  auto plan = CompileFlowFile(*file);
  if (!plan.ok()) {
    std::cerr << plan.status() << "\n";
    return EXIT_FAILURE;
  }

  DataStore store;
  Executor executor;

  double full_ms = MedianOfRuns([&] {
    store.Clear();
    auto stats = executor.Execute(*plan, &store);
    return stats.ok() ? stats->wall_ms : -1.0;
  });
  std::cout << std::fixed << std::setprecision(2);
  std::cout << "full run: " << kBranches * kDepth << " flows, " << full_ms
            << " ms\n\n";
  benchjson::EmitBenchMillis("incremental/full_run", "{}", full_ms);
  std::cout << std::left << std::setw(30) << "dirty node" << std::setw(14)
            << "flows rerun" << std::setw(14) << "flows skipped"
            << std::setw(12) << "wall ms" << "speedup vs full\n";
  std::cout << std::string(80, '-') << "\n";

  // Warm store for incremental runs.
  store.Clear();
  (void)executor.Execute(*plan, &store);

  for (int depth = 0; depth <= kDepth; ++depth) {
    std::string dirty =
        depth == 0 ? "src" : "b0_" + std::to_string(depth - 1);
    ExecutionStats last;
    double ms = MedianOfRuns([&] {
      auto stats = executor.ExecuteIncremental(*plan, &store, {dirty});
      if (stats.ok()) last = *stats;
      return stats.ok() ? stats->wall_ms : -1.0;
    });
    std::cout << std::left << std::setw(30) << dirty << std::setw(14)
              << last.flows_executed << std::setw(14) << last.flows_skipped
              << std::setw(12) << ms << (full_ms / std::max(0.001, ms))
              << "x\n";
    benchjson::EmitBenchMillis(
        "incremental/dirty_" + dirty,
        "{\"flows_rerun\":" + std::to_string(last.flows_executed) + "}", ms);
  }

  std::cout << "\nshape check: editing deeper nodes re-runs strictly fewer "
               "flows and gets strictly cheaper (source edit re-runs all "
            << kBranches * kDepth << ").\n";

  // --- streaming appends -----------------------------------------------
  // The append path (Executor::ExecuteAppend) pushes a small typed batch
  // through every flow's delta kernel instead of re-running anything over
  // the full inputs. Latency must track the batch size, not the base
  // size: per-append cost stays flat while the dirty re-run above pays
  // the whole DAG every time.
  std::cout << "\n=== Streaming appends (delta maintenance) ===\n";
  constexpr int kAppends = 200;
  constexpr size_t kBatchRows = 64;
  IncrementalState state;
  // Batch i replays source rows [i * kBatchRows, (i + 1) * kBatchRows).
  auto replay_rows = [&](int i) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(kBatchRows);
    for (size_t r = 0; r < kBatchRows; ++r) {
      size_t src_row =
          (static_cast<size_t>(i) * kBatchRows + r) % source->num_rows();
      std::vector<Value> row;
      row.reserve(source->num_columns());
      for (size_t c = 0; c < source->num_columns(); ++c) {
        row.push_back(source->at(src_row, c));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };
  std::vector<double> append_ms;
  append_ms.reserve(kAppends);
  for (int i = 0; i < kAppends; ++i) {
    auto base = store.Get("src");
    if (!base.ok()) {
      std::cerr << base.status() << "\n";
      return EXIT_FAILURE;
    }
    auto batch = MakeAppendBatch(**base, replay_rows(i));
    if (!batch.ok()) {
      std::cerr << batch.status() << "\n";
      return EXIT_FAILURE;
    }
    auto start = std::chrono::steady_clock::now();
    auto outcome = executor.ExecuteAppend(*plan, &store, "src", *batch, &state);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!outcome.ok()) {
      std::cerr << outcome.status() << "\n";
      return EXIT_FAILURE;
    }
    append_ms.push_back(ms);
  }
  std::sort(append_ms.begin(), append_ms.end());
  double append_p50 = append_ms[append_ms.size() / 2];
  double append_p99 = append_ms[(append_ms.size() * 99) / 100];

  // Baseline: the same write absorbed the blunt way — mark the source
  // dirty and re-run everything downstream.
  double dirty_ms = MedianOfRuns([&] {
    auto stats = executor.ExecuteIncremental(*plan, &store, {"src"});
    return stats.ok() ? stats->wall_ms : -1.0;
  });

  const std::string append_params = "{\"batch_rows\":" +
                                    std::to_string(kBatchRows) +
                                    ",\"appends\":" + std::to_string(kAppends) +
                                    "}";
  std::cout << kAppends << " appends of " << kBatchRows
            << " rows through all " << kBranches * kDepth << " flows\n"
            << "  append p50: " << append_p50 << " ms\n"
            << "  append p99: " << append_p99 << " ms\n"
            << "  dirty re-run: " << dirty_ms << " ms  ("
            << (dirty_ms / std::max(0.001, append_p99))
            << "x the append p99)\n";
  benchjson::EmitBenchMillis("streaming/append_p50_ms", append_params,
                             append_p50, static_cast<double>(kBatchRows));
  benchjson::EmitBenchMillis("streaming/append_p99_ms", append_params,
                             append_p99);
  benchjson::EmitBenchMillis("streaming/dirty_rerun_ms", "{}", dirty_ms);

  // The batches above replay source rows, so none brings a new string.
  // Real appends do (new tweet bodies): time the batch build too, on
  // batches whose `text` cells are all new, so a dictionary cost that
  // grows with the accumulated dictionary rather than the batch shows.
  constexpr int kFreshAppends = 100;
  std::vector<double> fresh_ms;
  fresh_ms.reserve(kFreshAppends);
  for (int i = 0; i < kFreshAppends; ++i) {
    auto base = store.Get("src");
    if (!base.ok()) {
      std::cerr << base.status() << "\n";
      return EXIT_FAILURE;
    }
    std::vector<std::vector<Value>> rows = replay_rows(i);
    for (size_t r = 0; r < rows.size(); ++r) {
      rows[r].back() =  // `text` is the last column
          Value("fresh post " + std::to_string(i) + "_" + std::to_string(r));
    }
    auto start = std::chrono::steady_clock::now();
    auto batch = MakeAppendBatch(**base, std::move(rows));
    if (!batch.ok()) {
      std::cerr << batch.status() << "\n";
      return EXIT_FAILURE;
    }
    auto outcome = executor.ExecuteAppend(*plan, &store, "src", *batch, &state);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!outcome.ok()) {
      std::cerr << outcome.status() << "\n";
      return EXIT_FAILURE;
    }
    fresh_ms.push_back(ms);
  }
  std::sort(fresh_ms.begin(), fresh_ms.end());
  double fresh_p50 = fresh_ms[fresh_ms.size() / 2];
  std::cout << kFreshAppends << " appends of " << kBatchRows
            << " rows with new text strings (batch build + delta flows)\n"
            << "  append p50: " << fresh_p50 << " ms\n";
  benchjson::EmitBenchMillis(
      "streaming/append_fresh_strings_p50_ms",
      "{\"batch_rows\":" + std::to_string(kBatchRows) +
          ",\"appends\":" + std::to_string(kFreshAppends) + "}",
      fresh_p50, static_cast<double>(kBatchRows));
  return EXIT_SUCCESS;
}
