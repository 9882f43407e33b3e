// The three workloads of the end-to-end benchmark. Each builds its inputs
// from the seed, drives ApiServer::Handle, checks outputs (failures go
// to `outcomes`) and fills `report`: the end-to-end metrics untraced,
// the per-layer metrics when options.trace is set. A false return means
// set-up itself failed and no result may be printed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "loops.h"

namespace perfbench {

bool RunIplBatch(const RunOptions& options, Outcomes* outcomes,
                 Report* report);
bool RunWidgetQueries(const RunOptions& options, Outcomes* outcomes,
                      Report* report);
bool RunStreamAppend(const RunOptions& options, Outcomes* outcomes,
                     Report* report);

/// Set-up repetitions whose median is setup_s.
inline constexpr int kSetupRepeats = 5;

/// Adds a user-path metric to the human-readable table.
inline void Extra(Report* report, const std::string& name, double value,
                  const std::string& unit) {
  report->extra.push_back({name, Metric{value, unit}});
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
