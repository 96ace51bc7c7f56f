#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// The paper pipeline run offline on a dangling-heavy pair, then served.
void RunAlignBatch(const RunOptions& options, Report* report);

/// Open-loop traffic against an int8 quantized snapshot with abstention.
void RunServeQuantized(const RunOptions& options, Report* report);

/// Streamed KG increments re-aligned and republished under live reads.
void RunStreamIncr(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
