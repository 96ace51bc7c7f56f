#ifndef SDEA_TESTING_FAULTS_H_
#define SDEA_TESTING_FAULTS_H_

#include <cstdint>
#include <string>

#include "base/fault_injection.h"

namespace sdea::testing {

/// Recipe for a deterministic fault: which operation to hit, on which
/// matching occurrence, and what kind of failure to simulate.
struct FaultPlan {
  /// Operation class the plan applies to; other operations pass through.
  FaultInjector::FileOp op = FaultInjector::FileOp::kWrite;

  /// Number of matching operations allowed to succeed before the fault
  /// fires (0 = the very first matching op fails).
  int64_t trigger_after = 0;

  /// When >= 0 (writes only), the failing write persists this many leading
  /// bytes first — a torn file, as a crash or ENOSPC would leave.
  int64_t short_write_bytes = -1;

  /// When true, every matching op from the trigger onward fails (a dead
  /// disk); when false, only the one op fails and the rest succeed.
  bool repeat = false;

  /// When non-empty, only operations whose path contains this substring
  /// count as matching — lets a test break checkpoint writes while the
  /// rest of the filesystem stays healthy.
  std::string path_substring = {};
};

/// Fault injector driven by one FaultPlan. Deterministic by construction:
/// the i-th matching operation fails, independent of timing. Counts what it
/// saw so tests can assert the fault actually fired.
class CountdownFaultInjector : public FaultInjector {
 public:
  explicit CountdownFaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  FaultAction OnFileOp(FileOp op, const std::string& path) override;

  /// Operations that matched the plan's op/path filter so far.
  int64_t matching_ops() const { return matching_ops_; }

  /// Faults actually injected so far.
  int64_t faults_injected() const { return faults_injected_; }

 private:
  FaultPlan plan_;
  int64_t matching_ops_ = 0;
  int64_t faults_injected_ = 0;
};

}  // namespace sdea::testing

#endif  // SDEA_TESTING_FAULTS_H_
