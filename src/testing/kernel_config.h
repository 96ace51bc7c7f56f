#ifndef SDEA_TESTING_KERNEL_CONFIG_H_
#define SDEA_TESTING_KERNEL_CONFIG_H_

#include "tensor/kernels.h"

namespace sdea::testing {

/// Pins the process-wide kernel mode for one scope and restores the
/// previous mode on exit, so a failing test cannot leak its configuration
/// into the rest of the binary.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(tmath::KernelMode mode)
      : saved_(tmath::ActiveKernelMode()) {
    tmath::SetKernelMode(mode);
  }
  ~ScopedKernelMode() { tmath::SetKernelMode(saved_); }

  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  tmath::KernelMode saved_;
};

/// Pins the process-wide SIMD level for one scope, like ScopedKernelMode.
/// Asking for kAvx2 on a host without it is a programming error
/// (tmath::SetSimdLevel checks); callers skip that level instead.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(tmath::SimdLevel level)
      : saved_(tmath::ActiveSimdLevel()) {
    tmath::SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { tmath::SetSimdLevel(saved_); }

  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  tmath::SimdLevel saved_;
};

}  // namespace sdea::testing

#endif  // SDEA_TESTING_KERNEL_CONFIG_H_
