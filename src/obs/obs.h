#ifndef SDEA_OBS_OBS_H_
#define SDEA_OBS_OBS_H_

#include <atomic>

/// sdea::obs — the process-wide observability layer: named metrics
/// (obs/registry.h), mergeable histograms (obs/histogram.h), scoped trace
/// spans (obs/trace.h), and exporters (obs/export.h).
///
/// One kill switch, at run time: the SDEA_OBS_ENABLED environment
/// variable ("0", "false", "off", "no" disable; anything else — including
/// unset — enables), overridable with SetEnabled(). The disabled fast path
/// is one inlined relaxed atomic load per instrumentation site.
///
/// Metric *recording* through registry handles is not gated: those are the
/// same relaxed-atomic increments the serving stats always paid, and
/// monitoring counters must stay correct while tracing is off.
namespace sdea::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True when trace instrumentation should record. Inlined so disabled
/// call sites pay a single relaxed load.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime switch. Spans already open when the flag flips
/// complete with the setting they observed at entry.
void SetEnabled(bool on);

}  // namespace sdea::obs

#endif  // SDEA_OBS_OBS_H_
