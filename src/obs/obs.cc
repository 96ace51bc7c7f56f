#include "obs/obs.h"

#include <cstdlib>
#include <cstring>

namespace sdea::obs {
namespace {

bool EnabledFromEnv() {
  const char* value = std::getenv("SDEA_OBS_ENABLED");
  if (value == nullptr) return true;
  return !(std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0 ||
           std::strcmp(value, "off") == 0 || std::strcmp(value, "no") == 0);
}

}  // namespace

namespace internal {
std::atomic<bool> g_enabled{EnabledFromEnv()};
}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace sdea::obs
