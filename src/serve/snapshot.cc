#include "serve/snapshot.h"

#include <utility>

namespace sdea::serve {

std::shared_ptr<const ServingSnapshot> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotManager::Swap(core::EmbeddingStore store) {
  auto snap = std::make_shared<ServingSnapshot>();
  snap->store = std::move(store);
  std::lock_guard<std::mutex> lock(mu_);
  snap->version = ++last_version_;
  current_ = std::move(snap);
  return last_version_;
}

uint64_t SnapshotManager::SwapWithKg(core::EmbeddingStore store,
                                     kg::KgSnapshot kg) {
  auto snap = std::make_shared<ServingSnapshot>();
  snap->store = std::move(store);
  snap->kg = std::move(kg);
  std::lock_guard<std::mutex> lock(mu_);
  snap->version = ++last_version_;
  current_ = std::move(snap);
  return last_version_;
}

Result<uint64_t> SnapshotManager::LoadAndSwap(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(core::EmbeddingStore store,
                        core::EmbeddingStore::Load(path));
  return Swap(std::move(store));
}

uint64_t SnapshotManager::SwapQuantized(store::QuantizedStore qstore) {
  auto snap = std::make_shared<ServingSnapshot>();
  snap->quantized =
      std::make_unique<const store::QuantizedStore>(std::move(qstore));
  std::lock_guard<std::mutex> lock(mu_);
  snap->version = ++last_version_;
  current_ = std::move(snap);
  return last_version_;
}

Result<uint64_t> SnapshotManager::OpenQuantizedAndSwap(
    const std::string& dir) {
  SDEA_ASSIGN_OR_RETURN(store::QuantizedStore qstore,
                        store::QuantizedStore::Open(dir));
  return SwapQuantized(std::move(qstore));
}

uint64_t SnapshotManager::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_version_;
}

}  // namespace sdea::serve
