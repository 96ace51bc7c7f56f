#ifndef SDEA_TRAIN_SERVE_BRIDGE_H_
#define SDEA_TRAIN_SERVE_BRIDGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/vector_index.h"
#include "serve/snapshot.h"
#include "tensor/tensor.h"

namespace sdea::train {

struct PublishOptions {
  /// When non-empty, the store is also saved to this path (atomically) so a
  /// separately running server can LoadAndSwap the same artifact.
  std::string artifact_path;

  /// Build the IVF index before publishing, off the serving path.
  bool build_index = true;
  core::IvfOptions index_options;
};

/// The train→serve hand-off: wraps freshly trained embeddings into an
/// EmbeddingStore, optionally persists it and builds its ANN index, then
/// hot-swaps it into `manager` with zero downtime for in-flight queries.
/// Returns the published snapshot version. Typically called from a
/// Trainer's on_epoch callback or once after Run().
Result<uint64_t> PublishEmbeddings(std::vector<std::string> names,
                                   Tensor embeddings,
                                   serve::SnapshotManager* manager,
                                   const PublishOptions& options = {});

}  // namespace sdea::train

#endif  // SDEA_TRAIN_SERVE_BRIDGE_H_
