#ifndef SDEA_NN_SERIALIZATION_H_
#define SDEA_NN_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "base/wire.h"
#include "nn/module.h"

namespace sdea::nn {

// ---- Tensor records -------------------------------------------------------
// A shape (base/wire Reader::Shape) followed by float32 data; shared by
// parameter blobs and optimizer state.

/// Appends shape + float32 data; round-trips tensors bitwise.
void AppendTensor(wire::Writer* w, const Tensor& t);

/// Reads a tensor written by AppendTensor; InvalidArgument on truncation,
/// a rank above 8, or a shape the remaining bytes cannot hold.
Status ReadTensor(wire::Reader* r, Tensor* t);

// ---- Parameter blobs ------------------------------------------------------

/// Serializes all parameters of `module` into the binary checkpoint blob:
/// magic, count, then per parameter: name, shape, float32 data.
std::string SerializeParameters(Module* module);

/// Restores parameters by name from a blob written by SerializeParameters.
/// The whole blob is validated against the module *before* any parameter is
/// touched, so a failed load never leaves the module partially overwritten:
/// a parameter name absent from the blob or present with a mismatched shape
/// yields InvalidArgument and the module keeps its previous values. Extra
/// entries in the blob are ignored (forward compatibility); bytes after
/// the last entry are not.
Status DeserializeParameters(Module* module, std::string_view blob);

/// The checks DeserializeParameters makes before it copies anything: Ok
/// exactly when DeserializeParameters(module, blob) would succeed. Leaves
/// the module untouched.
Status CheckParameters(Module* module, std::string_view blob);

/// Writes SerializeParameters(module) to a file at `path` atomically
/// (temp file + rename): a crash mid-save leaves any previous checkpoint
/// intact, never a torn one.
Status SaveCheckpoint(Module* module, const std::string& path);

/// Reads `path` and applies DeserializeParameters (same strictness).
Status LoadCheckpoint(Module* module, const std::string& path);

}  // namespace sdea::nn

#endif  // SDEA_NN_SERIALIZATION_H_
