#include "nn/serialization.h"

#include <cstring>
#include <map>

#include "base/fileio.h"

namespace sdea::nn {
namespace {

constexpr std::string_view kMagic = "SDEACKP1";

/// Parses `blob` and checks it against `params` without touching them:
/// every parameter must have an entry with its exact shape. On success
/// `payloads[k]` views the float32 data for params[k].
Status ParseParameters(const std::vector<Parameter*>& params,
                       std::string_view blob,
                       std::vector<std::string_view>* payloads) {
  wire::Reader r(blob, "parameter checkpoint");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  // Each entry costs at least 16 bytes (name length + rank).
  uint64_t count = 0;
  SDEA_RETURN_IF_ERROR(r.Count(16, &count));
  struct Entry {
    std::vector<int64_t> shape;
    std::string_view data;
  };
  std::map<std::string_view, Entry> entries;
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    Entry e;
    uint64_t elements = 0;
    SDEA_RETURN_IF_ERROR(r.Str64(&name));
    SDEA_RETURN_IF_ERROR(r.Shape(sizeof(float), &e.shape, &elements));
    SDEA_RETURN_IF_ERROR(r.Bytes(elements * sizeof(float), &e.data));
    entries[name] = std::move(e);
  }
  SDEA_RETURN_IF_ERROR(r.Finish());
  payloads->clear();
  for (Parameter* p : params) {
    auto it = entries.find(p->name);
    if (it == entries.end()) {
      return Status::InvalidArgument(
          "checkpoint has no entry for parameter '" + p->name +
          "' (unknown or missing name); no parameters were modified");
    }
    if (it->second.shape != p->value.shape()) {
      return Status::InvalidArgument(
          "checkpoint shape mismatch for parameter '" + p->name +
          "'; no parameters were modified");
    }
    payloads->push_back(it->second.data);
  }
  return Status::Ok();
}

}  // namespace

void AppendTensor(wire::Writer* w, const Tensor& t) {
  w->U64(t.shape().size());
  for (int64_t d : t.shape()) w->U64(static_cast<uint64_t>(d));
  w->Bytes(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

Status ReadTensor(wire::Reader* r, Tensor* t) {
  std::vector<int64_t> shape;
  uint64_t elements = 0;
  std::string_view data;
  SDEA_RETURN_IF_ERROR(r->Shape(sizeof(float), &shape, &elements));
  SDEA_RETURN_IF_ERROR(r->Bytes(elements * sizeof(float), &data));
  Tensor out(std::move(shape));
  // A zero-element tensor (any dim 0) has a null data(); memcpy forbids
  // null arguments even for 0 bytes.
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
  *t = std::move(out);
  return Status::Ok();
}

std::string SerializeParameters(Module* module) {
  std::vector<Parameter*> params = module->Parameters();
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  w.U64(params.size());
  for (Parameter* p : params) {
    w.Str64(p->name);
    AppendTensor(&w, p->value);
  }
  return out;
}

Status CheckParameters(Module* module, std::string_view blob) {
  std::vector<std::string_view> payloads;
  return ParseParameters(module->Parameters(), blob, &payloads);
}

Status DeserializeParameters(Module* module, std::string_view blob) {
  // Parse and validate everything first, then copy: a bad checkpoint
  // cannot leave the module half-loaded.
  const std::vector<Parameter*> params = module->Parameters();
  std::vector<std::string_view> payloads;
  SDEA_RETURN_IF_ERROR(ParseParameters(params, blob, &payloads));
  for (size_t k = 0; k < params.size(); ++k) {
    if (!payloads[k].empty()) {
      std::memcpy(params[k]->value.data(), payloads[k].data(),
                  payloads[k].size());
    }
  }
  return Status::Ok();
}

Status SaveCheckpoint(Module* module, const std::string& path) {
  return WriteStringToFileAtomic(path, SerializeParameters(module));
}

Status LoadCheckpoint(Module* module, const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::string in, ReadFileToString(path));
  Status s = DeserializeParameters(module, in);
  if (!s.ok()) {
    return Status(s.code(), s.message() + " (checkpoint: " + path + ")");
  }
  return Status::Ok();
}

}  // namespace sdea::nn
