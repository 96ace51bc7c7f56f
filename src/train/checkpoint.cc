#include "train/checkpoint.h"

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::train {
namespace {

constexpr std::string_view kMagic = "SDEATRN1";

}  // namespace

CheckpointManager::CheckpointManager(std::string path)
    : path_(std::move(path)) {}

bool CheckpointManager::Exists() const { return FileExists(path_); }

std::string CheckpointManager::Encode(const TrainerCheckpoint& ckpt) {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  w.U64(static_cast<uint64_t>(ckpt.next_epoch));
  w.U64(static_cast<uint64_t>(ckpt.epochs_run));
  w.F64(ckpt.best_metric);
  w.U64(static_cast<uint64_t>(ckpt.since_best));
  w.U64(ckpt.metric_history.size());
  for (double m : ckpt.metric_history) w.F64(m);
  w.U64(ckpt.order.size());
  for (uint64_t o : ckpt.order) w.U64(o);
  for (uint64_t s : ckpt.rng.s) w.U64(s);
  w.U64(ckpt.rng.has_cached_normal ? 1 : 0);
  w.F64(ckpt.rng.cached_normal);
  w.Str64(ckpt.params);
  w.Str64(ckpt.best_params);
  w.Str64(ckpt.optimizer);
  w.U64(ckpt.finished ? 1 : 0);
  return out;
}

Result<TrainerCheckpoint> CheckpointManager::Decode(std::string_view blob) {
  wire::Reader r(blob, "trainer checkpoint");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  TrainerCheckpoint ckpt;
  // The epoch counters drive the resume loop, so a corrupt value past
  // INT64_MAX must fail here rather than come back negative.
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&ckpt.next_epoch));
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&ckpt.epochs_run));
  SDEA_RETURN_IF_ERROR(r.F64(&ckpt.best_metric));
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&ckpt.since_best));
  uint64_t n = 0;
  SDEA_RETURN_IF_ERROR(r.Count(8, &n));
  ckpt.metric_history.resize(n);
  for (double& m : ckpt.metric_history) SDEA_RETURN_IF_ERROR(r.F64(&m));
  SDEA_RETURN_IF_ERROR(r.Count(8, &n));
  ckpt.order.resize(n);
  for (uint64_t& o : ckpt.order) SDEA_RETURN_IF_ERROR(r.U64(&o));
  for (uint64_t& s : ckpt.rng.s) SDEA_RETURN_IF_ERROR(r.U64(&s));
  uint64_t flag = 0;
  SDEA_RETURN_IF_ERROR(r.U64(&flag));
  ckpt.rng.has_cached_normal = (flag != 0);
  SDEA_RETURN_IF_ERROR(r.F64(&ckpt.rng.cached_normal));
  SDEA_RETURN_IF_ERROR(r.Str64(&ckpt.params));
  SDEA_RETURN_IF_ERROR(r.Str64(&ckpt.best_params));
  SDEA_RETURN_IF_ERROR(r.Str64(&ckpt.optimizer));
  SDEA_RETURN_IF_ERROR(r.U64(&flag));
  ckpt.finished = (flag != 0);
  SDEA_RETURN_IF_ERROR(r.Finish());
  return ckpt;
}

Status CheckpointManager::Save(const TrainerCheckpoint& ckpt) const {
  return WriteStringToFileAtomic(path_, Encode(ckpt));
}

Result<TrainerCheckpoint> CheckpointManager::Load() const {
  SDEA_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(path_));
  auto decoded = Decode(blob);
  if (!decoded.ok()) {
    return Status::InvalidArgument(decoded.status().message() +
                                   " (checkpoint: " + path_ + ")");
  }
  return decoded;
}

}  // namespace sdea::train
