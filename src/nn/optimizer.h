#ifndef SDEA_NN_OPTIMIZER_H_
#define SDEA_NN_OPTIMIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "tensor/graph.h"

namespace sdea::nn {

/// Base interface for gradient-descent optimizers over a fixed parameter
/// list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void Step() = 0;

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

  /// Appends this optimizer's slot state (momentum/moment tensors, step
  /// counters — everything beyond the parameters themselves) to `out`, so a
  /// checkpointed run resumes with bitwise-identical updates.
  virtual void SerializeState(std::string* out) const = 0;

  /// Restores state from `blob`, which must be exactly one SerializeState
  /// output. All-or-nothing: InvalidArgument, with this optimizer
  /// untouched, when the blob is truncated, has trailing bytes, or does
  /// not match this optimizer's parameter count/shapes.
  virtual Status DeserializeState(std::string_view blob) = 0;

  const std::vector<Parameter*>& params() const { return params_; }

 protected:
  std::vector<Parameter*> params_;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.0f);

  void Step() override;

  void SerializeState(std::string* out) const override;
  Status DeserializeState(std::string_view blob) override;

 private:
  float lr_;
  float momentum_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  void Step() override;

  void SerializeState(std::string* out) const override;
  Status DeserializeState(std::string_view blob) override;

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace sdea::nn

#endif  // SDEA_NN_OPTIMIZER_H_
