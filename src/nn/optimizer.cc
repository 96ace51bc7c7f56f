#include "nn/optimizer.h"

#include <cmath>

#include "nn/serialization.h"

namespace sdea::nn {
namespace {

// Shared (de)serialization of one slot-tensor list (velocity, m, v): a
// count followed by the tensors. Count and shapes must match `current`;
// the result lands in `loaded`, so a bad blob leaves `current` untouched.
void AppendSlots(wire::Writer* w, const std::vector<Tensor>& slots) {
  w->U64(slots.size());
  for (const Tensor& t : slots) AppendTensor(w, t);
}

Status ReadSlots(wire::Reader* r, const std::vector<Tensor>& current,
                 std::vector<Tensor>* loaded) {
  uint64_t count = 0;
  SDEA_RETURN_IF_ERROR(r->U64(&count));
  if (count != current.size()) {
    return Status::InvalidArgument("optimizer state: slot count mismatch");
  }
  loaded->resize(current.size());
  for (size_t k = 0; k < current.size(); ++k) {
    SDEA_RETURN_IF_ERROR(ReadTensor(r, &(*loaded)[k]));
    if ((*loaded)[k].shape() != current[k].shape()) {
      return Status::InvalidArgument("optimizer state: slot shape mismatch");
    }
  }
  return Status::Ok();
}

}  // namespace

void Optimizer::ZeroGrad() {
  for (Parameter* p : params_) p->ZeroGrad();
}

float Optimizer::ClipGradNorm(float max_norm) {
  double total = 0.0;
  for (Parameter* p : params_) {
    for (int64_t i = 0; i < p->grad.size(); ++i) {
      total += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params_) {
      for (int64_t i = 0; i < p->grad.size(); ++i) p->grad[i] *= scale;
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ > 0.0f) {
    velocity_.reserve(params_.size());
    for (Parameter* p : params_) velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::Step() {
  for (size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    if (momentum_ > 0.0f) {
      Tensor& vel = velocity_[k];
      for (int64_t i = 0; i < p->value.size(); ++i) {
        vel[i] = momentum_ * vel[i] + p->grad[i];
        p->value[i] -= lr_ * vel[i];
      }
    } else {
      for (int64_t i = 0; i < p->value.size(); ++i) {
        p->value[i] -= lr_ * p->grad[i];
      }
    }
  }
}

void Sgd::SerializeState(std::string* out) const {
  wire::Writer w(out);
  AppendSlots(&w, velocity_);
}

Status Sgd::DeserializeState(std::string_view blob) {
  wire::Reader r(blob, "optimizer state");
  std::vector<Tensor> velocity;
  SDEA_RETURN_IF_ERROR(ReadSlots(&r, velocity_, &velocity));
  SDEA_RETURN_IF_ERROR(r.Finish());
  velocity_ = std::move(velocity);
  return Status::Ok();
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    for (int64_t i = 0; i < p->value.size(); ++i) {
      const float g = p->grad[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      float update = mhat / (std::sqrt(vhat) + eps_);
      if (weight_decay_ > 0.0f) update += weight_decay_ * p->value[i];
      p->value[i] -= lr_ * update;
    }
  }
}

void Adam::SerializeState(std::string* out) const {
  wire::Writer w(out);
  w.U64(static_cast<uint64_t>(t_));
  AppendSlots(&w, m_);
  AppendSlots(&w, v_);
}

Status Adam::DeserializeState(std::string_view blob) {
  wire::Reader r(blob, "optimizer state");
  int64_t t = 0;
  std::vector<Tensor> m, v;
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&t));
  SDEA_RETURN_IF_ERROR(ReadSlots(&r, m_, &m));
  SDEA_RETURN_IF_ERROR(ReadSlots(&r, v_, &v));
  SDEA_RETURN_IF_ERROR(r.Finish());
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
  return Status::Ok();
}

}  // namespace sdea::nn
