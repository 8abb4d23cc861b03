// Serialisable classical optimisers.
//
// The optimiser's internal state (Adam's first/second moments, momentum
// velocity, step counter) is part of the hybrid training state: dropping
// it on restore silently changes the optimisation trajectory, so every
// optimiser here serialises its complete state bit-exactly.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace qnn::qnn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// In-place parameter update from a gradient (minimisation direction).
  /// grad.size() must equal params.size().
  virtual void step(std::span<double> params,
                    std::span<const double> grad) = 0;

  /// Stable identifier ("sgd", "momentum", "adam"); stored in checkpoints
  /// and verified on restore.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Complete internal state, bit-exact.
  [[nodiscard]] virtual util::Bytes serialize() const = 0;

  /// Restores serialize() output. Throws std::runtime_error on malformed
  /// or mismatched payloads.
  virtual void deserialize(util::ByteSpan data) = 0;

  /// Bytes of live internal state (drives the T1 inventory).
  [[nodiscard]] virtual std::size_t state_bytes() const = 0;
};

/// Plain gradient descent; stateless apart from the learning rate.
class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(double lr) : lr_(lr) {}

  void step(std::span<double> params, std::span<const double> grad) override;
  [[nodiscard]] std::string name() const override { return "sgd"; }
  [[nodiscard]] util::Bytes serialize() const override;
  void deserialize(util::ByteSpan data) override;
  [[nodiscard]] std::size_t state_bytes() const override { return sizeof(lr_); }

 private:
  double lr_;
};

/// Heavy-ball momentum.
class MomentumOptimizer final : public Optimizer {
 public:
  MomentumOptimizer(double lr, double momentum)
      : lr_(lr), momentum_(momentum) {}

  void step(std::span<double> params, std::span<const double> grad) override;
  [[nodiscard]] std::string name() const override { return "momentum"; }
  [[nodiscard]] util::Bytes serialize() const override;
  void deserialize(util::ByteSpan data) override;
  [[nodiscard]] std::size_t state_bytes() const override {
    return sizeof(double) * (2 + velocity_.size());
  }

 private:
  double lr_;
  double momentum_;
  std::vector<double> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void step(std::span<double> params, std::span<const double> grad) override;
  [[nodiscard]] std::string name() const override { return "adam"; }
  [[nodiscard]] util::Bytes serialize() const override;
  void deserialize(util::ByteSpan data) override;
  [[nodiscard]] std::size_t state_bytes() const override {
    return sizeof(double) * (4 + m_.size() + v_.size()) + sizeof(t_);
  }

  [[nodiscard]] std::uint64_t steps_taken() const { return t_; }
  [[nodiscard]] std::span<const double> first_moment() const { return m_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::uint64_t t_ = 0;
  std::vector<double> m_;
  std::vector<double> v_;
};

/// Factory from a stable name; used when restoring checkpoints.
/// Hyper-parameters are restored from the serialised payload afterwards.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name);

}  // namespace qnn::qnn
