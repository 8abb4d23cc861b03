// Gradient estimators for variational circuits.
//
// kParamShift is exact for circuits where every trainable slot feeds
// rotation gates exp(-i theta P / 2) exactly once with coefficient 1 (the
// hardware-efficient and strongly-entangling ansaetze). kFiniteDiff is the
// general fallback (shared/scaled slots, e.g. QAOA). kSpsa estimates the
// whole gradient from two evaluations, the cheap choice for noisy losses.
//
// Every estimator evaluates the loss in a *fixed order*, so the RNG draws
// it consumes are reproducible — a prerequisite for bit-exact resume.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace qnn::qnn {

enum class GradientMethod : std::uint8_t {
  kParamShift = 0,
  kFiniteDiff = 1,
  kSpsa = 2,
};

/// A bound loss evaluation: params -> scalar loss.
using LossFn = std::function<double(std::span<const double>)>;

struct GradientOptions {
  GradientMethod method = GradientMethod::kParamShift;
  double fd_eps = 1e-6;    ///< finite-difference half-step
  double spsa_c = 0.1;     ///< SPSA perturbation magnitude
};

/// Number of loss evaluations one gradient costs (drives recovery-cost
/// models): param-shift 2P, finite-diff 2P, SPSA 2.
std::size_t gradient_evaluations(GradientMethod method,
                                 std::size_t num_params);

/// Estimates d loss / d params. `rng` is consumed only by kSpsa (its
/// random perturbation directions).
std::vector<double> estimate_gradient(const LossFn& loss,
                                      std::span<const double> params,
                                      const GradientOptions& options,
                                      util::Rng& rng);

}  // namespace qnn::qnn
