#include "qnn/gradient.hpp"

#include <cmath>
#include <stdexcept>

namespace qnn::qnn {

std::size_t gradient_evaluations(GradientMethod method,
                                 std::size_t num_params) {
  switch (method) {
    case GradientMethod::kParamShift:
    case GradientMethod::kFiniteDiff:
      return 2 * num_params;
    case GradientMethod::kSpsa:
      return 2;
  }
  return 0;
}

namespace {

std::vector<double> shift_based_gradient(const LossFn& loss,
                                         std::span<const double> params,
                                         double shift, double denom) {
  std::vector<double> grad(params.size());
  std::vector<double> work(params.begin(), params.end());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double original = work[i];
    work[i] = original + shift;
    const double plus = loss(work);
    work[i] = original - shift;
    const double minus = loss(work);
    work[i] = original;
    grad[i] = (plus - minus) / denom;
  }
  return grad;
}

}  // namespace

std::vector<double> estimate_gradient(const LossFn& loss,
                                      std::span<const double> params,
                                      const GradientOptions& options,
                                      util::Rng& rng) {
  if (params.empty()) {
    return {};
  }
  switch (options.method) {
    case GradientMethod::kParamShift:
      // Shift pi/2, denominator 2: exact for +-1/2-eigenvalue generators.
      return shift_based_gradient(loss, params, M_PI / 2, 2.0);
    case GradientMethod::kFiniteDiff:
      return shift_based_gradient(loss, params, options.fd_eps,
                                  2.0 * options.fd_eps);
    case GradientMethod::kSpsa: {
      // Rademacher perturbation; one symmetric difference estimates every
      // component simultaneously.
      std::vector<double> delta(params.size());
      for (double& d : delta) {
        d = rng.uniform() < 0.5 ? -1.0 : 1.0;
      }
      std::vector<double> work(params.begin(), params.end());
      for (std::size_t i = 0; i < params.size(); ++i) {
        work[i] += options.spsa_c * delta[i];
      }
      const double plus = loss(work);
      for (std::size_t i = 0; i < params.size(); ++i) {
        work[i] = params[i] - options.spsa_c * delta[i];
      }
      const double minus = loss(work);
      std::vector<double> grad(params.size());
      for (std::size_t i = 0; i < params.size(); ++i) {
        grad[i] = (plus - minus) / (2.0 * options.spsa_c * delta[i]);
      }
      return grad;
    }
  }
  throw std::invalid_argument("estimate_gradient: unknown method");
}

}  // namespace qnn::qnn
