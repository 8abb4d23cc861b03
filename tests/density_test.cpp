// Tests for the density-matrix simulator and its agreement with both the
// pure-state simulator (noiseless) and the trajectory noise sampler
// (noisy, in expectation).
#include <gtest/gtest.h>

#include <cmath>

#include "qnn/ansatz.hpp"
#include "sim/density_matrix.hpp"
#include "sim/gates.hpp"
#include "sim/noise.hpp"
#include "sim/pauli.hpp"

namespace qnn::sim {
namespace {

constexpr double kTol = 1e-12;

TEST(DensityMatrix, InitialStateIsPureZero) {
  DensityMatrix rho(2);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(std::abs(rho.element(0, 0) - cplx{1.0, 0.0}), 0.0, kTol);
}

TEST(DensityMatrix, TooManyQubitsRejected) {
  EXPECT_THROW(DensityMatrix(13), std::invalid_argument);
}

TEST(DensityMatrix, FromStateMatchesOuterProduct) {
  StateVector psi(1);
  psi.apply_1q(gates::H(), 0);
  const DensityMatrix rho = DensityMatrix::from_state(psi);
  EXPECT_NEAR(std::abs(rho.element(0, 1) - cplx{0.5, 0.0}), 0.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(rho.fidelity(psi), 1.0, kTol);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStateVector) {
  const Circuit c = qnn::random_circuit(4, 30, 321);
  const StateVector psi = c.run({});
  DensityMatrix rho(4);
  rho.apply(c, {});
  EXPECT_NEAR(rho.fidelity(psi), 1.0, 1e-10);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
  EXPECT_NEAR(rho.max_abs_diff(DensityMatrix::from_state(psi)), 0.0, 1e-10);
}

TEST(DensityMatrix, ExpectationMatchesStateVectorPath) {
  const Circuit c = qnn::random_circuit(3, 25, 55);
  const StateVector psi = c.run({});
  DensityMatrix rho(3);
  rho.apply(c, {});
  const Observable h = transverse_field_ising(3, 1.0, 0.7);
  EXPECT_NEAR(rho.expectation(h), h.expectation(psi), 1e-10);
  const Observable parity = parity_observable(3);
  EXPECT_NEAR(rho.expectation(parity), parity.expectation(psi), 1e-10);
}

TEST(DensityMatrix, ProbabilityOneMatchesStateVector) {
  const Circuit c = qnn::random_circuit(3, 20, 77);
  const StateVector psi = c.run({});
  DensityMatrix rho(3);
  rho.apply(c, {});
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_NEAR(rho.probability_one(q), psi.probability_one(q), 1e-10);
  }
}

TEST(DensityMatrix, ValidationErrors) {
  DensityMatrix rho(2);
  EXPECT_THROW(rho.apply_1q(gates::X(), 2), std::out_of_range);
  EXPECT_THROW(rho.apply_2q(gates::CX(), 0, 0), std::invalid_argument);
  EXPECT_THROW((void)rho.expectation(Observable(3)), std::invalid_argument);
  EXPECT_THROW((void)rho.fidelity(StateVector(3)), std::invalid_argument);
  EXPECT_THROW(rho.mix_with(DensityMatrix(1), 0.5), std::invalid_argument);
  EXPECT_THROW(rho.mix_with(DensityMatrix(2), 1.5), std::invalid_argument);
  // Non-trace-preserving Kraus set rejected (0.5*I alone sums to I/4).
  const Mat2 half_identity{0.5, 0.0, 0.0, 0.5};
  EXPECT_THROW(rho.apply_channel_1q({half_identity}, 0),
               std::invalid_argument);
  // But a partial set summing wrong also rejected.
  EXPECT_THROW(rho.apply_channel_1q(channels::bit_flip(1.5), 0),
               std::invalid_argument);
}

// ---------- channels ----------

TEST(Channels, FullDepolarizingGivesMaximallyMixedQubit) {
  DensityMatrix rho(1);
  rho.apply_channel_1q(channels::depolarizing(0.75), 0);
  // p=3/4 uniform-Pauli channel is the fully depolarising channel:
  // rho -> I/2 for any input.
  EXPECT_NEAR(std::abs(rho.element(0, 0) - cplx{0.5, 0.0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(rho.element(1, 1) - cplx{0.5, 0.0}), 0.0, kTol);
  EXPECT_NEAR(rho.purity(), 0.5, kTol);
}

TEST(Channels, AmplitudeDampingFixesGroundState) {
  DensityMatrix rho(1);  // already |0><0|
  rho.apply_channel_1q(channels::amplitude_damping(0.3), 0);
  EXPECT_NEAR(std::abs(rho.element(0, 0) - cplx{1.0, 0.0}), 0.0, kTol);
}

TEST(Channels, AmplitudeDampingDecaysExcitedState) {
  DensityMatrix rho(1);
  rho.apply_1q(gates::X(), 0);  // |1><1|
  rho.apply_channel_1q(channels::amplitude_damping(0.3), 0);
  EXPECT_NEAR(rho.probability_one(0), 0.7, kTol);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
}

TEST(Channels, PhaseFlipKillsCoherence) {
  DensityMatrix rho(1);
  rho.apply_1q(gates::H(), 0);
  rho.apply_channel_1q(channels::phase_flip(0.5), 0);
  // p=1/2 phase flip fully dephases: off-diagonals vanish.
  EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, kTol);
  EXPECT_NEAR(rho.probability_one(0), 0.5, kTol);
}

TEST(Channels, TracePreservedUnderAllChannels) {
  const Circuit prep = qnn::random_circuit(2, 10, 11);
  for (double p : {0.0, 0.1, 0.5, 1.0}) {
    DensityMatrix rho(2);
    rho.apply(prep, {});
    rho.apply_channel_1q(channels::depolarizing(std::min(p, 0.75)), 0);
    rho.apply_channel_1q(channels::amplitude_damping(p), 1);
    rho.apply_channel_1q(channels::bit_flip(p), 0);
    rho.apply_channel_1q(channels::phase_flip(p), 1);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10) << "p=" << p;
  }
}

TEST(DensityMatrix, MixWithBlendsStates) {
  DensityMatrix zero(1);
  DensityMatrix one(1);
  one.apply_1q(gates::X(), 0);
  zero.mix_with(one, 0.25);
  EXPECT_NEAR(zero.probability_one(0), 0.25, kTol);
  EXPECT_NEAR(zero.trace(), 1.0, kTol);
  EXPECT_LT(zero.purity(), 1.0);
}

// ---------- the validation property: trajectories -> density matrix ----

class TrajectoryConvergence : public ::testing::TestWithParam<int> {};

TEST_P(TrajectoryConvergence, TrajectoryAverageMatchesExactChannel) {
  const int seed = GetParam();
  const Circuit c = qnn::random_circuit(3, 12, 1000 + seed);
  NoiseModel model;
  model.depolarizing_1q = 0.05;
  model.depolarizing_2q = 0.08;
  model.bit_flip = 0.02;
  model.phase_flip = 0.02;

  // Exact: one density-matrix evolution.
  const DensityMatrix exact = run_density_with_noise(c, {}, model);

  // Sampled: average projectors over many pure trajectories.
  util::Rng rng(static_cast<std::uint64_t>(seed) * 101 + 7);
  const Observable obs = transverse_field_ising(3, 1.0, 0.5);
  const int trials = 3000;
  double mean_e = 0.0;
  for (int t = 0; t < trials; ++t) {
    const StateVector traj = run_with_noise(c, {}, model, rng);
    mean_e += obs.expectation(traj);
  }
  mean_e /= trials;

  EXPECT_NEAR(mean_e, exact.expectation(obs), 0.08)
      << "trajectory mean diverged from exact channel";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrajectoryConvergence, ::testing::Range(0, 4));

TEST(TrajectoryConvergence, AmplitudeDampingAgreesInExpectation) {
  // Pure amplitude damping on a rotated state.
  Circuit c(1);
  c.ry(0, 1.1);
  for (int i = 0; i < 5; ++i) {
    c.rz(0, 0.0);  // noise carriers
  }
  NoiseModel model;
  model.amplitude_damping = 0.1;
  const DensityMatrix exact = run_density_with_noise(c, {}, model);

  util::Rng rng(5);
  double mean_p1 = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    mean_p1 += run_with_noise(c, {}, model, rng).probability_one(0);
  }
  mean_p1 /= trials;
  EXPECT_NEAR(mean_p1, exact.probability_one(0), 0.02);
}

}  // namespace
}  // namespace qnn::sim
