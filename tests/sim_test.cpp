// Unit + property tests for the state-vector simulator substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "qnn/ansatz.hpp"
#include "qnn/loss.hpp"
#include "sim/circuit.hpp"
#include "sim/gates.hpp"
#include "sim/noise.hpp"
#include "sim/parallel.hpp"
#include "sim/pauli.hpp"
#include "sim/state_vector.hpp"

namespace qnn::sim {
namespace {

constexpr double kTol = 1e-12;

// ---------- StateVector basics ----------

TEST(StateVector, InitialStateIsZeroKet) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1.0, 0.0}), 0.0, kTol);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, kTol);
  }
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, ZeroQubitsIsScalar) {
  StateVector sv(0);
  EXPECT_EQ(sv.dim(), 1u);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, TooManyQubitsRejected) {
  EXPECT_THROW(StateVector(31), std::invalid_argument);
}

TEST(StateVector, SetBasisState) {
  StateVector sv(2);
  sv.set_basis_state(3);
  EXPECT_NEAR(std::abs(sv.amplitude(3) - cplx{1.0, 0.0}), 0.0, kTol);
  EXPECT_THROW(sv.set_basis_state(4), std::out_of_range);
}

TEST(StateVector, QubitBoundsChecked) {
  StateVector sv(2);
  EXPECT_THROW(sv.apply_1q(gates::X(), 2), std::out_of_range);
  EXPECT_THROW(sv.apply_2q(gates::CX(), 0, 0), std::invalid_argument);
  EXPECT_THROW((void)sv.probability_one(5), std::out_of_range);
}

TEST(StateVector, XFlipsQubitZero) {
  StateVector sv(2);
  sv.apply_1q(gates::X(), 0);
  EXPECT_NEAR(std::abs(sv.amplitude(1) - cplx{1.0, 0.0}), 0.0, kTol);
}

TEST(StateVector, XFlipsQubitOne) {
  StateVector sv(2);
  sv.apply_1q(gates::X(), 1);
  EXPECT_NEAR(std::abs(sv.amplitude(2) - cplx{1.0, 0.0}), 0.0, kTol);
}

TEST(StateVector, HadamardMakesUniformSuperposition) {
  StateVector sv(1);
  sv.apply_1q(gates::H(), 0);
  EXPECT_NEAR(sv.probability_one(0), 0.5, kTol);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, BellStateViaHAndCnot) {
  StateVector sv(2);
  sv.apply_1q(gates::H(), 0);
  sv.apply_controlled_1q(gates::X(), 0, 1);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{inv_sqrt2, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(3) - cplx{inv_sqrt2, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(1)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(2)), 0.0, kTol);
}

TEST(StateVector, SwapGateSwapsBits) {
  StateVector sv(2);
  sv.set_basis_state(1);  // |01> (q0=1)
  sv.apply_2q(gates::SWAP(), 0, 1);
  EXPECT_NEAR(std::abs(sv.amplitude(2) - cplx{1.0, 0.0}), 0.0, kTol);
}

TEST(StateVector, PhaseOnParityMatchesRzz) {
  // RZZ(theta) == diag phases by ZZ parity, up to matching convention.
  StateVector a(2), b(2);
  a.apply_1q(gates::H(), 0);
  a.apply_1q(gates::H(), 1);
  b = a;
  const double theta = 0.7;
  a.apply_2q(gates::RZZ(theta), 0, 1);
  // Manual: even parity -> e^{-i theta/2}, odd -> e^{+i theta/2}.
  for (auto& amp : b.mutable_amplitudes()) {
    amp *= std::polar(1.0, -theta / 2);
  }
  b.apply_phase_on_parity(0b11, std::polar(1.0, theta));
  EXPECT_GT(a.fidelity(b), 1.0 - kTol);
}

TEST(StateVector, MeasureCollapsesAndNormalises) {
  util::Rng rng(1);
  StateVector sv(1);
  sv.apply_1q(gates::H(), 0);
  const int outcome = sv.measure(0, rng);
  EXPECT_TRUE(outcome == 0 || outcome == 1);
  EXPECT_NEAR(sv.probability_one(0), static_cast<double>(outcome), kTol);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, MeasurementStatisticsMatchBornRule) {
  util::Rng rng(2);
  int ones = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    StateVector sv(1);
    sv.apply_1q(gates::RY(2.0 * std::asin(std::sqrt(0.3))), 0);
    ones += sv.measure(0, rng);
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.3, 0.02);
}

TEST(StateVector, SampleDistributionMatchesAmplitudes) {
  util::Rng rng(3);
  StateVector sv(2);
  sv.apply_1q(gates::H(), 0);  // 50/50 between |00> and |01>
  const auto outcomes = sv.sample(20000, rng);
  std::size_t count1 = 0;
  for (auto o : outcomes) {
    ASSERT_TRUE(o == 0 || o == 1);
    count1 += o == 1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / 20000.0, 0.5, 0.02);
}

TEST(StateVector, SampleDoesNotMutateState) {
  util::Rng rng(4);
  StateVector sv(3);
  sv.apply_1q(gates::H(), 1);
  const StateVector before = sv;
  (void)sv.sample(100, rng);
  EXPECT_EQ(sv, before);
}

TEST(StateVector, InnerProductAndFidelity) {
  StateVector a(1), b(1);
  b.apply_1q(gates::X(), 0);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 0.0, kTol);
  EXPECT_NEAR(a.fidelity(a), 1.0, kTol);
  EXPECT_NEAR(a.fidelity(b), 0.0, kTol);
  StateVector c(2);
  EXPECT_THROW((void)a.inner_product(c), std::invalid_argument);
}

TEST(StateVector, SerializeRoundTripBitExact) {
  StateVector sv(4);
  sv.apply_1q(gates::H(), 0);
  sv.apply_controlled_1q(gates::X(), 0, 2);
  sv.apply_1q(gates::T(), 3);
  const StateVector back = StateVector::deserialize(sv.serialize());
  EXPECT_EQ(sv, back);
}

TEST(StateVector, DeserializeRejectsGarbage) {
  StateVector sv(2);
  auto data = sv.serialize();
  data.resize(data.size() - 1);
  EXPECT_THROW(StateVector::deserialize(data), std::runtime_error);
  data.clear();
  EXPECT_THROW(StateVector::deserialize(data), std::out_of_range);
}

TEST(StateVector, NormalizeZeroVectorThrows) {
  StateVector sv(1);
  sv.mutable_amplitudes()[0] = {0.0, 0.0};
  EXPECT_THROW(sv.normalize(), std::runtime_error);
}

TEST(PureStateDistance, MetricBasics) {
  StateVector a(1), b(1);
  b.apply_1q(gates::X(), 0);
  EXPECT_NEAR(pure_state_distance(a, a), 0.0, kTol);
  EXPECT_NEAR(pure_state_distance(a, b), 1.0, kTol);
}

// ---------- gate algebra properties ----------

TEST(Gates, AllFixedGatesUnitary) {
  for (const Mat2& m : {gates::I(), gates::X(), gates::Y(), gates::Z(),
                        gates::H(), gates::S(), gates::Sdg(), gates::T(),
                        gates::Tdg(), gates::SX()}) {
    EXPECT_TRUE(gates::is_unitary(m));
  }
  for (const Mat4& m : {gates::CX(), gates::CZ(), gates::SWAP(),
                        gates::ISWAP()}) {
    EXPECT_TRUE(gates::is_unitary4(m));
  }
}

class RotationGateTest : public ::testing::TestWithParam<double> {};

TEST_P(RotationGateTest, ParameterisedGatesUnitaryAtAllAngles) {
  const double theta = GetParam();
  EXPECT_TRUE(gates::is_unitary(gates::RX(theta)));
  EXPECT_TRUE(gates::is_unitary(gates::RY(theta)));
  EXPECT_TRUE(gates::is_unitary(gates::RZ(theta)));
  EXPECT_TRUE(gates::is_unitary(gates::P(theta)));
  EXPECT_TRUE(gates::is_unitary(gates::U3(theta, theta / 2, theta / 3)));
  EXPECT_TRUE(gates::is_unitary4(gates::CRZ(theta)));
  EXPECT_TRUE(gates::is_unitary4(gates::RXX(theta)));
  EXPECT_TRUE(gates::is_unitary4(gates::RYY(theta)));
  EXPECT_TRUE(gates::is_unitary4(gates::RZZ(theta)));
}

TEST_P(RotationGateTest, RotationComposition) {
  const double theta = GetParam();
  // R(theta) R(-theta) == I
  EXPECT_LT(gates::max_abs_diff(
                gates::matmul(gates::RX(theta), gates::RX(-theta)),
                gates::I()),
            kTol);
  // R(a)R(b) == R(a+b)
  EXPECT_LT(gates::max_abs_diff(
                gates::matmul(gates::RY(theta), gates::RY(0.3)),
                gates::RY(theta + 0.3)),
            kTol);
}

INSTANTIATE_TEST_SUITE_P(AngleSweep, RotationGateTest,
                         ::testing::Values(-2.0 * std::numbers::pi, -1.5, -0.1,
                                           0.0, 1e-8, 0.5, std::numbers::pi,
                                           2.7, 4.0 * std::numbers::pi));

TEST(Gates, StandardIdentities) {
  EXPECT_LT(gates::max_abs_diff(gates::matmul(gates::H(), gates::H()),
                                gates::I()),
            kTol);
  EXPECT_LT(gates::max_abs_diff(gates::matmul(gates::X(), gates::X()),
                                gates::I()),
            kTol);
  EXPECT_LT(gates::max_abs_diff(gates::matmul(gates::S(), gates::S()),
                                gates::Z()),
            kTol);
  EXPECT_LT(gates::max_abs_diff(gates::matmul(gates::T(), gates::T()),
                                gates::S()),
            kTol);
  EXPECT_LT(gates::max_abs_diff(gates::matmul(gates::SX(), gates::SX()),
                                gates::X()),
            kTol);
  // HXH = Z
  EXPECT_LT(gates::max_abs_diff(gates::matmul(gates::H(),
                                              gates::matmul(gates::X(),
                                                            gates::H())),
                                gates::Z()),
            kTol);
  EXPECT_LT(gates::max_abs_diff(gates::dagger(gates::S()), gates::Sdg()), kTol);
  EXPECT_LT(gates::max_abs_diff(gates::dagger(gates::T()), gates::Tdg()), kTol);
}

// ---------- circuit IR ----------

TEST(Circuit, BuildersAndCounts) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  auto p = c.new_param();
  c.ry(2, p);
  c.rzz(1, 2, 0.5);
  EXPECT_EQ(c.gate_count(), 4u);
  EXPECT_EQ(c.two_qubit_gate_count(), 2u);
  EXPECT_EQ(c.num_params(), 1u);
  EXPECT_GT(c.depth(), 0u);
  EXPECT_FALSE(c.dump().empty());
}

TEST(Circuit, DepthComputation) {
  Circuit c(2);
  c.h(0);
  c.h(1);  // parallel -> depth 1
  EXPECT_EQ(c.depth(), 1u);
  c.cx(0, 1);  // depth 2
  EXPECT_EQ(c.depth(), 2u);
  c.h(0);  // depth 3
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, RejectsBadIndices) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::out_of_range);
  EXPECT_THROW(c.cx(0, 0), std::invalid_argument);
  EXPECT_THROW(c.ry(0, sim::ParamRef{5, 1.0}), std::out_of_range);
}

TEST(Circuit, ApplyChecksBindings) {
  Circuit c(1);
  c.rx(0, c.new_param());
  StateVector sv(1);
  std::vector<double> wrong{};
  EXPECT_THROW(c.apply(sv, wrong), std::invalid_argument);
  StateVector sv2(2);
  std::vector<double> ok{0.5};
  EXPECT_THROW(c.apply(sv2, ok), std::invalid_argument);
}

TEST(Circuit, SharedParameterWithCoefficient) {
  // rz(2*p) == rz applied with angle 2p.
  Circuit c(1);
  auto p = c.new_param();
  c.rz(0, sim::ParamRef{p.slot, 2.0});
  const std::vector<double> params{0.4};
  StateVector a = c.run(params);
  StateVector b(1);
  b.apply_1q(gates::RZ(0.8), 0);
  EXPECT_GT(a.fidelity(b), 1.0 - kTol);
}

TEST(Circuit, CnotControlTargetOrientation) {
  // cx(control=1, target=0) on |10> flips to |11>.
  Circuit c(2);
  c.x(1);
  c.cx(1, 0);
  StateVector sv = c.run({});
  EXPECT_NEAR(std::abs(sv.amplitude(3) - cplx{1.0, 0.0}), 0.0, kTol);
}

class RandomCircuitNorm : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitNorm, NormPreservedThroughDeepRandomCircuits) {
  const int seed = GetParam();
  const Circuit c =
      qnn::random_circuit(/*num_qubits=*/5, /*depth=*/40,
                          static_cast<std::uint64_t>(seed));
  const StateVector sv = c.run({});
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitNorm, ::testing::Range(0, 12));

class FusedExecution : public ::testing::TestWithParam<int> {};

TEST_P(FusedExecution, FusedRunMatchesGateByGateRun) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Circuit c = qnn::random_circuit(5, /*depth=*/20, seed);
  std::vector<double> params(c.num_params());
  util::Rng rng(seed * 31 + 1);
  for (double& p : params) {
    p = rng.uniform(-3.0, 3.0);
  }
  const StateVector plain = c.run(params);
  const StateVector fused =
      c.run(params, ExecOptions{.fuse_single_qubit_gates = true});
  ASSERT_EQ(plain.dim(), fused.dim());
  for (std::size_t i = 0; i < plain.dim(); ++i) {
    EXPECT_NEAR(std::abs(plain.amplitude(i) - fused.amplitude(i)), 0.0,
                kTol)
        << "amplitude " << i;
  }
  EXPECT_NEAR(fused.norm(), 1.0, kTol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedExecution, ::testing::Range(0, 8));

TEST(FusedExecution, AdjacentRotationsCollapseToOneSweep) {
  // rz(a) rz(b) fused must equal rz(a+b) exactly up to rounding.
  Circuit fused_circ(2);
  fused_circ.h(0);
  fused_circ.rz(0, 0.3);
  fused_circ.rz(0, 0.4);
  fused_circ.ry(1, 0.2);
  fused_circ.cx(0, 1);
  Circuit direct(2);
  direct.h(0);
  direct.rz(0, 0.7);
  direct.ry(1, 0.2);
  direct.cx(0, 1);
  const StateVector a =
      fused_circ.run({}, ExecOptions{.fuse_single_qubit_gates = true});
  const StateVector b = direct.run({});
  EXPECT_GT(a.fidelity(b), 1.0 - kTol);
}

TEST(ParallelKernels, PooledPathMatchesAnalyticResultsAndIsDeterministic) {
  // Gate kernels parallelize over pairs (dim/2) and quads (dim/4), so 16
  // qubits puts even the smallest work-item count (2^16/4 = 16384) at
  // sim::kParallelThreshold — every kernel below runs its pooled branch
  // (the rest of the suite stays below and only exercises the serial
  // fast path).
  constexpr std::size_t kN = 16;
  static_assert((std::size_t{1} << kN) / 4 >= kParallelThreshold);

  // Uniform superposition via pooled apply_1q sweeps.
  StateVector psi(kN);
  for (std::size_t q = 0; q < kN; ++q) {
    psi.apply_1q(gates::H(), q);
  }
  const double amp = 1.0 / std::sqrt(static_cast<double>(psi.dim()));
  EXPECT_NEAR(psi.amplitude(0).real(), amp, kTol);
  EXPECT_NEAR(psi.amplitude(psi.dim() - 1).real(), amp, kTol);
  EXPECT_NEAR(psi.norm(), 1.0, kTol);                    // pooled reduce
  EXPECT_NEAR(psi.probability_one(kN - 1), 0.5, kTol);   // pooled reduce

  // Pooled apply_2q / controlled / parity kernels against a full random
  // circuit; determinism across two identical runs must be bitwise.
  const Circuit c = qnn::random_circuit(kN, /*depth=*/30, 7);
  const StateVector a = c.run({});
  const StateVector b = c.run({});
  EXPECT_EQ(a, b);  // bit-identical, thread-count independent
  EXPECT_NEAR(a.norm(), 1.0, 1e-9);

  // Cross-check the pooled kernels through an independent execution
  // path: the fused single-qubit route must agree to tolerance.
  const StateVector fused =
      c.run({}, ExecOptions{.fuse_single_qubit_gates = true});
  EXPECT_GT(a.fidelity(fused), 1.0 - 1e-9);

  // Pooled inner_product: <uniform|uniform> = 1.
  EXPECT_NEAR(std::abs(psi.inner_product(psi)), 1.0, kTol);
}

TEST(Circuit, InverseCircuitRestoresInput) {
  Circuit fwd(3);
  fwd.h(0);
  fwd.cx(0, 1);
  fwd.rx(2, 0.7);
  fwd.rzz(0, 2, 0.3);
  Circuit inv(3);
  inv.rzz(0, 2, -0.3);
  inv.rx(2, -0.7);
  inv.cx(0, 1);
  inv.h(0);
  StateVector sv(3);
  fwd.apply(sv, {});
  inv.apply(sv, {});
  StateVector zero(3);
  EXPECT_GT(sv.fidelity(zero), 1.0 - 1e-10);
}

// ---------- Pauli observables ----------

TEST(Pauli, ParseAndRender) {
  const auto term = PauliTerm::from_string(0.5, "IXYZ");
  EXPECT_EQ(term.paulis.size(), 4u);
  EXPECT_FALSE(term.is_diagonal());
  EXPECT_TRUE(PauliTerm::from_string(1.0, "IZZI").is_diagonal());
  EXPECT_THROW(PauliTerm::from_string(1.0, "ABC"), std::invalid_argument);
  EXPECT_EQ(term.to_string(), "0.5 * IXYZ");
}

TEST(Pauli, ZExpectationOnBasisStates) {
  Observable obs(1);
  obs.add_term(1.0, "Z");
  StateVector zero(1);
  EXPECT_NEAR(obs.expectation(zero), 1.0, kTol);
  StateVector one(1);
  one.apply_1q(gates::X(), 0);
  EXPECT_NEAR(obs.expectation(one), -1.0, kTol);
}

TEST(Pauli, XExpectationOnPlusState) {
  Observable obs(1);
  obs.add_term(1.0, "X");
  StateVector plus(1);
  plus.apply_1q(gates::H(), 0);
  EXPECT_NEAR(obs.expectation(plus), 1.0, kTol);
  StateVector zero(1);
  EXPECT_NEAR(obs.expectation(zero), 0.0, kTol);
}

TEST(Pauli, DiagonalAndGeneralPathsAgree) {
  // A diagonal term (no flip) alone, and beside a zero-weight X term
  // whose kernel reads the flipped amplitudes: the sum must not move.
  const Circuit c = qnn::random_circuit(3, 20, 99);
  const StateVector psi = c.run({});
  Observable zz(3);
  zz.add_term(0.7, "ZZI");
  Observable generic(3);
  generic.add_term(0.7, "ZZI");
  generic.add_term(0.0, "XII");
  EXPECT_NEAR(zz.expectation(psi), generic.expectation(psi), 1e-10);
}

TEST(Pauli, ObservableValidation) {
  Observable obs(2);
  EXPECT_THROW(obs.add_term(1.0, "Z"), std::invalid_argument);  // wrong len
  obs.add_term(1.0, "ZZ");
  StateVector wrong(3);
  EXPECT_THROW((void)obs.expectation(wrong), std::invalid_argument);
}

TEST(Pauli, TfimGroundStateLimits) {
  // J=1, h=0: classical Ising; |00...0> is a ground state with E = -(n-1).
  const std::size_t n = 4;
  const Observable h0 = transverse_field_ising(n, 1.0, 0.0);
  StateVector zeros(n);
  EXPECT_NEAR(h0.expectation(zeros), -3.0, kTol);
  // J=0, h=1: product of |+>; E = -n.
  const Observable hx = transverse_field_ising(n, 0.0, 1.0);
  StateVector plus(n);
  for (std::size_t q = 0; q < n; ++q) {
    plus.apply_1q(gates::H(), q);
  }
  EXPECT_NEAR(hx.expectation(plus), -4.0, kTol);
}

TEST(Pauli, ApplyIsConsistentWithExpectation) {
  // <psi|O|psi> must equal <psi | (O psi)> for every workload observable.
  const Circuit c = qnn::random_circuit(4, 25, 31);
  const StateVector psi = c.run({});
  for (const Observable& obs :
       {transverse_field_ising(4, 1.0, 0.7), parity_observable(4)}) {
    const StateVector opsi = obs.apply(psi);
    EXPECT_NEAR(psi.inner_product(opsi).real(), obs.expectation(psi), 1e-10);
  }
}

TEST(Pauli, ApplyIsLinear) {
  Observable obs(2);
  obs.add_term(0.5, "ZX");
  obs.add_term(-1.5, "XI");
  const StateVector a = qnn::random_state(2, 1);
  const StateVector b = qnn::random_state(2, 2);
  // O(a + b) == O a + O b, checked amplitude-wise.
  StateVector sum = a;
  for (std::size_t i = 0; i < sum.dim(); ++i) {
    sum.mutable_amplitudes()[i] += b.amplitudes()[i];
  }
  const StateVector lhs = obs.apply(sum);
  const StateVector oa = obs.apply(a);
  const StateVector ob = obs.apply(b);
  for (std::size_t i = 0; i < lhs.dim(); ++i) {
    EXPECT_NEAR(std::abs(lhs.amplitudes()[i] -
                         (oa.amplitudes()[i] + ob.amplitudes()[i])),
                0.0, 1e-12);
  }
  EXPECT_THROW(obs.apply(StateVector(3)), std::invalid_argument);
}

TEST(Pauli, SampledExpectationConvergesToExact) {
  util::Rng rng(5);
  const Circuit c = qnn::random_circuit(3, 15, 7);
  const StateVector psi = c.run({});
  const Observable obs = parity_observable(3);
  const double exact = obs.expectation(psi);
  const double sampled = obs.sampled_expectation(psi, 40000, rng);
  EXPECT_NEAR(sampled, exact, 0.03);
}

TEST(Pauli, SampledExpectationRejectsNonDiagonal) {
  util::Rng rng(6);
  Observable obs(1);
  obs.add_term(1.0, "X");
  StateVector psi(1);
  EXPECT_THROW((void)obs.sampled_expectation(psi, 10, rng),
               std::invalid_argument);
  Observable diag(1);
  diag.add_term(1.0, "Z");
  EXPECT_THROW((void)diag.sampled_expectation(psi, 0, rng),
               std::invalid_argument);
}

// ---------- bit-exact kernels ----------
//
// The kernels multiply complex numbers without std::complex's NaN-rescue
// branch and apply a Pauli string as a signed permutation. The references
// below are the formulas they replaced: std::complex operator*, and a
// Pauli term applied gate by gate to a copy followed by the chunked inner
// product. Every result must match them bit for bit, or trajectories and
// checkpoint bytes would move.

namespace ref {

using Amps = std::vector<cplx>;

void apply_1q(Amps& v, const Mat2& m, std::size_t q) {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if ((i & bit) == 0) {
      const cplx a0 = v[i];
      const cplx a1 = v[i | bit];
      v[i] = m[0] * a0 + m[1] * a1;
      v[i | bit] = m[2] * a0 + m[3] * a1;
    }
  }
}

void apply_2q(Amps& v, const Mat4& m, std::size_t q0, std::size_t q1) {
  const std::size_t b0 = std::size_t{1} << q0;
  const std::size_t b1 = std::size_t{1} << q1;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if ((i & (b0 | b1)) == 0) {
      const cplx a00 = v[i];
      const cplx a01 = v[i | b0];
      const cplx a10 = v[i | b1];
      const cplx a11 = v[i | b0 | b1];
      v[i] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
      v[i | b0] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
      v[i | b1] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
      v[i | b0 | b1] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
    }
  }
}

void apply_controlled_1q(Amps& v, const Mat2& m, std::size_t control,
                         std::size_t target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if ((i & cbit) != 0 && (i & tbit) == 0) {
      const cplx a0 = v[i];
      const cplx a1 = v[i | tbit];
      v[i] = m[0] * a0 + m[1] * a1;
      v[i | tbit] = m[2] * a0 + m[3] * a1;
    }
  }
}

void apply_phase_on_parity(Amps& v, std::uint64_t mask, cplx phase) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::popcount(i & mask) % 2 == 1) {
      v[i] *= phase;
    }
  }
}

/// util::parallel_reduce's summation order: one running sum below
/// kParallelThreshold items, kKernelGrain chunks added in index order
/// from it up.
template <typename T, typename Body>
T chunked_sum(std::size_t n, Body body) {
  T total{};
  if (n < kParallelThreshold) {
    total += body(0, n);
    return total;
  }
  for (std::size_t lo = 0; lo < n; lo += kKernelGrain) {
    total += body(lo, std::min(n, lo + kKernelGrain));
  }
  return total;
}

cplx inner_product(const Amps& a, const Amps& b) {
  return chunked_sum<cplx>(a.size(), [&](std::size_t lo, std::size_t hi) {
    cplx acc{0.0, 0.0};
    for (std::size_t i = lo; i < hi; ++i) {
      acc += std::conj(a[i]) * b[i];
    }
    return acc;
  });
}

Amps apply_term(const PauliTerm& term, const Amps& psi) {
  Amps out = psi;
  for (std::size_t q = 0; q < term.paulis.size(); ++q) {
    switch (term.paulis[q]) {
      case PauliOp::kI: break;
      case PauliOp::kX: apply_1q(out, gates::X(), q); break;
      case PauliOp::kY: apply_1q(out, gates::Y(), q); break;
      case PauliOp::kZ: apply_1q(out, gates::Z(), q); break;
    }
  }
  return out;
}

double expectation(const Observable& obs, const Amps& psi) {
  double e = 0.0;
  for (const PauliTerm& term : obs.terms()) {
    e += term.coeff * inner_product(psi, apply_term(term, psi)).real();
  }
  return e;
}

/// The diagonal-term formula the gate sweep was bypassed with: |a_i|^2
/// signed by the parity of the term's Z bits.
double diagonal_expectation(const Observable& obs, const Amps& psi) {
  double e = 0.0;
  for (const PauliTerm& term : obs.terms()) {
    std::uint64_t z = 0;
    for (std::size_t q = 0; q < term.paulis.size(); ++q) {
      z |= term.paulis[q] == PauliOp::kZ ? std::uint64_t{1} << q : 0;
    }
    e += term.coeff *
         chunked_sum<double>(psi.size(), [&](std::size_t lo, std::size_t hi) {
           double acc = 0.0;
           for (std::size_t i = lo; i < hi; ++i) {
             const double p = std::norm(psi[i]);
             acc += std::popcount(i & z) % 2 == 0 ? p : -p;
           }
           return acc;
         });
  }
  return e;
}

Amps apply(const Observable& obs, const Amps& psi) {
  Amps out(psi.size(), cplx{0.0, 0.0});
  for (const PauliTerm& term : obs.terms()) {
    const Amps s = apply_term(term, psi);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += term.coeff * s[i];
    }
  }
  return out;
}

}  // namespace ref

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

cplx random_cplx(util::Rng& rng) { return {rng.normal(), rng.normal()}; }

StateVector to_state(std::size_t n, const ref::Amps& amps) {
  StateVector sv(n);
  std::copy(amps.begin(), amps.end(), sv.mutable_amplitudes().begin());
  return sv;
}

TEST(SimKernels, MatchStdComplexReferenceBitwise) {
  // 13 qubits reduce serially, 14 and 15 in kKernelGrain chunks.
  static_assert((std::size_t{1} << 13) < kParallelThreshold);
  static_assert((std::size_t{1} << 14) >= kParallelThreshold);
  util::Rng rng(2024);
  for (const std::size_t n : {1, 3, 13, 14, 15}) {
    SCOPED_TRACE("qubits " + std::to_string(n));
    // Dense random amplitudes, and a copy with every third amplitude a
    // zero of random signs (signed zeros are where a rewrite of the
    // products could first differ).
    ref::Amps dense(std::size_t{1} << n);
    for (cplx& a : dense) {
      a = random_cplx(rng);
    }
    ref::Amps sparse = dense;
    for (std::size_t i = 0; i < sparse.size(); i += 3) {
      sparse[i] = {rng.uniform() < 0.5 ? 0.0 : -0.0,
                   rng.uniform() < 0.5 ? 0.0 : -0.0};
    }
    for (const ref::Amps& psi : {dense, sparse}) {
      // Gate kernels, each on a random matrix and random qubits.
      ref::Amps want = psi;
      StateVector got = to_state(n, psi);
      for (std::size_t round = 0; round < 4; ++round) {
        const Mat2 m2{random_cplx(rng), random_cplx(rng), random_cplx(rng),
                      random_cplx(rng)};
        const std::size_t q = rng() % n;
        ref::apply_1q(want, m2, q);
        got.apply_1q(m2, q);
        ASSERT_TRUE(same_bits(want, got.amplitudes())) << "apply_1q";
        if (n >= 2) {
          Mat4 m4;
          for (cplx& x : m4) {
            x = random_cplx(rng);
          }
          const std::size_t q0 = rng() % n;
          const std::size_t q1 = (q0 + 1 + rng() % (n - 1)) % n;
          ref::apply_2q(want, m4, q0, q1);
          got.apply_2q(m4, q0, q1);
          ASSERT_TRUE(same_bits(want, got.amplitudes())) << "apply_2q";
          ref::apply_controlled_1q(want, m2, q1, q0);
          got.apply_controlled_1q(m2, q1, q0);
          ASSERT_TRUE(same_bits(want, got.amplitudes()))
              << "apply_controlled_1q";
        }
        const std::uint64_t mask = rng() & ((std::uint64_t{1} << n) - 1);
        const cplx phase = random_cplx(rng);
        ref::apply_phase_on_parity(want, mask, phase);
        got.apply_phase_on_parity(mask, phase);
        ASSERT_TRUE(same_bits(want, got.amplitudes()))
            << "apply_phase_on_parity";
      }
      const StateVector sv = to_state(n, psi);
      const cplx ip = sv.inner_product(got);
      const cplx ip_want = ref::inner_product(psi, want);
      EXPECT_TRUE(same_bits(ip.real(), ip_want.real()) &&
                  same_bits(ip.imag(), ip_want.imag()))
          << "inner_product";

      // Pauli strings: random ones, then all-I, all-Z and all-Y (n_Y = n
      // covers every power of -i across the sizes).
      std::vector<std::string> strings;
      for (std::size_t k = 0; k < 12; ++k) {
        std::string s(n, 'I');
        for (char& c : s) {
          c = "IXYZ"[rng() % 4];
        }
        strings.push_back(s);
      }
      for (const char c : {'I', 'Z', 'Y'}) {
        strings.emplace_back(n, c);
      }
      Observable all(n);
      for (const std::string& s : strings) {
        SCOPED_TRACE(s);
        Observable one(n);
        one.add_term(rng.normal(), s);
        all.add_term(one.terms()[0]);
        const double e = one.expectation(sv);
        EXPECT_TRUE(same_bits(e, ref::expectation(one, psi)))
            << e << " vs " << ref::expectation(one, psi);
        if (one.terms()[0].is_diagonal()) {
          EXPECT_TRUE(same_bits(e, ref::diagonal_expectation(one, psi)));
        }
        EXPECT_TRUE(
            same_bits(ref::apply(one, psi), one.apply(sv).amplitudes()))
            << "apply";
      }
      EXPECT_TRUE(same_bits(all.expectation(sv), ref::expectation(all, psi)));
      EXPECT_TRUE(same_bits(ref::apply(all, psi), all.apply(sv).amplitudes()));
    }
  }
}

// ---------- noise ----------

TEST(Noise, DisabledModelChangesNothing) {
  util::Rng rng(7);
  const Circuit c = qnn::random_circuit(3, 10, 8);
  const StateVector clean = c.run({});
  const StateVector noisy = run_with_noise(c, {}, NoiseModel{}, rng);
  EXPECT_GT(clean.fidelity(noisy), 1.0 - kTol);
}

TEST(Noise, DepolarizingReducesFidelityOnAverage) {
  util::Rng rng(8);
  const Circuit c = qnn::random_circuit(3, 20, 9);
  const StateVector clean = c.run({});
  NoiseModel model;
  model.depolarizing_1q = 0.05;
  model.depolarizing_2q = 0.10;
  double mean_fid = 0.0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    mean_fid += clean.fidelity(run_with_noise(c, {}, model, rng));
  }
  mean_fid /= trials;
  EXPECT_LT(mean_fid, 0.999);
  EXPECT_GT(mean_fid, 0.1);
}

TEST(Noise, TrajectoriesPreserveNorm) {
  util::Rng rng(9);
  const Circuit c = qnn::random_circuit(4, 15, 10);
  NoiseModel model;
  model.depolarizing_1q = 0.1;
  model.amplitude_damping = 0.05;
  model.bit_flip = 0.02;
  model.phase_flip = 0.02;
  for (int i = 0; i < 10; ++i) {
    const StateVector sv = run_with_noise(c, {}, model, rng);
    ASSERT_NEAR(sv.norm(), 1.0, 1e-9);
  }
}

TEST(Noise, AmplitudeDampingDrivesTowardsZeroKet) {
  util::Rng rng(10);
  // Start in |1>, hammer with amplitude damping via identity-ish gates.
  Circuit c(1);
  c.x(0);
  for (int i = 0; i < 60; ++i) {
    c.rz(0, 0.0);  // angle-0 rotations: pure noise carriers
  }
  NoiseModel model;
  model.amplitude_damping = 0.15;
  int decayed = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    const StateVector sv = run_with_noise(c, {}, model, rng);
    decayed += sv.probability_one(0) < 0.5 ? 1 : 0;
  }
  EXPECT_GT(decayed, trials * 3 / 4);
}

TEST(Noise, SameRngSeedSameTrajectory) {
  const Circuit c = qnn::random_circuit(3, 12, 11);
  NoiseModel model;
  model.depolarizing_1q = 0.2;
  util::Rng r1(123), r2(123);
  const StateVector a = run_with_noise(c, {}, model, r1);
  const StateVector b = run_with_noise(c, {}, model, r2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qnn::sim
