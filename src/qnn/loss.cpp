#include "qnn/loss.hpp"

#include <numeric>
#include <stdexcept>

#include "qnn/ansatz.hpp"
#include "sim/parallel.hpp"

namespace qnn::qnn {

double Loss::evaluate_all(std::span<const double> params,
                          util::Rng& rng) const {
  std::vector<std::uint32_t> indices(num_samples());
  std::iota(indices.begin(), indices.end(), 0u);
  return evaluate(params, indices, rng);
}

// --- ExpectationLoss ---

ExpectationLoss::ExpectationLoss(sim::Circuit circuit,
                                 sim::Observable observable)
    : ExpectationLoss(std::move(circuit), std::move(observable), Options{}) {}

ExpectationLoss::ExpectationLoss(sim::Circuit circuit,
                                 sim::Observable observable, Options options)
    : circuit_(std::move(circuit)),
      observable_(std::move(observable)),
      options_(options) {
  if (circuit_.num_qubits() != observable_.num_qubits()) {
    throw std::invalid_argument("ExpectationLoss: qubit count mismatch");
  }
  if (options_.trajectories == 0) {
    throw std::invalid_argument("ExpectationLoss: trajectories must be >= 1");
  }
}

namespace {
// The hot-loop losses run with 1q-gate fusion: every evaluation goes
// through the same (deterministic) code path, so resume stays bit-exact.
constexpr sim::ExecOptions kFusedExec{.fuse_single_qubit_gates = true};
}  // namespace

double ExpectationLoss::evaluate(std::span<const double> params,
                                 std::span<const std::uint32_t> indices,
                                 util::Rng& rng) const {
  (void)indices;  // sample-free loss
  const std::size_t runs = options_.noise.enabled() ? options_.trajectories : 1;
  double acc = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    const sim::StateVector psi =
        options_.noise.enabled()
            ? sim::run_with_noise(circuit_, params, options_.noise, rng)
            : circuit_.run(params, kFusedExec);
    acc += options_.shots == 0
               ? observable_.expectation(psi)
               : observable_.sampled_expectation(psi, options_.shots, rng);
  }
  return acc / static_cast<double>(runs);
}

// --- FidelityLoss ---

FidelityLoss::FidelityLoss(sim::Circuit circuit, std::vector<StatePair> data)
    : circuit_(std::move(circuit)), data_(std::move(data)) {
  if (data_.empty()) {
    throw std::invalid_argument("FidelityLoss: empty dataset");
  }
  for (const StatePair& pair : data_) {
    if (pair.input.num_qubits() != circuit_.num_qubits() ||
        pair.target.num_qubits() != circuit_.num_qubits()) {
      throw std::invalid_argument("FidelityLoss: state size mismatch");
    }
  }
}

double FidelityLoss::evaluate(std::span<const double> params,
                              std::span<const std::uint32_t> indices,
                              util::Rng& rng) const {
  (void)rng;  // exact fidelity readout
  if (indices.empty()) {
    throw std::invalid_argument("FidelityLoss: empty batch");
  }
  double fid = 0.0;
  for (std::uint32_t idx : indices) {
    const StatePair& pair = data_.at(idx);
    sim::StateVector psi = pair.input;
    circuit_.apply(psi, params, kFusedExec);
    fid += psi.fidelity(pair.target);
  }
  return 1.0 - fid / static_cast<double>(indices.size());
}

// --- ParityLoss ---

ParityLoss::ParityLoss(sim::Circuit circuit,
                       std::vector<LabelledBitstring> data, std::size_t shots)
    : circuit_(std::move(circuit)),
      data_(std::move(data)),
      shots_(shots),
      readout_(sim::parity_observable(circuit_.num_qubits())) {
  if (data_.empty()) {
    throw std::invalid_argument("ParityLoss: empty dataset");
  }
}

namespace {
double parity_margin(const sim::Circuit& circuit,
                     const sim::Observable& readout, std::uint64_t bits,
                     std::span<const double> params, std::size_t shots,
                     util::Rng& rng) {
  sim::StateVector psi(circuit.num_qubits());
  psi.set_basis_state(bits & ((std::uint64_t{1} << circuit.num_qubits()) - 1));
  circuit.apply(psi, params, kFusedExec);
  return shots == 0 ? readout.expectation(psi)
                    : readout.sampled_expectation(psi, shots, rng);
}
}  // namespace

double ParityLoss::evaluate(std::span<const double> params,
                            std::span<const std::uint32_t> indices,
                            util::Rng& rng) const {
  if (indices.empty()) {
    throw std::invalid_argument("ParityLoss: empty batch");
  }
  double loss = 0.0;
  for (std::uint32_t idx : indices) {
    const LabelledBitstring& sample = data_.at(idx);
    const double m = parity_margin(circuit_, readout_, sample.bits, params,
                                   shots_, rng);
    loss += 0.5 * (1.0 - static_cast<double>(sample.label) * m);
  }
  return loss / static_cast<double>(indices.size());
}

double ParityLoss::accuracy(std::span<const double> params) const {
  util::Rng unused(0);
  std::size_t correct = 0;
  for (const LabelledBitstring& sample : data_) {
    const double m = parity_margin(circuit_, readout_, sample.bits, params,
                                   /*shots=*/0, unused);
    if ((m >= 0.0 ? 1 : -1) == sample.label) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data_.size());
}

// --- dataset generators ---

sim::StateVector random_state(std::size_t num_qubits, std::uint64_t seed) {
  const sim::Circuit prep = random_circuit(num_qubits, /*depth=*/6, seed);
  sim::StateVector psi(num_qubits);
  prep.apply(psi, {});
  return psi;
}

std::vector<StatePair> make_unitary_learning_data(std::size_t num_qubits,
                                                  std::size_t num_pairs,
                                                  std::size_t hidden_depth,
                                                  std::uint64_t seed) {
  const sim::Circuit hidden =
      random_circuit(num_qubits, hidden_depth, seed * 7919 + 13);
  std::vector<StatePair> data;
  data.reserve(num_pairs);
  for (std::size_t i = 0; i < num_pairs; ++i) {
    sim::StateVector input = random_state(num_qubits, seed + i);
    sim::StateVector target = input;
    hidden.apply(target, {});
    data.push_back(StatePair{std::move(input), std::move(target)});
  }
  return data;
}

std::vector<LabelledBitstring> make_parity_data(std::size_t num_qubits,
                                                std::size_t num_samples,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  const std::uint64_t mask = (std::uint64_t{1} << num_qubits) - 1;
  std::vector<LabelledBitstring> data;
  data.reserve(num_samples);
  for (std::size_t i = 0; i < num_samples; ++i) {
    const std::uint64_t bits = rng() & mask;
    const int label = sim::odd_parity(bits) ? -1 : +1;
    data.push_back(LabelledBitstring{bits, label});
  }
  return data;
}

}  // namespace qnn::qnn
