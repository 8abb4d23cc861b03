// Pauli-string observables and expectation values.
//
// Hybrid-training losses are expectation values of weighted Pauli sums
// (VQE Hamiltonians, parity classifiers). Index convention: paulis[q] acts
// on qubit q (qubit 0 = least-significant basis bit).
#pragma once

#include <string>
#include <vector>

#include "sim/state_vector.hpp"

namespace qnn::sim {

enum class PauliOp : std::uint8_t { kI = 0, kX = 1, kY = 2, kZ = 3 };

/// One weighted Pauli string, e.g. 0.5 * Z0 X2.
struct PauliTerm {
  double coeff = 1.0;
  std::vector<PauliOp> paulis;  ///< length == num_qubits

  /// Parses "IXYZ..." where character i acts on qubit i. Any other
  /// character throws std::invalid_argument.
  static PauliTerm from_string(double coeff, const std::string& s);

  /// "0.5 * XZIY" style rendering.
  [[nodiscard]] std::string to_string() const;

  /// True when the term contains only I and Z (diagonal in the
  /// computational basis, so readout samples can estimate it).
  [[nodiscard]] bool is_diagonal() const;
};

/// A weighted sum of Pauli strings over a fixed register size.
class Observable {
 public:
  explicit Observable(std::size_t num_qubits) : num_qubits_(num_qubits) {}

  [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
  [[nodiscard]] const std::vector<PauliTerm>& terms() const { return terms_; }

  /// Adds coeff * (pauli string parsed from `s`); s.size() must equal
  /// num_qubits().
  void add_term(double coeff, const std::string& s);
  void add_term(PauliTerm term);

  /// <psi|O|psi> for a normalised state: one O(2^n) sweep per term, which
  /// reads each amplitude's Pauli image (a signed permutation) in place.
  [[nodiscard]] double expectation(const StateVector& psi) const;

  /// Applies the (generally non-unitary) operator O to |psi>, returning
  /// O|psi> un-normalised. Used by power-iteration ground-state solvers
  /// and the property tests.
  [[nodiscard]] StateVector apply(const StateVector& psi) const;

  /// Estimates <O> from `shots` computational-basis samples. Only valid
  /// for observables whose every term is diagonal (checked, throws
  /// std::invalid_argument otherwise). Models finite-shot readout.
  [[nodiscard]] double sampled_expectation(const StateVector& psi,
                                           std::size_t shots,
                                           util::Rng& rng) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t num_qubits_;
  std::vector<PauliTerm> terms_;
};

/// Transverse-field Ising chain H = -J sum_i Z_i Z_{i+1} - h sum_i X_i
/// (open boundary). The canonical VQE workload in the benches.
Observable transverse_field_ising(std::size_t num_qubits, double coupling_j,
                                  double field_h);

/// Parity observable Z_0 Z_1 ... Z_{n-1}, the classifier readout.
Observable parity_observable(std::size_t num_qubits);

}  // namespace qnn::sim
