#include "sim/pauli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/parallel.hpp"
#include "util/thread_pool.hpp"

namespace qnn::sim {

PauliTerm PauliTerm::from_string(double coeff, const std::string& s) {
  PauliTerm term;
  term.coeff = coeff;
  term.paulis.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case 'I': term.paulis.push_back(PauliOp::kI); break;
      case 'X': term.paulis.push_back(PauliOp::kX); break;
      case 'Y': term.paulis.push_back(PauliOp::kY); break;
      case 'Z': term.paulis.push_back(PauliOp::kZ); break;
      default:
        throw std::invalid_argument("PauliTerm: bad character in string");
    }
  }
  return term;
}

std::string PauliTerm::to_string() const {
  std::ostringstream os;
  os << coeff << " * ";
  for (PauliOp p : paulis) {
    os << "IXYZ"[static_cast<int>(p)];
  }
  return os.str();
}

bool PauliTerm::is_diagonal() const {
  for (PauliOp p : paulis) {
    if (p == PauliOp::kX || p == PauliOp::kY) {
      return false;
    }
  }
  return true;
}

void Observable::add_term(double coeff, const std::string& s) {
  add_term(PauliTerm::from_string(coeff, s));
}

void Observable::add_term(PauliTerm term) {
  if (term.paulis.size() != num_qubits_) {
    throw std::invalid_argument("Observable::add_term: length mismatch");
  }
  terms_.push_back(std::move(term));
}

namespace {

/// Z-mask of a diagonal term: bit q set iff paulis[q] == Z.
std::uint64_t z_mask(const PauliTerm& term) {
  std::uint64_t mask = 0;
  for (std::size_t q = 0; q < term.paulis.size(); ++q) {
    if (term.paulis[q] == PauliOp::kZ) {
      mask |= std::uint64_t{1} << q;
    }
  }
  return mask;
}

/// A Pauli string as a signed permutation of the amplitudes:
///   (P psi)_i = (-1)^{parity(i & sign)} * (-i)^{n_Y} * psi_{i ^ flip}.
/// X and Y flip their qubit, Z negates the amplitudes whose bit is set,
/// and Y does both and contributes a factor -i ((Y psi)_0 = -i psi_1,
/// (Y psi)_1 = i psi_0). Multiplying by +-1 or +-i is exact, so these are
/// the values that applying gates::X/Y/Z qubit by qubit produces.
struct PauliAction {
  std::uint64_t flip = 0;
  std::uint64_t sign = 0;
  unsigned quarter_turns = 0;  ///< n_Y mod 4

  explicit PauliAction(const PauliTerm& term) {
    for (std::size_t q = 0; q < term.paulis.size(); ++q) {
      const std::uint64_t bit = std::uint64_t{1} << q;
      switch (term.paulis[q]) {
        case PauliOp::kI: break;
        case PauliOp::kX: flip |= bit; break;
        case PauliOp::kY: flip |= bit; sign |= bit; ++quarter_turns; break;
        case PauliOp::kZ: sign |= bit; break;
      }
    }
    quarter_turns %= 4;
  }

  /// (-i)^{n_Y} * b: a swap and negations of its parts.
  [[nodiscard]] cplx rotate(cplx b) const {
    switch (quarter_turns) {
      case 1: return {b.imag(), -b.real()};
      case 2: return {-b.real(), -b.imag()};
      case 3: return {-b.imag(), b.real()};
      default: return b;
    }
  }
};

}  // namespace

double Observable::expectation(const StateVector& psi) const {
  if (psi.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Observable::expectation: qubit mismatch");
  }
  const auto amps = psi.amplitudes();
  double e = 0.0;
  for (const PauliTerm& term : terms_) {
    // Re <psi|P|psi> in inner_product's chunks and order (kKernelGrain).
    const PauliAction p(term);
    const double sum = util::parallel_reduce(
        kernel_pool(amps.size()), 0, amps.size(), kKernelGrain, 0.0,
        [amps, p](std::size_t lo, std::size_t hi) {
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            const cplx a = amps[i];
            const cplx b = p.rotate(amps[i ^ p.flip]);
            const double d = a.real() * b.real() + a.imag() * b.imag();
            acc += odd_parity(i & p.sign) ? -d : d;
          }
          return acc;
        });
    e += term.coeff * sum;
  }
  return e;
}

StateVector Observable::apply(const StateVector& psi) const {
  if (psi.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Observable::apply: qubit mismatch");
  }
  StateVector out(num_qubits_);
  const auto out_amps = out.mutable_amplitudes();
  std::fill(out_amps.begin(), out_amps.end(), cplx{0.0, 0.0});
  const auto amps = psi.amplitudes();
  for (const PauliTerm& term : terms_) {
    const PauliAction p(term);
    const double coeff = term.coeff;
    util::parallel_for(
        kernel_pool(amps.size()), 0, amps.size(), kKernelGrain,
        [out_amps, amps, p, coeff](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const cplx b = p.rotate(amps[i ^ p.flip]);
            const double c = odd_parity(i & p.sign) ? -coeff : coeff;
            out_amps[i] += cplx{c * b.real(), c * b.imag()};
          }
        });
  }
  return out;
}

double Observable::sampled_expectation(const StateVector& psi,
                                       std::size_t shots,
                                       util::Rng& rng) const {
  if (shots == 0) {
    throw std::invalid_argument("sampled_expectation: shots must be > 0");
  }
  for (const PauliTerm& term : terms_) {
    if (!term.is_diagonal()) {
      throw std::invalid_argument(
          "sampled_expectation: non-diagonal term; rotate the circuit "
          "into the measurement basis first");
    }
  }
  const auto outcomes = psi.sample(shots, rng);
  double e = 0.0;
  for (const PauliTerm& term : terms_) {
    const std::uint64_t mask = z_mask(term);
    std::int64_t sum = 0;
    for (std::uint64_t o : outcomes) {
      sum += odd_parity(o & mask) ? -1 : 1;
    }
    e += term.coeff * static_cast<double>(sum) / static_cast<double>(shots);
  }
  return e;
}

std::string Observable::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (i) {
      os << " + ";
    }
    os << terms_[i].to_string();
  }
  return os.str();
}

Observable transverse_field_ising(std::size_t num_qubits, double coupling_j,
                                  double field_h) {
  Observable h(num_qubits);
  for (std::size_t q = 0; q + 1 < num_qubits; ++q) {
    std::string s(num_qubits, 'I');
    s[q] = 'Z';
    s[q + 1] = 'Z';
    h.add_term(-coupling_j, s);
  }
  for (std::size_t q = 0; q < num_qubits; ++q) {
    std::string s(num_qubits, 'I');
    s[q] = 'X';
    h.add_term(-field_h, s);
  }
  return h;
}

Observable parity_observable(std::size_t num_qubits) {
  Observable obs(num_qubits);
  obs.add_term(1.0, std::string(num_qubits, 'Z'));
  return obs;
}

}  // namespace qnn::sim
