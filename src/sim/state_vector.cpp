#include "sim/state_vector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "sim/parallel.hpp"
#include "util/thread_pool.hpp"

namespace qnn::sim {

namespace {
constexpr std::uint32_t kStateVectorVersion = 1;
constexpr std::size_t kMaxQubits = 30;  // 16 GiB of amplitudes; sanity bound

// Amplitude-group parallelism tuning lives in sim/parallel.hpp (shared
// with the Pauli expectation kernels).

/// Masks for expanding a compressed index (all amplitude indices with two
/// fixed bit positions removed) back to a full basis index with zeros at
/// those positions: i = (k & low) | ((k & mid) << 1) | ((k & ~(low|mid)) << 2).
struct TwoBitMasks {
  std::size_t low;
  std::size_t mid;
};

TwoBitMasks two_bit_masks(std::size_t qa, std::size_t qb) {
  const std::size_t pl = std::min(qa, qb);
  const std::size_t ph = std::max(qa, qb);
  const std::size_t low = (std::size_t{1} << pl) - 1;
  const std::size_t mid = ((std::size_t{1} << (ph - 1)) - 1) & ~low;
  return {low, mid};
}

/// a * b for operands whose products do not overflow: the four products
/// and two sums std::complex's operator* computes, in the same order,
/// without the C Annex G branch that rescues a NaN result (GCC emits a
/// test and a __muldc3 call after every product). Results are
/// bit-identical to operator*.
inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}
}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits > kMaxQubits) {
    throw std::invalid_argument("StateVector: too many qubits");
  }
  amps_.assign(std::size_t{1} << num_qubits, cplx{0.0, 0.0});
  amps_[0] = cplx{1.0, 0.0};
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[0] = cplx{1.0, 0.0};
}

void StateVector::set_basis_state(std::size_t basis_state) {
  if (basis_state >= dim()) {
    throw std::out_of_range("set_basis_state: index out of range");
  }
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[basis_state] = cplx{1.0, 0.0};
}

void StateVector::check_qubit(std::size_t qubit) const {
  if (qubit >= num_qubits_) {
    throw std::out_of_range("qubit index out of range");
  }
}

void StateVector::apply_1q(const Mat2& m, std::size_t qubit) {
  check_qubit(qubit);
  const std::size_t step = std::size_t{1} << qubit;
  const std::size_t low = step - 1;
  const std::size_t pairs = amps_.size() / 2;
  cplx* amps = amps_.data();
  // Pair p expands to the basis index with a zero deposited at `qubit`;
  // every pair touches a disjoint (i, i+step), so any partition is safe.
  util::parallel_for(
      kernel_pool(pairs), 0, pairs, kKernelGrain,
      [amps, m, step, low](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const std::size_t i = ((p & ~low) << 1) | (p & low);
          const cplx a0 = amps[i];
          const cplx a1 = amps[i + step];
          amps[i] = mul(m[0], a0) + mul(m[1], a1);
          amps[i + step] = mul(m[2], a0) + mul(m[3], a1);
        }
      });
}

void StateVector::apply_2q(const Mat4& m, std::size_t q0, std::size_t q1) {
  check_qubit(q0);
  check_qubit(q1);
  if (q0 == q1) {
    throw std::invalid_argument("apply_2q: qubits must differ");
  }
  const std::size_t b0 = std::size_t{1} << q0;
  const std::size_t b1 = std::size_t{1} << q1;
  const TwoBitMasks mask = two_bit_masks(q0, q1);
  const std::size_t quads = amps_.size() / 4;
  cplx* amps = amps_.data();
  // Enumerate only the 4x-smaller base set (both involved bits clear) by
  // depositing zeros at the two positions, instead of scanning all 2^n
  // indices and skipping 3/4 of them.
  util::parallel_for(
      kernel_pool(quads), 0, quads, kKernelGrain / 2,
      [amps, m, b0, b1, mask](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const std::size_t i00 = (k & mask.low) | ((k & mask.mid) << 1) |
                                  ((k & ~(mask.low | mask.mid)) << 2);
          const std::size_t i01 = i00 | b0;
          const std::size_t i10 = i00 | b1;
          const std::size_t i11 = i00 | b0 | b1;
          const cplx a00 = amps[i00];
          const cplx a01 = amps[i01];
          const cplx a10 = amps[i10];
          const cplx a11 = amps[i11];
          amps[i00] = mul(m[0], a00) + mul(m[1], a01) + mul(m[2], a10) +
                      mul(m[3], a11);
          amps[i01] = mul(m[4], a00) + mul(m[5], a01) + mul(m[6], a10) +
                      mul(m[7], a11);
          amps[i10] = mul(m[8], a00) + mul(m[9], a01) + mul(m[10], a10) +
                      mul(m[11], a11);
          amps[i11] = mul(m[12], a00) + mul(m[13], a01) + mul(m[14], a10) +
                      mul(m[15], a11);
        }
      });
}

void StateVector::apply_controlled_1q(const Mat2& m, std::size_t control,
                                      std::size_t target) {
  check_qubit(control);
  check_qubit(target);
  if (control == target) {
    throw std::invalid_argument("apply_controlled_1q: qubits must differ");
  }
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const TwoBitMasks mask = two_bit_masks(control, target);
  const std::size_t quads = amps_.size() / 4;
  cplx* amps = amps_.data();
  // Affected pairs have control set, target clear: deposit zeros at both
  // positions, then force the control bit on.
  util::parallel_for(
      kernel_pool(quads), 0, quads, kKernelGrain / 2,
      [amps, m, cbit, tbit, mask](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const std::size_t base = (k & mask.low) | ((k & mask.mid) << 1) |
                                   ((k & ~(mask.low | mask.mid)) << 2);
          const std::size_t i = base | cbit;
          const cplx a0 = amps[i];
          const cplx a1 = amps[i | tbit];
          amps[i] = mul(m[0], a0) + mul(m[1], a1);
          amps[i | tbit] = mul(m[2], a0) + mul(m[3], a1);
        }
      });
}

void StateVector::apply_phase_on_parity(std::uint64_t mask, cplx phase) {
  const std::size_t n = amps_.size();
  cplx* amps = amps_.data();
  util::parallel_for(kernel_pool(n), 0, n, kKernelGrain,
                     [amps, mask, phase](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         if (odd_parity(i & mask)) {
                           amps[i] = mul(amps[i], phase);
                         }
                       }
                     });
}

double StateVector::norm() const {
  const cplx* amps = amps_.data();
  const double s = util::parallel_reduce(
      kernel_pool(amps_.size()), 0, amps_.size(), kKernelGrain, 0.0,
      [amps](std::size_t lo, std::size_t hi) {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          acc += std::norm(amps[i]);
        }
        return acc;
      });
  return std::sqrt(s);
}

void StateVector::normalize() {
  const double n = norm();
  if (n == 0.0) {
    throw std::runtime_error("normalize: zero state vector");
  }
  const double inv = 1.0 / n;
  for (cplx& a : amps_) {
    a *= inv;
  }
}

double StateVector::probability_one(std::size_t qubit) const {
  check_qubit(qubit);
  const std::size_t bit = std::size_t{1} << qubit;
  const cplx* amps = amps_.data();
  return util::parallel_reduce(
      kernel_pool(amps_.size()), 0, amps_.size(), kKernelGrain, 0.0,
      [amps, bit](std::size_t lo, std::size_t hi) {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          if (i & bit) {
            acc += std::norm(amps[i]);
          }
        }
        return acc;
      });
}

int StateVector::measure(std::size_t qubit, util::Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const std::size_t bit = std::size_t{1} << qubit;
  const double keep_prob = outcome == 1 ? p1 : 1.0 - p1;
  const double inv = keep_prob > 0.0 ? 1.0 / std::sqrt(keep_prob) : 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    const bool is_one = (i & bit) != 0;
    if (is_one == (outcome == 1)) {
      amps_[i] *= inv;
    } else {
      amps_[i] = cplx{0.0, 0.0};
    }
  }
  return outcome;
}

std::vector<std::uint64_t> StateVector::sample(std::size_t shots,
                                               util::Rng& rng) const {
  // Inverse-CDF sampling: draw all uniforms first, sort, then walk the
  // cumulative distribution once — O(2^n + shots log shots).
  std::vector<double> u(shots);
  for (double& x : u) {
    x = rng.uniform();
  }
  std::vector<std::size_t> order(shots);
  for (std::size_t i = 0; i < shots; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return u[a] < u[b]; });

  std::vector<std::uint64_t> out(shots);
  double cum = 0.0;
  std::size_t state = 0;
  for (std::size_t rank = 0; rank < shots; ++rank) {
    const double target = u[order[rank]];
    while (state + 1 < amps_.size() && cum + std::norm(amps_[state]) < target) {
      cum += std::norm(amps_[state]);
      ++state;
    }
    out[order[rank]] = state;
  }
  return out;
}

cplx StateVector::inner_product(const StateVector& other) const {
  if (dim() != other.dim()) {
    throw std::invalid_argument("inner_product: dimension mismatch");
  }
  const cplx* a = amps_.data();
  const cplx* b = other.amps_.data();
  return util::parallel_reduce(
      kernel_pool(amps_.size()), 0, amps_.size(), kKernelGrain, cplx{0.0, 0.0},
      [a, b](std::size_t lo, std::size_t hi) {
        cplx acc{0.0, 0.0};
        for (std::size_t i = lo; i < hi; ++i) {
          acc += mul(std::conj(a[i]), b[i]);
        }
        return acc;
      });
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner_product(other));
}

util::Bytes StateVector::serialize() const {
  util::Bytes out;
  out.reserve(16 + amps_.size() * sizeof(cplx));
  util::put_le<std::uint32_t>(out, kStateVectorVersion);
  util::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(num_qubits_));
  const auto* p = reinterpret_cast<const std::uint8_t*>(amps_.data());
  out.insert(out.end(), p, p + amps_.size() * sizeof(cplx));
  return out;
}

StateVector StateVector::deserialize(util::ByteSpan data) {
  std::size_t off = 0;
  const auto version = util::get_le<std::uint32_t>(data, off);
  if (version != kStateVectorVersion) {
    throw std::runtime_error("StateVector::deserialize: bad version");
  }
  const auto nq = util::get_le<std::uint32_t>(data, off);
  if (nq > kMaxQubits) {
    throw std::runtime_error("StateVector::deserialize: qubit count too large");
  }
  StateVector sv(nq);
  const std::size_t expect = sv.dim() * sizeof(cplx);
  if (data.size() - off != expect) {
    throw std::runtime_error("StateVector::deserialize: payload size mismatch");
  }
  std::memcpy(sv.amps_.data(), data.data() + off, expect);
  return sv;
}

double pure_state_distance(const StateVector& a, const StateVector& b) {
  const double f = std::clamp(a.fidelity(b), 0.0, 1.0);
  return std::sqrt(1.0 - f);
}

}  // namespace qnn::sim
