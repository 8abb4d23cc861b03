#include "sim/gates.hpp"

#include <cmath>

namespace qnn::sim::gates {

namespace {
constexpr cplx kI{0.0, 1.0};
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

/// Embeds a diagonal 4-vector into a Mat4.
Mat4 diag4(cplx d0, cplx d1, cplx d2, cplx d3) {
  Mat4 m{};
  m[0] = d0;
  m[5] = d1;
  m[10] = d2;
  m[15] = d3;
  return m;
}
}  // namespace

Mat2 I() { return {1.0, 0.0, 0.0, 1.0}; }
Mat2 X() { return {0.0, 1.0, 1.0, 0.0}; }
Mat2 Y() { return {0.0, -kI, kI, 0.0}; }
Mat2 Z() { return {1.0, 0.0, 0.0, -1.0}; }
Mat2 H() { return {kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2}; }
Mat2 S() { return {1.0, 0.0, 0.0, kI}; }
Mat2 Sdg() { return {1.0, 0.0, 0.0, -kI}; }
Mat2 T() { return {1.0, 0.0, 0.0, std::polar(1.0, M_PI / 4)}; }
Mat2 Tdg() { return {1.0, 0.0, 0.0, std::polar(1.0, -M_PI / 4)}; }

Mat2 SX() {
  const cplx a{0.5, 0.5};
  const cplx b{0.5, -0.5};
  return {a, b, b, a};
}

Mat2 RX(double theta) {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  return {cplx{c, 0.0}, -kI * s, -kI * s, cplx{c, 0.0}};
}

Mat2 RY(double theta) {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  return {cplx{c, 0.0}, cplx{-s, 0.0}, cplx{s, 0.0}, cplx{c, 0.0}};
}

Mat2 RZ(double theta) {
  return {std::polar(1.0, -theta / 2), 0.0, 0.0, std::polar(1.0, theta / 2)};
}

Mat2 P(double lambda) { return {1.0, 0.0, 0.0, std::polar(1.0, lambda)}; }

Mat2 U3(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  // s and c go negative outside theta in [0, pi], where std::polar's
  // rho >= 0 precondition fails; these are the products polar computes.
  const auto scaled = [](double r, double a) {
    return cplx{r * std::cos(a), r * std::sin(a)};
  };
  return {cplx{c, 0.0}, -scaled(s, lambda), scaled(s, phi),
          scaled(c, phi + lambda)};
}

Mat4 CX() {
  // Control = q1 (high bit of |q1 q0>): swaps |10> <-> |11>.
  Mat4 m{};
  m[0 * 4 + 0] = 1.0;
  m[1 * 4 + 1] = 1.0;
  m[2 * 4 + 3] = 1.0;
  m[3 * 4 + 2] = 1.0;
  return m;
}

Mat4 CZ() { return diag4(1.0, 1.0, 1.0, -1.0); }

Mat4 SWAP() {
  Mat4 m{};
  m[0 * 4 + 0] = 1.0;
  m[1 * 4 + 2] = 1.0;
  m[2 * 4 + 1] = 1.0;
  m[3 * 4 + 3] = 1.0;
  return m;
}

Mat4 ISWAP() {
  Mat4 m{};
  m[0 * 4 + 0] = 1.0;
  m[1 * 4 + 2] = kI;
  m[2 * 4 + 1] = kI;
  m[3 * 4 + 3] = 1.0;
  return m;
}

Mat4 CRZ(double theta) {
  return diag4(1.0, 1.0, std::polar(1.0, -theta / 2),
               std::polar(1.0, theta / 2));
}

Mat4 RXX(double theta) {
  const cplx c{std::cos(theta / 2), 0.0};
  const cplx ms = -kI * std::sin(theta / 2);
  Mat4 m{};
  m[0 * 4 + 0] = c;
  m[0 * 4 + 3] = ms;
  m[1 * 4 + 1] = c;
  m[1 * 4 + 2] = ms;
  m[2 * 4 + 1] = ms;
  m[2 * 4 + 2] = c;
  m[3 * 4 + 0] = ms;
  m[3 * 4 + 3] = c;
  return m;
}

Mat4 RYY(double theta) {
  const cplx c{std::cos(theta / 2), 0.0};
  const cplx is = kI * std::sin(theta / 2);
  Mat4 m{};
  m[0 * 4 + 0] = c;
  m[0 * 4 + 3] = is;
  m[1 * 4 + 1] = c;
  m[1 * 4 + 2] = -is;
  m[2 * 4 + 1] = -is;
  m[2 * 4 + 2] = c;
  m[3 * 4 + 0] = is;
  m[3 * 4 + 3] = c;
  return m;
}

Mat4 RZZ(double theta) {
  const cplx e_minus = std::polar(1.0, -theta / 2);
  const cplx e_plus = std::polar(1.0, theta / 2);
  return diag4(e_minus, e_plus, e_plus, e_minus);
}

Mat2 matmul(const Mat2& a, const Mat2& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

Mat2 dagger(const Mat2& m) {
  return {std::conj(m[0]), std::conj(m[2]), std::conj(m[1]), std::conj(m[3])};
}

double max_abs_diff(const Mat2& a, const Mat2& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

bool is_unitary(const Mat2& m, double tol) {
  const Mat2 p = matmul(dagger(m), m);
  const Mat2 id = I();
  return max_abs_diff(p, id) <= tol;
}

bool is_unitary4(const Mat4& m, double tol) {
  // (M^dagger M)[r][c] == delta_rc
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cplx s{0.0, 0.0};
      for (int k = 0; k < 4; ++k) {
        s += std::conj(m[k * 4 + r]) * m[k * 4 + c];
      }
      const cplx expect = r == c ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
      if (std::abs(s - expect) > tol) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace qnn::sim::gates
