// Forward-mode tangent bundle over Interval endpoints.
//
// A DualInterval carries an interval value plus, for each of `nd` parameter
// directions, the derivatives of its lower and upper endpoint. The value
// channel executes EXACTLY the same floating-point operation sequence as
// the plain Interval operators (same products, same min/max selection, same
// outward() widening), so a dual computation's value bits equal what the
// scalar computation produces; the tangent channel rides along.
//
// Differentiation convention at selection ties: when several endpoint
// candidates are exactly equal (min/max over the four products of a
// multiplication, hull endpoints, ...), the tangent is the average of the
// smallest and largest candidate tangent over the tied set. This is the
// central-difference limit: a +h perturbation selects the candidate with
// the smallest tangent, a -h perturbation the largest, and
// (f(h) - f(-h)) / 2h averages the two. Matching central differences is
// what the gradient-check CI gate compares against.
//
// outward() widens by a fixed 1 ulp regardless of the operands, so its
// derivative is the identity on tangents.
//
// Directions are capped at kMaxDirs so the type stays a flat POD (no
// per-operation heap allocation in the flowpipe hot loop). The gradient
// engine refuses controllers with more parameters.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>

#include "interval/interval.hpp"

namespace dwv::interval {

struct DualInterval {
  static constexpr std::size_t kMaxDirs = 16;

  Interval v;
  std::size_t nd = 0;
  std::array<double, kMaxDirs> dlo{};
  std::array<double, kMaxDirs> dhi{};

  DualInterval() = default;

  /// Constant (parameter-independent) interval: all tangents zero.
  static DualInterval constant(const Interval& x, std::size_t nd) {
    DualInterval r;
    r.v = x;
    r.nd = nd;
    return r;
  }

  /// Point value x with d(x)/d(theta_k) = seed[k] on both endpoints.
  static DualInterval point(double x, std::size_t nd, const double* seed) {
    DualInterval r;
    r.v = Interval(x);
    r.nd = nd;
    if (seed != nullptr) {
      for (std::size_t k = 0; k < nd; ++k) {
        r.dlo[k] = seed[k];
        r.dhi[k] = seed[k];
      }
    }
    return r;
  }

  bool tangents_zero() const {
    for (std::size_t k = 0; k < nd; ++k) {
      if (dlo[k] != 0.0 || dhi[k] != 0.0) return false;
    }
    return true;
  }

  /// d(mid)/d(theta_k) and d(rad)/d(theta_k).
  double dmid(std::size_t k) const { return 0.5 * (dlo[k] + dhi[k]); }
  double drad(std::size_t k) const { return 0.5 * (dhi[k] - dlo[k]); }
};

/// (I.lo + I.hi) / 2 — the tie-averaged sensitivity a contribution whose
/// value coefficient sits exactly at zero has on BOTH endpoints of a sum
/// (see the tangent-only accumulation paths in poly::dual_range and the
/// dual TM kernels).
inline double mid2(const Interval& x) { return 0.5 * (x.lo() + x.hi()); }

inline DualInterval dual_add(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  DualInterval r;
  r.nd = a.nd;
  r.v = outward(Interval(a.v.lo() + b.v.lo(), a.v.hi() + b.v.hi()));
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.dlo[k] = a.dlo[k] + b.dlo[k];
    r.dhi[k] = a.dhi[k] + b.dhi[k];
  }
  return r;
}

inline DualInterval dual_sub(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  DualInterval r;
  r.nd = a.nd;
  r.v = outward(Interval(a.v.lo() - b.v.hi(), a.v.hi() - b.v.lo()));
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.dlo[k] = a.dlo[k] - b.dhi[k];
    r.dhi[k] = a.dhi[k] - b.dlo[k];
  }
  return r;
}

inline DualInterval dual_neg(const DualInterval& a) {
  DualInterval r;
  r.nd = a.nd;
  r.v = Interval(-a.v.hi(), -a.v.lo());
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.dlo[k] = -a.dhi[k];
    r.dhi[k] = -a.dlo[k];
  }
  return r;
}

/// Product mirroring Interval::operator*= (min/max of the four endpoint
/// products, then outward), with tie-averaged tangent selection.
inline DualInterval dual_mul(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  const double al = a.v.lo(), ah = a.v.hi();
  const double bl = b.v.lo(), bh = b.v.hi();
  const double p[4] = {al * bl, al * bh, ah * bl, ah * bh};
  const double mn = std::min({p[0], p[1], p[2], p[3]});
  const double mx = std::max({p[0], p[1], p[2], p[3]});

  DualInterval r;
  r.nd = a.nd;
  r.v = outward(Interval(mn, mx));
  for (std::size_t k = 0; k < r.nd; ++k) {
    // Product-rule tangents of the four candidates.
    const double dp[4] = {
        a.dlo[k] * bl + al * b.dlo[k], a.dlo[k] * bh + al * b.dhi[k],
        a.dhi[k] * bl + ah * b.dlo[k], a.dhi[k] * bh + ah * b.dhi[k]};
    double mn_lo = 0.0, mn_hi = 0.0, mx_lo = 0.0, mx_hi = 0.0;
    bool mn_first = true, mx_first = true;
    for (int i = 0; i < 4; ++i) {
      if (p[i] == mn) {
        mn_lo = mn_first ? dp[i] : std::min(mn_lo, dp[i]);
        mn_hi = mn_first ? dp[i] : std::max(mn_hi, dp[i]);
        mn_first = false;
      }
      if (p[i] == mx) {
        mx_lo = mx_first ? dp[i] : std::min(mx_lo, dp[i]);
        mx_hi = mx_first ? dp[i] : std::max(mx_hi, dp[i]);
        mx_first = false;
      }
    }
    r.dlo[k] = 0.5 * (mn_lo + mn_hi);
    r.dhi[k] = 0.5 * (mx_lo + mx_hi);
  }
  return r;
}

inline DualInterval dual_mul_const(const DualInterval& a, const Interval& c) {
  return dual_mul(a, DualInterval::constant(c, a.nd));
}

/// Mirrors interval::hull (no outward), tie-averaging equal endpoints.
inline DualInterval dual_hull(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  DualInterval r;
  r.nd = a.nd;
  r.v = Interval(std::min(a.v.lo(), b.v.lo()), std::max(a.v.hi(), b.v.hi()));
  for (std::size_t k = 0; k < r.nd; ++k) {
    if (a.v.lo() < b.v.lo()) {
      r.dlo[k] = a.dlo[k];
    } else if (b.v.lo() < a.v.lo()) {
      r.dlo[k] = b.dlo[k];
    } else {
      r.dlo[k] = 0.5 * (std::min(a.dlo[k], b.dlo[k]) +
                        std::max(a.dlo[k], b.dlo[k]));
    }
    if (a.v.hi() > b.v.hi()) {
      r.dhi[k] = a.dhi[k];
    } else if (b.v.hi() > a.v.hi()) {
      r.dhi[k] = b.dhi[k];
    } else {
      r.dhi[k] = 0.5 * (std::min(a.dhi[k], b.dhi[k]) +
                        std::max(a.dhi[k], b.dhi[k]));
    }
  }
  return r;
}

/// widen() of interval.hpp: r = rad * factor + bump, m = mid, result
/// [m - r, m + r] (no outward).
inline DualInterval widen(const DualInterval& x, double factor, double bump) {
  const double r = x.v.rad() * factor + bump;
  const double m = x.v.mid();
  DualInterval out;
  out.nd = x.nd;
  out.v = Interval(m - r, m + r);
  for (std::size_t k = 0; k < x.nd; ++k) {
    const double dr = x.drad(k) * factor;
    const double dm = x.dmid(k);
    out.dlo[k] = dm - dr;
    out.dhi[k] = dm + dr;
  }
  return out;
}

// Interval's operators and hull on dual intervals, so the Taylor-model
// kernels and the Picard step read the same for both remainder types
// (same association as the scalar expressions they stand in).
inline DualInterval operator+(const DualInterval& a, const DualInterval& b) {
  return dual_add(a, b);
}
inline DualInterval operator-(const DualInterval& a, const DualInterval& b) {
  return dual_sub(a, b);
}
inline DualInterval operator*(const DualInterval& a, const DualInterval& b) {
  return dual_mul(a, b);
}
inline DualInterval& operator+=(DualInterval& a, const DualInterval& b) {
  return a = dual_add(a, b);
}
inline DualInterval hull(const DualInterval& a, const DualInterval& b) {
  return dual_hull(a, b);
}

/// The value channel (the interval itself for a plain Interval).
inline const Interval& value(const Interval& x) { return x; }
inline const Interval& value(const DualInterval& x) { return x.v; }

/// Accumulates ONLY the tangents of `m` into `s` (value untouched). Used
/// where the scalar pipeline skips an operation for an exactly-zero
/// coefficient whose perturbation would re-introduce it: the value channel
/// must keep skipping (bit-identity), the tangents must not.
inline void dual_add_tangents(DualInterval& s, const DualInterval& m) {
  assert(s.nd == m.nd);
  for (std::size_t k = 0; k < s.nd; ++k) {
    s.dlo[k] += m.dlo[k];
    s.dhi[k] += m.dhi[k];
  }
}

}  // namespace dwv::interval
