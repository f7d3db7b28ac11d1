// Outward-rounded interval arithmetic.
//
// All reachable-set computation in this library rests on this type being
// *sound*: every operation returns an interval that contains the exact real
// result for every pair of points in the operands. Since we compute in
// double precision with round-to-nearest, each finite bound is widened
// outward by one ULP after every arithmetic operation (`outward()`), which
// dominates the rounding error of the underlying operation.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>

namespace dwv::interval {

/// Closed real interval [lo, hi] with outward rounding.
class Interval {
 public:
  /// Default: the degenerate interval [0, 0].
  constexpr Interval() = default;
  /// Degenerate point interval.
  constexpr explicit Interval(double x) : lo_(x), hi_(x) {}
  constexpr Interval(double lo, double hi) : lo_(lo), hi_(hi) {
    assert(!(lo > hi) && "Interval bounds out of order");
  }

  static constexpr Interval entire() {
    return Interval(-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity());
  }
  /// Symmetric interval [-r, r].
  static Interval symmetric(double r) {
    const double a = std::abs(r);
    return Interval(-a, a);
  }

  constexpr double lo() const { return lo_; }
  constexpr double hi() const { return hi_; }
  double mid() const { return 0.5 * (lo_ + hi_); }
  double rad() const { return 0.5 * (hi_ - lo_); }
  double width() const { return hi_ - lo_; }
  /// Magnitude: max |x| over the interval.
  double mag() const { return std::max(std::abs(lo_), std::abs(hi_)); }
  /// Mignitude: min |x| over the interval (0 when it straddles zero).
  double mig() const {
    if (contains(0.0)) return 0.0;
    return std::min(std::abs(lo_), std::abs(hi_));
  }

  bool contains(double x) const { return lo_ <= x && x <= hi_; }
  bool contains(const Interval& o) const {
    return lo_ <= o.lo_ && o.hi_ <= hi_;
  }
  bool intersects(const Interval& o) const {
    return lo_ <= o.hi_ && o.lo_ <= hi_;
  }
  bool is_point() const { return lo_ == hi_; }
  bool is_finite() const { return std::isfinite(lo_) && std::isfinite(hi_); }

  Interval& operator+=(const Interval& o);
  Interval& operator-=(const Interval& o);
  Interval& operator*=(const Interval& o);
  Interval& operator/=(const Interval& o);

  friend Interval operator+(Interval a, const Interval& b) { return a += b; }
  friend Interval operator-(Interval a, const Interval& b) { return a -= b; }
  friend Interval operator*(Interval a, const Interval& b) { return a *= b; }
  friend Interval operator/(Interval a, const Interval& b) { return a /= b; }
  friend Interval operator-(const Interval& a) {
    return Interval(-a.hi_, -a.lo_);
  }
  friend Interval operator+(Interval a, double s) { return a += Interval(s); }
  friend Interval operator+(double s, Interval a) { return a += Interval(s); }
  friend Interval operator-(Interval a, double s) { return a -= Interval(s); }
  friend Interval operator-(double s, const Interval& a) {
    return Interval(s) - a;
  }
  friend Interval operator*(Interval a, double s) { return a *= Interval(s); }
  friend Interval operator*(double s, Interval a) { return a *= Interval(s); }
  friend Interval operator/(Interval a, double s) { return a /= Interval(s); }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

  friend std::ostream& operator<<(std::ostream& os, const Interval& v) {
    return os << '[' << v.lo_ << ", " << v.hi_ << ']';
  }

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
};

namespace detail {

// One-ULP steps, bit-identical to std::nextafter(x, +-inf) for every
// finite double (including signed zeros and subnormals) and the identity
// on non-finite inputs — inlined bit arithmetic instead of a libm call,
// because outward() runs after every interval operation and sits on the
// flowpipe hot path.
inline double ulp_up(double x) {
  if (!std::isfinite(x)) return x;
  std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  if (b == 0x8000000000000000ULL) b = 0;  // -0.0 steps like +0.0
  b = (b >> 63) ? b - 1 : b + 1;
  return std::bit_cast<double>(b);
}
inline double ulp_down(double x) { return -ulp_up(-x); }

}  // namespace detail

/// Widens each finite bound outward by one ULP; the post-operation rounding
/// guard that makes every arithmetic result a sound enclosure.
inline Interval outward(const Interval& v) {
  return Interval(detail::ulp_down(v.lo()), detail::ulp_up(v.hi()));
}

// The ring operations are inline: they dominate the instruction stream of
// every range bound and flowpipe step. Division stays out of line (it
// branches on zero-straddling operands and is comparatively rare).
inline Interval& Interval::operator+=(const Interval& o) {
  *this = outward(Interval(lo_ + o.lo_, hi_ + o.hi_));
  return *this;
}

inline Interval& Interval::operator-=(const Interval& o) {
  *this = outward(Interval(lo_ - o.hi_, hi_ - o.lo_));
  return *this;
}

inline Interval& Interval::operator*=(const Interval& o) {
  const double p1 = lo_ * o.lo_;
  const double p2 = lo_ * o.hi_;
  const double p3 = hi_ * o.lo_;
  const double p4 = hi_ * o.hi_;
  *this = outward(Interval(std::min({p1, p2, p3, p4}),
                           std::max({p1, p2, p3, p4})));
  return *this;
}

/// Intersection; empty results are reported via `ok = false`.
struct IntersectResult {
  Interval value;
  bool ok = false;
};
IntersectResult intersect(const Interval& a, const Interval& b);

/// Smallest interval containing both operands.
Interval hull(const Interval& a, const Interval& b);

/// [m - r, m + r] with m = v.mid() and r = v.rad() * factor + bump (no
/// outward rounding): the inflation step of the TM remainder validation.
inline Interval widen(const Interval& v, double factor, double bump) {
  const double r = v.rad() * factor + bump;
  const double m = v.mid();
  return Interval(m - r, m + r);
}

/// Sound enclosures of elementary functions over intervals. All are
/// monotone-decomposition based with outward rounding.
Interval sqr(const Interval& v);
Interval pow_n(const Interval& v, unsigned n);
Interval exp(const Interval& v);
Interval sqrt(const Interval& v);
Interval tanh(const Interval& v);
Interval sigmoid(const Interval& v);
Interval relu(const Interval& v);
Interval sin(const Interval& v);
Interval cos(const Interval& v);
Interval abs(const Interval& v);

}  // namespace dwv::interval
