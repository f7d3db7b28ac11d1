// Forward-mode tangent bundle over Poly: a value polynomial plus one
// tangent polynomial per parameter direction, all sharing the packed-
// monomial representation and the *_into scratch discipline.
//
// The value channel of every dual operation performs EXACTLY the scalar
// Poly operation (same kernels, same term order), so dual pipelines keep
// their value bits identical to the scalar pipeline. Tangent polynomials
// ride along through the linear kernels (add/sub/mul are exact on the
// polynomial channel: d(ab) = (da)b + a(db) with the same mul_into code).
//
// Tangent-only keys — monomials whose value coefficient is exactly zero
// but whose theta-derivative is not (a controller gain currently at 0,
// a cancelled product term) — are first-class: they stay in the tangent
// polynomials (a +-h perturbation re-introduces the term with coefficient
// h*dc, far above the sweep cutoff, so perturbed runs keep it), and range
// queries account for them with the central-difference limit derived in
// dual_interval.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "interval/dual_interval.hpp"
#include "interval/ivec.hpp"
#include "poly/poly.hpp"

namespace dwv::poly {

struct DualPolyScratch;

struct DualPoly {
  Poly val;
  /// tan[k] = d(val)/d(theta_k); tan.size() == direction count.
  std::vector<Poly> tan;

  std::size_t dirs() const { return tan.size(); }

  /// Clears both channels and re-targets nvars/dirs (capacity retained).
  void reset(std::size_t nvars, std::size_t dirs) {
    val.reset(nvars);
    tan.resize(dirs);
    for (Poly& t : tan) t.reset(nvars);
  }

  /// Value-only initialization (all tangents zero).
  static DualPoly constant_like(const Poly& v, std::size_t dirs) {
    DualPoly r;
    r.val = v;
    r.tan.assign(dirs, Poly(v.nvars()));
    return r;
  }

  // Poly's channel kernels, applied per channel (out must not alias).
  static void add_into(const DualPoly& a, const DualPoly& b, DualPoly& out);
  static void sub_into(const DualPoly& a, const DualPoly& b, DualPoly& out);
  /// Value via Poly::mul_into, tangents by the product rule
  /// tan_k = a.tan_k * b.val + a.val * b.tan_k (same mul kernel).
  static void mul_into(const DualPoly& a, const DualPoly& b, DualPoly& out,
                       DualPolyScratch& s);
  void lift_vars_into(std::size_t new_nvars, DualPoly& out) const;
  void integrate_var_into(std::size_t var, DualPoly& out) const;
  void subst_last_into(double c, DualPoly& out, DualPolyScratch& s) const;
};

/// The value channel (the polynomial itself for a plain Poly).
inline const Poly& value(const Poly& p) { return p; }
inline const Poly& value(const DualPoly& p) { return p.val; }

/// Bitwise equality of the whole channel: the terms of a Poly, the value
/// and every tangent of a DualPoly.
inline bool same_terms(const Poly& a, const Poly& b) {
  return a.terms() == b.terms();
}
inline bool same_terms(const DualPoly& a, const DualPoly& b) {
  if (a.val.terms() != b.val.terms() || a.dirs() != b.dirs()) return false;
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    if (a.tan[k].terms() != b.tan[k].terms()) return false;
  }
  return true;
}

/// Scratch for the dual poly/TM kernels (the dual analogue of PolyScratch;
/// see DualTmScratch for ownership rules).
struct DualPolyScratch {
  PolyScratch ps;
  Poly t1;
  Poly t2;
  std::vector<std::uint64_t> keys;  ///< tangent-only key enumeration
};

/// Coefficient of `key` in `p` (0 when absent). Binary search over the
/// sorted term vector.
double coeff_of_key(const Poly& p, std::uint64_t key);

/// Collects, sorted ascending, every key present in some tangent channel
/// of `p` but absent from the value channel.
void tangent_only_keys(const DualPoly& p, std::vector<std::uint64_t>& out);

/// Forward-mode analogue of Poly::eval_range over domain `dom`: the value
/// channel replicates Poly::eval_range bit for bit (which RangeEngine's
/// kSeedIdentical mode also reproduces, so this matches TmEnv::poly_range
/// in the default mode); the tangent channel differentiates it.
///
/// Value-present terms chain dual multiplications whose selection follows
/// the actual endpoint comparisons. Tangent-only keys contribute
/// dc_k * mid2(K) to both endpoints, where K is the monomial's interval
/// product chain — the central-difference limit of re-introducing the term
/// with coefficient +-h*dc (see dual_interval.hpp).
interval::DualInterval dual_range(const DualPoly& p,
                                  const interval::IVec& dom,
                                  DualPolyScratch& s);

}  // namespace dwv::poly
