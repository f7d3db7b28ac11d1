#include "poly/dual_poly.hpp"

#include <algorithm>
#include <cassert>

namespace dwv::poly {

using interval::DualInterval;
using interval::Interval;

double coeff_of_key(const Poly& p, std::uint64_t key) {
  const std::vector<Term>& t = p.terms();
  auto it = std::lower_bound(
      t.begin(), t.end(), key,
      [](const Term& a, std::uint64_t k) { return a.key < k; });
  return (it != t.end() && it->key == key) ? it->coeff : 0.0;
}

void tangent_only_keys(const DualPoly& p, std::vector<std::uint64_t>& out) {
  out.clear();
  for (const Poly& t : p.tan) {
    for (const Term& term : t.terms()) out.push_back(term.key);
  }
  if (out.empty()) return;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](std::uint64_t k) {
                             return coeff_of_key(p.val, k) != 0.0;
                           }),
            out.end());
}

void DualPoly::add_into(const DualPoly& a, const DualPoly& b, DualPoly& out) {
  assert(a.dirs() == b.dirs());
  out.tan.resize(a.dirs());
  Poly::add_into(a.val, b.val, out.val);
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    Poly::add_into(a.tan[k], b.tan[k], out.tan[k]);
  }
}

void DualPoly::sub_into(const DualPoly& a, const DualPoly& b, DualPoly& out) {
  assert(a.dirs() == b.dirs());
  out.tan.resize(a.dirs());
  Poly::sub_into(a.val, b.val, out.val);
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    Poly::sub_into(a.tan[k], b.tan[k], out.tan[k]);
  }
}

void DualPoly::mul_into(const DualPoly& a, const DualPoly& b, DualPoly& out,
                        DualPolyScratch& s) {
  assert(a.dirs() == b.dirs());
  out.tan.resize(a.dirs());
  Poly::mul_into(a.val, b.val, out.val, s.ps);
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    Poly::mul_into(a.tan[k], b.val, s.t1, s.ps);
    Poly::mul_into(a.val, b.tan[k], s.t2, s.ps);
    Poly::add_into(s.t1, s.t2, out.tan[k]);
  }
}

void DualPoly::lift_vars_into(std::size_t new_nvars, DualPoly& out) const {
  val.lift_vars_into(new_nvars, out.val);
  out.tan.resize(dirs());
  for (std::size_t k = 0; k < dirs(); ++k) {
    tan[k].lift_vars_into(new_nvars, out.tan[k]);
  }
}

void DualPoly::integrate_var_into(std::size_t var, DualPoly& out) const {
  val.integrate_var_into(var, out.val);
  out.tan.resize(dirs());
  for (std::size_t k = 0; k < dirs(); ++k) {
    tan[k].integrate_var_into(var, out.tan[k]);
  }
}

void DualPoly::subst_last_into(double c, DualPoly& out,
                               DualPolyScratch& s) const {
  val.subst_last_into(c, out.val, s.ps);
  out.tan.resize(dirs());
  for (std::size_t k = 0; k < dirs(); ++k) {
    tan[k].subst_last_into(c, out.tan[k], s.ps);
  }
}

DualInterval dual_range(const DualPoly& p, const interval::IVec& dom,
                        DualPolyScratch& s) {
  const std::size_t nvars = p.val.nvars();
  const std::size_t nd = p.dirs();
  assert(dom.size() == nvars);
  const std::uint32_t bits = key_bits(nvars);
  const std::uint64_t mask = key_field_mask(nvars);

  // Value-present terms: the exact Poly::eval_range loop on the value
  // channel, with the coefficient's tangents threaded through the same
  // endpoint selections.
  DualInterval acc = DualInterval::constant(Interval(0.0), nd);
  for (const Term& t : p.val.terms()) {
    DualInterval m = DualInterval::constant(Interval(t.coeff), nd);
    for (std::size_t k = 0; k < nd; ++k) {
      const double dc = coeff_of_key(p.tan[k], t.key);
      m.dlo[k] = dc;
      m.dhi[k] = dc;
    }
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (t.key >> (bits * (nvars - 1 - i))) & mask);
      if (e > 0) m = dual_mul_const(m, interval::pow_n(dom[i], e));
    }
    acc = dual_add(acc, m);
  }

  // Tangent-only keys: the value channel never sees them (bit-identity),
  // both endpoints pick up dc_k * mid2(K) with K the monomial's interval
  // product chain (central-difference limit, see header).
  tangent_only_keys(p, s.keys);
  for (std::uint64_t key : s.keys) {
    Interval kprod(1.0);
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (key >> (bits * (nvars - 1 - i))) & mask);
      if (e > 0) kprod *= interval::pow_n(dom[i], e);
    }
    const double m2 = interval::mid2(kprod);
    for (std::size_t k = 0; k < nd; ++k) {
      const double dc = coeff_of_key(p.tan[k], key);
      if (dc == 0.0) continue;
      acc.dlo[k] += dc * m2;
      acc.dhi[k] += dc * m2;
    }
  }
  return acc;
}

}  // namespace dwv::poly
