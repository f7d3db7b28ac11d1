// The Taylor-model kernels, written once over the model type. The scalar
// public functions of taylor_model.hpp instantiate them for TaylorModel,
// those of dual_tm.hpp for DualTm, so the gradient pass runs the value
// pipeline's own code on dual models. A model supplies only primitives,
// as plain overloads:
//  - its polynomial channel's kernels: P::add_into / sub_into / mul_into,
//    integrate_var_into and subst_last_into (Poly, or DualPoly per
//    channel) with the scratch member `pscratch`;
//  - tm_truncate_inplace and env.poly_range;
//  - remainder arithmetic (Interval, or DualInterval's operators);
//  - rem_constant, assign_constant, assign_coefficient and
//    add_tangent_only_terms (a no-op for scalar models).
// Included only by taylor_model.cpp and dual_tm.cpp.
#pragma once

#include <cassert>
#include <type_traits>
#include <utility>
#include <vector>

#include "interval/dual_interval.hpp"
#include "poly/dual_poly.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::taylor::kernels {

template <class Model>
using PolyOf = std::remove_cvref_t<decltype(std::declval<Model>().poly)>;

/// Product with truncation to env.order and remainder bookkeeping; out
/// must not alias a or b.
template <class Env, class Model>
void mul_into(const Env& env, const Model& a, const Model& b, Model& out) {
  assert(&out != &a && &out != &b);
  auto& s = env.scratch();
  if (s.rem_tape.mode == s.rem_tape.kReplay) {
    const auto ra = s.rem_tape.next();
    const auto rb = s.rem_tape.next();
    out.rem = ra * b.rem + rb * a.rem + a.rem * b.rem;
    tm_truncate_inplace(env, out);
    return;
  }
  if (s.poly_only) {
    PolyOf<Model>::mul_into(a.poly, b.poly, out.poly, s.pscratch);
    out.rem = rem_constant(env, interval::Interval(0.0));
    tm_truncate_inplace(env, out);
    return;
  }
  // (pa + Ia)(pb + Ib) = pa pb + pa Ib + pb Ia + Ia Ib.
  PolyOf<Model>::mul_into(a.poly, b.poly, out.poly, s.pscratch);
  const auto ra = env.poly_range(a.poly);
  const auto rb = env.poly_range(b.poly);
  if (s.rem_tape.mode == s.rem_tape.kRecord) {
    s.rem_tape.push(ra);
    s.rem_tape.push(rb);
  }
  out.rem = ra * b.rem + rb * a.rem + a.rem * b.rem;
  tm_truncate_inplace(env, out);
}

/// Integer power: n <= 3 multiplies left to right (the legacy chain),
/// n >= 4 squares and multiplies. out must not alias a.
template <class Env, class Model>
void pow_into(const Env& env, const Model& a, std::uint32_t n, Model& out) {
  assert(&out != &a);
  auto& s = env.scratch();
  // In replay mode the copies below move only the remainder: the poly
  // channel is never read (mul_into takes its operand ranges from the
  // tape) and output polys are dead.
  const bool rp = s.rem_tape.mode == s.rem_tape.kReplay;
  switch (n) {
    case 0:
      if (rp) out.rem = rem_constant(env, interval::Interval(0.0));
      else assign_constant(env, out, 1.0);
      return;
    case 1:
      if (rp) out.rem = a.rem;
      else out = a;
      return;
    case 2:
      mul_into(env, a, a, out);
      return;
    case 3:
      // Legacy left-to-right chain ((a*a)*a), kept bit-identical.
      mul_into(env, a, a, s.pow_tmp);
      mul_into(env, s.pow_tmp, a, out);
      return;
    default:
      break;
  }
  // Square-and-multiply; mul_into truncates, so each squaring is truncated.
  if (rp) s.pow_base.rem = a.rem;
  else s.pow_base = a;
  bool has_r = false;
  std::uint32_t k = n;
  while (k > 0) {
    if (k & 1u) {
      if (!has_r) {
        if (rp) out.rem = s.pow_base.rem;
        else out = s.pow_base;
        has_r = true;
      } else {
        mul_into(env, out, s.pow_base, s.pow_tmp);
        std::swap(out, s.pow_tmp);
      }
    }
    k >>= 1u;
    if (k) {
      mul_into(env, s.pow_base, s.pow_base, s.pow_tmp);
      std::swap(s.pow_base, s.pow_tmp);
    }
  }
}

/// Sound enclosure of the model's range over env.dom.
template <class Env, class Model>
auto range(const Env& env, const Model& tm) {
  return env.poly_range(tm.poly) + tm.rem;
}

/// Box hull of a model vector's range, as a `Ranges` of the remainders.
template <class Ranges, class Env, class Model>
Ranges vec_range(const Env& env, const std::vector<Model>& v) {
  Ranges r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) r[i] = range(env, v[i]);
  return r;
}

/// f(args) for a polynomial f over the argument models; out must not
/// alias any element of args.
template <class Env, class F, class Model>
void eval_poly_into(const Env& env, const F& f, const std::vector<Model>& args,
                    Model& out) {
  const poly::Poly& fv = value(f);
  assert(fv.nvars() == args.size());
  auto& s = env.scratch();
  // Replay: same op sequence (f's terms and exponents fix the loop shape),
  // remainder arithmetic only; the poly adds are dead in replay because
  // every consumer takes its poly-derived constants from the tape.
  const bool rp = s.rem_tape.mode == s.rem_tape.kReplay;
  if (rp) s.acc.rem = rem_constant(env, interval::Interval(0.0));
  else assign_constant(env, s.acc, 0.0);
  for (const auto& [key, c] : fv.terms()) {
    if (rp) s.term.rem = rem_constant(env, interval::Interval(0.0));
    else assign_coefficient(env, f, key, c, s.term);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::uint32_t e = poly::key_exp(key, fv.nvars(), i);
      if (e == 1) {
        // a^1 is a; multiplying by the argument directly skips pow_into's
        // copy of it (the mul reads the same operand values either way).
        mul_into(env, s.term, args[i], s.mul_out);
        std::swap(s.term, s.mul_out);
      } else if (e > 1) {
        pow_into(env, args[i], e, s.pow_out);
        mul_into(env, s.term, s.pow_out, s.mul_out);
        std::swap(s.term, s.mul_out);
      }
    }
    if (!rp) PolyOf<Model>::add_into(s.acc.poly, s.term.poly, s.add_out.poly);
    s.add_out.rem = s.acc.rem + s.term.rem;
    std::swap(s.acc, s.add_out);
  }
  add_tangent_only_terms(env, f, args, s.acc);
  std::swap(out, s.acc);
  tm_truncate_inplace(env, out);
}

/// Antiderivative in variable `time_var` from 0; the remainder becomes
/// hull(0, rem * max|time|). out must not alias tm.
template <class Env, class Model>
void integrate_time_into(const Env& env, const Model& tm, std::size_t time_var,
                         Model& out) {
  assert(time_var < env.nvars());
  assert(&out != &tm);
  auto& s = env.scratch();
  const auto zero = rem_constant(env, interval::Interval(0.0));
  if (s.rem_tape.mode == s.rem_tape.kReplay) {
    const double rtmax = env.dom[time_var].mag();
    out.rem = hull(zero, tm.rem * rem_constant(env, interval::Interval(rtmax)));
    tm_truncate_inplace(env, out);
    return;
  }
  tm.poly.integrate_var_into(time_var, out.poly);
  // integral_0^tau e dtau' for |tau| <= tmax: contained in hull(0, rem*tmax).
  if (s.poly_only) {
    out.rem = zero;
  } else {
    const double tmax = env.dom[time_var].mag();
    out.rem = hull(zero, tm.rem * rem_constant(env, interval::Interval(tmax)));
  }
  tm_truncate_inplace(env, out);
}

/// The last variable fixed at `c` and dropped; out must not alias tm.
template <class Env, class Model>
void subst_last_into(const Env& env, const Model& tm, double c, Model& out) {
  assert(env.dom[env.nvars() - 1].contains(c) &&
         "substitution outside domain");
  tm.poly.subst_last_into(c, out.poly, env.scratch().pscratch);
  out.rem = tm.rem;
}

}  // namespace dwv::taylor::kernels
