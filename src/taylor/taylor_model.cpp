#include "taylor/taylor_model.hpp"

#include <cassert>
#include <utility>

#include "taylor/tm_kernels.hpp"

namespace dwv::taylor {

using interval::Interval;
using poly::Poly;

TaylorModel tm_add(const TaylorModel& a, const TaylorModel& b) {
  return {a.poly + b.poly, a.rem + b.rem};
}

TaylorModel tm_sub(const TaylorModel& a, const TaylorModel& b) {
  return {a.poly - b.poly, a.rem - b.rem};
}

TaylorModel tm_scale(const TaylorModel& a, double s) {
  return {a.poly * s, a.rem * Interval(s)};
}

TaylorModel tm_add_const(const TaylorModel& a, double c) {
  TaylorModel r = a;
  r.poly.add_term(poly::Exponents(r.poly.nvars(), 0), c);
  return r;
}

void tm_truncate_inplace(const TmEnv& env, TaylorModel& tm) {
  TmScratch& s = env.scratch();
  if (s.rem_tape.mode == RemTape::kReplay) {
    // The poly (and hence its truncation tail) is bitwise-identical to the
    // recorded pass, so the taped tail range is the exact value the sweep
    // would recompute. The poly itself is left untouched.
    tm.rem += s.rem_tape.next();
    return;
  }
  if (s.poly_only) {
    // The truncation itself is polynomial-channel work; only ranging the
    // swept-away pieces feeds the (dead) remainder, so the sweeps fuse into
    // one discard pass.
    tm.poly.truncate_discard(env.order, env.cutoff);
    return;
  }
  tm.poly.split_by_degree_into(env.order, s.dropped);
  Interval extra(0.0);
  if (!s.dropped.is_zero()) extra += env.poly_range(s.dropped);
  if (env.cutoff > 0.0) {
    tm.poly.prune_small_into(env.cutoff, s.small);
    if (!s.small.is_zero()) extra += env.poly_range(s.small);
  }
  if (s.rem_tape.mode == RemTape::kRecord) s.rem_tape.push(extra);
  tm.rem += extra;
}

TaylorModel tm_truncate(const TmEnv& env, TaylorModel tm) {
  tm_truncate_inplace(env, tm);
  return tm;
}

void tm_mul_into(const TmEnv& env, const TaylorModel& a, const TaylorModel& b,
                 TaylorModel& out) {
  kernels::mul_into(env, a, b, out);
}

TaylorModel tm_mul(const TmEnv& env, const TaylorModel& a,
                   const TaylorModel& b) {
  TaylorModel r;
  tm_mul_into(env, a, b, r);
  return r;
}

void tm_pow_into(const TmEnv& env, const TaylorModel& a, std::uint32_t n,
                 TaylorModel& out) {
  kernels::pow_into(env, a, n, out);
}

TaylorModel tm_pow(const TmEnv& env, const TaylorModel& a, std::uint32_t n) {
  TaylorModel r;
  tm_pow_into(env, a, n, r);
  return r;
}

interval::Interval tm_range(const TmEnv& env, const TaylorModel& tm) {
  return kernels::range(env, tm);
}

void tm_eval_poly_into(const TmEnv& env, const poly::Poly& f,
                       const TmVec& args, TaylorModel& out) {
  kernels::eval_poly_into(env, f, args, out);
}

TaylorModel tm_eval_poly(const TmEnv& env, const poly::Poly& f,
                         const TmVec& args) {
  TaylorModel r;
  tm_eval_poly_into(env, f, args, r);
  return r;
}

void tm_integrate_time_into(const TmEnv& env, const TaylorModel& tm,
                            std::size_t time_var, TaylorModel& out) {
  kernels::integrate_time_into(env, tm, time_var, out);
}

TaylorModel tm_integrate_time(const TmEnv& env, const TaylorModel& tm,
                              std::size_t time_var) {
  TaylorModel r;
  tm_integrate_time_into(env, tm, time_var, r);
  return r;
}

void tm_subst_var_into(const TmEnv& env, const TaylorModel& tm,
                       std::size_t var, double c, TaylorModel& out) {
  assert(var < env.nvars());
  assert(env.dom[var].contains(c) && "substitution outside domain");
  assert(&out != &tm);
  const std::size_t nv = tm.poly.nvars();
  out.poly.reset(nv);
  poly::PolyScratch& ps = env.scratch().pscratch;
  std::vector<poly::Term>& buf = ps.prod;
  buf.clear();
  const std::uint64_t mask = poly::key_field_mask(nv)
                             << poly::key_shift(nv, var);
  for (const auto& [key, coeff] : tm.poly.terms()) {
    double scale = 1.0;
    const std::uint32_t e = poly::key_exp(key, nv, var);
    for (std::uint32_t k = 0; k < e; ++k) scale *= c;
    buf.push_back({key & ~mask, coeff * scale});
  }
  // Clearing the last variable's (least significant) field keeps keys
  // sorted; clearing any other field needs a stable re-sort so equal keys
  // stay in the original accumulation order.
  if (var + 1 != nv) poly::stable_sort_terms(buf, ps.tmp);
  Poly::coalesce_into(buf, out.poly);
  out.rem = tm.rem;
}

TaylorModel tm_subst_var(const TmEnv& env, const TaylorModel& tm,
                         std::size_t var, double c) {
  TaylorModel r;
  tm_subst_var_into(env, tm, var, c, r);
  return r;
}

void tm_subst_last_into(const TmEnv& env, const TaylorModel& tm, double c,
                        TaylorModel& out) {
  kernels::subst_last_into(env, tm, c, out);
}

double tm_eval_mid(const TaylorModel& tm, const linalg::Vec& x) {
  return tm.poly.eval(x);
}

interval::IVec tm_vec_range(const TmEnv& env, const TmVec& v) {
  return kernels::vec_range<interval::IVec>(env, v);
}

}  // namespace dwv::taylor
