#include "taylor/dual_tm.hpp"

#include <cassert>
#include <utility>

#include "taylor/tm_kernels.hpp"

namespace dwv::taylor {

using interval::DualInterval;
using interval::Interval;
using poly::DualPoly;
using poly::Poly;

DualTm dual_tm_add(const DualTm& a, const DualTm& b) {
  DualTm r;
  DualPoly::add_into(a.poly, b.poly, r.poly);
  r.rem = a.rem + b.rem;
  return r;
}

DualTm dual_tm_scale_dir(const DualTm& a, double s, std::size_t dir) {
  const std::size_t nd = a.poly.dirs();
  DualTm r;
  r.poly.val = a.poly.val * s;
  r.poly.tan.resize(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    r.poly.tan[k] = a.poly.tan[k] * s;
    if (k == dir) {
      // d(s p) = s dp + p (the weight's own derivative is 1 along dir).
      Poly tmp;
      Poly::add_into(r.poly.tan[k], a.poly.val, tmp);
      r.poly.tan[k] = std::move(tmp);
    }
  }
  DualInterval si = DualInterval::constant(Interval(s), nd);
  if (dir != kNoDir) {
    si.dlo[dir] = 1.0;
    si.dhi[dir] = 1.0;
  }
  r.rem = dual_mul(a.rem, si);
  return r;
}

void tm_truncate_inplace(const DualTmEnv& env, DualTm& tm) {
  DualTmScratch& s = env.scratch();
  const std::size_t nd = env.dirs;

  // Degree split is structural (theta-independent), so both channels split.
  tm.poly.val.split_by_degree_into(env.order, s.dropped.val);
  s.dropped.tan.resize(nd);
  bool tan_dropped = false;
  for (std::size_t k = 0; k < nd; ++k) {
    tm.poly.tan[k].split_by_degree_into(env.order, s.dropped.tan[k]);
    tan_dropped = tan_dropped || !s.dropped.tan[k].is_zero();
  }

  DualInterval extra = DualInterval::constant(Interval(0.0), nd);
  const bool val_dropped = !s.dropped.val.is_zero();
  if (val_dropped || tan_dropped) {
    const DualInterval dr = poly::dual_range(s.dropped, env.dom, s.pscratch);
    if (val_dropped) {
      extra = dual_add(extra, dr);
    } else {
      // Scalar code skips the range query entirely (dropped poly empty);
      // the value channel must keep skipping, tangents still accrue.
      dual_add_tangents(extra, dr);
    }
  }

  if (env.cutoff > 0.0) {
    // Value-channel sweep exactly as scalar. Tangent terms of the pruned
    // keys stay in the tangent polynomials: a +-h perturbation puts the
    // coefficient at ~h*dc, far above the cutoff, so perturbed runs KEEP
    // the term — the kept-path derivative is what central differences see.
    tm.poly.val.prune_small_into(env.cutoff, s.small);
    if (!s.small.is_zero()) {
      extra = dual_add(
          extra, DualInterval::constant(s.small.eval_range(env.dom), nd));
    }
  }
  tm.rem = dual_add(tm.rem, extra);
}

void assign_coefficient(const DualTmEnv& env, const DualPoly& f,
                        std::uint64_t key, double c, DualTm& m) {
  double dc[DualInterval::kMaxDirs];
  for (std::size_t k = 0; k < env.dirs; ++k) {
    dc[k] = poly::coeff_of_key(f.tan[k], key);
  }
  m.assign_constant(env.nvars(), env.dirs, c, dc);
}

void add_tangent_only_terms(const DualTmEnv& env, const DualPoly& f,
                            const DualTmVec& args, DualTm& acc) {
  DualTmScratch& s = env.scratch();
  poly::tangent_only_keys(f, s.fkeys);
  if (s.fkeys.empty()) return;
  // The remainder-channel sensitivity is the central-difference limit
  // dc * mid2(prod.rem) on both endpoints (dual_interval.hpp).
  const std::size_t fn = f.val.nvars();
  TmEnv& se = s.side_env;
  se.dom = env.dom;
  se.order = env.order;
  se.cutoff = env.cutoff;
  s.side_args.resize(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    s.side_args[i].poly = args[i].poly.val;
    s.side_args[i].rem = args[i].rem.v;
  }
  for (std::uint64_t key : s.fkeys) {
    s.side_term.assign_constant(env.nvars(), 1.0);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::uint32_t e = poly::key_exp(key, fn, i);
      if (e == 1) {
        tm_mul_into(se, s.side_term, s.side_args[i], s.side_mul);
        std::swap(s.side_term, s.side_mul);
      } else if (e > 1) {
        tm_pow_into(se, s.side_args[i], e, s.side_pow);
        tm_mul_into(se, s.side_term, s.side_pow, s.side_mul);
        std::swap(s.side_term, s.side_mul);
      }
    }
    const double m2 = interval::mid2(s.side_term.rem);
    for (std::size_t k = 0; k < env.dirs; ++k) {
      const double d = poly::coeff_of_key(f.tan[k], key);
      if (d == 0.0) continue;
      s.pscratch.t1 = s.side_term.poly;
      s.pscratch.t1 *= d;
      Poly::add_into(acc.poly.tan[k], s.pscratch.t1, s.pscratch.t2);
      std::swap(acc.poly.tan[k], s.pscratch.t2);
      acc.rem.dlo[k] += d * m2;
      acc.rem.dhi[k] += d * m2;
    }
  }
}

void tm_eval_poly_into(const DualTmEnv& env, const DualPoly& f,
                       const DualTmVec& args, DualTm& out) {
  kernels::eval_poly_into(env, f, args, out);
}

void tm_integrate_time_into(const DualTmEnv& env, const DualTm& tm,
                            std::size_t time_var, DualTm& out) {
  kernels::integrate_time_into(env, tm, time_var, out);
}

void tm_subst_last_into(const DualTmEnv& env, const DualTm& tm, double c,
                        DualTm& out) {
  kernels::subst_last_into(env, tm, c, out);
}

DualInterval tm_range(const DualTmEnv& env, const DualTm& tm) {
  return kernels::range(env, tm);
}

std::vector<DualInterval> tm_vec_range(const DualTmEnv& env,
                                       const DualTmVec& v) {
  return kernels::vec_range<std::vector<DualInterval>>(env, v);
}

DualTm dual_tm_affine(const DualTmEnv& env, const DualTmVec& in,
                      const linalg::Vec& w,
                      const std::vector<std::size_t>& wdir, double b) {
  assert(in.size() == w.size() && wdir.size() == w.size());
  const std::size_t nd = env.dirs;
  DualTm acc;
  acc.assign_constant(env.nvars(), nd, b, nullptr);
  for (std::size_t j = 0; j < in.size(); ++j) {
    if (w[j] != 0.0) {
      acc = dual_tm_add(acc, dual_tm_scale_dir(in[j], w[j], wdir[j]));
    } else if (wdir[j] != kNoDir) {
      // Scalar code skips w_j == 0; the value channel must too. The
      // contribution's derivative along wdir[j] is in_j itself (w d(in_j)
      // vanishes at w = 0): value-channel poly into the tangent poly,
      // mid2(in_j.rem) onto both remainder endpoints.
      const std::size_t k = wdir[j];
      Poly tmp;
      Poly::add_into(acc.poly.tan[k], in[j].poly.val, tmp);
      acc.poly.tan[k] = std::move(tmp);
      const double m2 = interval::mid2(in[j].rem.v);
      acc.rem.dlo[k] += m2;
      acc.rem.dhi[k] += m2;
    }
  }
  tm_truncate_inplace(env, acc);
  return acc;
}

}  // namespace dwv::taylor
