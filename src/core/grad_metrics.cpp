#include "core/grad_metrics.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "transport/emd.hpp"

namespace dwv::core {

using geom::Box;
using interval::DualInterval;
using ode::ReachAvoidSpec;
using reach::GradFlowpipe;

namespace {

constexpr std::size_t kMax = DualInterval::kMaxDirs;

// A scalar with a tangent per parameter direction (derivative bookkeeping
// for the metric accumulators; value channel mirrors the scalar code).
struct DScalar {
  double v = 0.0;
  std::size_t nd = 0;
  std::array<double, kMax> d{};

  static DScalar constant(double x, std::size_t nd) {
    DScalar r;
    r.v = x;
    r.nd = nd;
    return r;
  }
};

// max(a, b) with the central-difference tie convention: a tie averages the
// smallest and largest candidate tangent (dual_interval.hpp).
DScalar dmax(const DScalar& a, const DScalar& b) {
  if (a.v > b.v) return a;
  if (b.v > a.v) return b;
  DScalar r = a;
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.d[k] = 0.5 * (std::min(a.d[k], b.d[k]) + std::max(a.d[k], b.d[k]));
  }
  return r;
}

DScalar dmin(const DScalar& a, const DScalar& b) {
  if (a.v < b.v) return a;
  if (b.v < a.v) return b;
  DScalar r = a;
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.d[k] = 0.5 * (std::min(a.d[k], b.d[k]) + std::max(a.d[k], b.d[k]));
  }
  return r;
}

using DualBox = std::vector<DualInterval>;

DualBox project_dual(const DualBox& b, const std::vector<std::size_t>& dims) {
  DualBox r(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) r[i] = b[dims[i]];
  return r;
}

Box project_box(const Box& b, const std::vector<std::size_t>& dims) {
  interval::IVec v(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) v[i] = b[dims[i]];
  return Box(v);
}

// Mirrors Box::intersection against a theta-independent box `b` (value ==
// interval::intersect per dimension); false == std::nullopt.
bool dual_intersect_const(const DualBox& a, const Box& b, std::size_t nd,
                          DualBox& out) {
  out.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const DScalar alo = [&] {
      DScalar s = DScalar::constant(a[i].v.lo(), nd);
      for (std::size_t k = 0; k < nd; ++k) s.d[k] = a[i].dlo[k];
      return s;
    }();
    const DScalar ahi = [&] {
      DScalar s = DScalar::constant(a[i].v.hi(), nd);
      for (std::size_t k = 0; k < nd; ++k) s.d[k] = a[i].dhi[k];
      return s;
    }();
    const DScalar lo = dmax(alo, DScalar::constant(b[i].lo(), nd));
    const DScalar hi = dmin(ahi, DScalar::constant(b[i].hi(), nd));
    if (lo.v > hi.v) return false;
    out[i].v = interval::Interval(lo.v, hi.v);
    out[i].nd = nd;
    for (std::size_t k = 0; k < nd; ++k) {
      out[i].dlo[k] = lo.d[k];
      out[i].dhi[k] = hi.d[k];
    }
  }
  return true;
}

// Mirrors Box::volume (sequential product of widths).
DScalar dual_volume(const DualBox& b, std::size_t nd) {
  const std::size_t n = b.size();
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = b[i].v.width();

  DScalar r = DScalar::constant(1.0, nd);
  for (std::size_t i = 0; i < n; ++i) r.v *= w[i];
  // d(prod w_i) = sum_i dw_i * prod_{j != i} w_j (prefix/suffix products).
  std::vector<double> pre(n + 1, 1.0), suf(n + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) pre[i + 1] = pre[i] * w[i];
  for (std::size_t i = n; i-- > 0;) suf[i] = suf[i + 1] * w[i];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < nd; ++k) {
      const double dw = b[i].dhi[k] - b[i].dlo[k];
      r.d[k] += dw * pre[i] * suf[i + 1];
    }
  }
  return r;
}

// Mirrors Box::distance_to against a theta-independent box, returning the
// SQUARED distance as the scalar metric code uses it (d = sqrt(s); d * d),
// with tangent = d(s)/d(theta) (the exact derivative of d^2).
DScalar dual_d2_to_const(const DualBox& a, const Box& b, std::size_t nd) {
  double s = 0.0;
  DScalar ds = DScalar::constant(0.0, nd);
  for (std::size_t i = 0; i < a.size(); ++i) {
    DScalar c1 = DScalar::constant(a[i].v.lo() - b[i].hi(), nd);
    DScalar c2 = DScalar::constant(b[i].lo() - a[i].v.hi(), nd);
    for (std::size_t k = 0; k < nd; ++k) {
      c1.d[k] = a[i].dlo[k];
      c2.d[k] = -a[i].dhi[k];
    }
    const DScalar gap =
        dmax(DScalar::constant(0.0, nd), dmax(c1, c2));
    s += gap.v * gap.v;
    for (std::size_t k = 0; k < nd; ++k) {
      ds.d[k] += 2.0 * gap.v * gap.d[k];
    }
  }
  const double d = std::sqrt(s);
  ds.v = d * d;
  return ds;
}

// Shared body of the two geometric metrics: iterate dual boxes against a
// theta-independent spec set, accumulating overlap volume and the minimum
// squared distance exactly as the scalar loops do.
struct OverlapAccum {
  DScalar overlap;
  DScalar min_d2;

  explicit OverlapAccum(std::size_t nd)
      : overlap(DScalar::constant(0.0, nd)),
        min_d2(DScalar::constant(std::numeric_limits<double>::infinity(),
                                 nd)) {}

  void add(const DualBox& box_d, const Box& set_p, std::size_t nd) {
    DualBox inter;
    if (dual_intersect_const(box_d, set_p, nd, inter)) {
      const DScalar v = dual_volume(inter, nd);
      overlap.v += v.v;
      for (std::size_t k = 0; k < nd; ++k) overlap.d[k] += v.d[k];
    } else {
      min_d2 = dmin(min_d2, dual_d2_to_const(box_d, set_p, nd));
    }
  }
};

MetricGrad to_metric(const DScalar& s, double sign) {
  MetricGrad m(s.nd);
  m.value = sign * s.v;
  for (std::size_t k = 0; k < s.nd; ++k) m.grad[k] = sign * s.d[k];
  return m;
}

double characteristic_size(const ReachAvoidSpec& spec) {
  double s = 0.0;
  for (std::size_t i = 0; i < spec.state_bounds.dim(); ++i)
    s = std::max(s, spec.state_bounds[i].width());
  return s;
}

double completed_fraction(const ReachAvoidSpec& spec,
                          const reach::Flowpipe& fp) {
  if (spec.steps == 0) return 0.0;
  const double done = static_cast<double>(fp.steps());
  return std::min(1.0, done / static_cast<double>(spec.steps));
}

// Dual last_box_goal_gap (metrics.cpp): value identical; tangent of
// distance_to_in through the dual last box. All guards branch on values.
DScalar dual_goal_gap(const ReachAvoidSpec& spec, const GradFlowpipe& gfp) {
  const std::size_t nd = gfp.dirs;
  if (gfp.fp.step_sets.empty()) return DScalar::constant(0.0, nd);
  const Box& last = gfp.fp.step_sets.back();
  if (!last.bounds().max_mag() || last.bounds().max_mag() > 1e12) {
    return DScalar::constant(0.0, nd);
  }
  const auto gc = spec.goal.intersection(spec.state_bounds);
  const Box goal = gc ? *gc : spec.goal;

  const DualBox& last_d = gfp.step_sets_d.back();
  double s = 0.0;
  DScalar ds = DScalar::constant(0.0, nd);
  for (std::size_t i : spec.goal_dims) {
    DScalar c1 = DScalar::constant(last_d[i].v.lo() - goal[i].hi(), nd);
    DScalar c2 = DScalar::constant(goal[i].lo() - last_d[i].v.hi(), nd);
    for (std::size_t k = 0; k < nd; ++k) {
      c1.d[k] = last_d[i].dlo[k];
      c2.d[k] = -last_d[i].dhi[k];
    }
    const DScalar gap = dmax(DScalar::constant(0.0, nd), dmax(c1, c2));
    s += gap.v * gap.v;
    for (std::size_t k = 0; k < nd; ++k) ds.d[k] += 2.0 * gap.v * gap.d[k];
  }
  DScalar r = DScalar::constant(std::sqrt(s), nd);
  if (s > 0.0) {
    const double inv = 0.5 / r.v;
    for (std::size_t k = 0; k < nd; ++k) r.d[k] = inv * ds.d[k];
  }
  return r;
}

}  // namespace

GeometricMetricsGrad geometric_metrics_grad(const GradFlowpipe& gfp,
                                            const ReachAvoidSpec& spec) {
  const std::size_t nd = gfp.dirs;
  assert(gfp.fp.step_polys.empty() &&
         "polygon flowpipes are not produced by the gradient engine");
  assert(gfp.interval_hulls_d.size() == gfp.fp.interval_hulls.size());
  assert(gfp.step_sets_d.size() == gfp.fp.step_sets.size());

  GeometricMetricsGrad out;

  // d_u over the whole-interval hulls.
  {
    OverlapAccum acc(nd);
    const Box up = project_box(spec.unsafe, spec.unsafe_dims);
    for (const DualBox& hull : gfp.interval_hulls_d) {
      acc.add(project_dual(hull, spec.unsafe_dims), up, nd);
    }
    out.d_u = acc.overlap.v > 0.0 ? to_metric(acc.overlap, -1.0)
                                  : to_metric(acc.min_d2, 1.0);
  }

  // d_g over the control-instant step sets.
  {
    OverlapAccum acc(nd);
    const Box gp = project_box(spec.goal, spec.goal_dims);
    for (const DualBox& step : gfp.step_sets_d) {
      acc.add(project_dual(step, spec.goal_dims), gp, nd);
    }
    out.d_g = acc.overlap.v > 0.0 ? to_metric(acc.overlap, 1.0)
                                  : to_metric(acc.min_d2, -1.0);
  }
  return out;
}

MetricGrad goal_containment_margin_grad(const GradFlowpipe& gfp,
                                        const ReachAvoidSpec& spec) {
  const std::size_t nd = gfp.dirs;
  DScalar m = DScalar::constant(-std::numeric_limits<double>::infinity(), nd);
  if (!gfp.fp.valid) return to_metric(m, 1.0);
  for (const DualBox& step : gfp.step_sets_d) {
    DScalar s =
        DScalar::constant(std::numeric_limits<double>::infinity(), nd);
    for (std::size_t i = 0; i < step.size(); ++i) {
      DScalar hi_gap =
          DScalar::constant(spec.goal[i].hi() - step[i].v.hi(), nd);
      DScalar lo_gap =
          DScalar::constant(step[i].v.lo() - spec.goal[i].lo(), nd);
      for (std::size_t k = 0; k < nd; ++k) {
        hi_gap.d[k] = -step[i].dhi[k];
        lo_gap.d[k] = step[i].dlo[k];
      }
      s = dmin(s, dmin(hi_gap, lo_gap));
    }
    m = dmax(m, s);
  }
  return to_metric(m, 1.0);
}

WassersteinMetricsGrad wasserstein_metrics_grad(const GradFlowpipe& gfp,
                                                const ReachAvoidSpec& spec,
                                                const WassersteinOptions& opt) {
  const std::size_t nd = gfp.dirs;
  const Box& last = gfp.fp.step_sets.back();
  const DualBox& last_d = gfp.step_sets_d.back();

  // clamp_into, verbatim from wasserstein_metrics (theta-independent).
  const auto clamp_into = [](const Box& b, const Box& bounds) {
    interval::IVec v(b.dim());
    for (std::size_t i = 0; i < b.dim(); ++i) {
      double lo = std::max(b[i].lo(), bounds[i].lo());
      double hi = std::min(b[i].hi(), bounds[i].hi());
      if (lo > hi) {
        const double point =
            b[i].lo() > bounds[i].hi() ? bounds[i].hi() : bounds[i].lo();
        lo = hi = point;
      }
      v[i] = interval::Interval(lo, hi);
    }
    return Box(v);
  };

  const auto w1 = [&](const Box& set_box,
                      const std::vector<std::size_t>& dims) {
    const Box& r_box = last;
    const Box s_box = clamp_into(set_box, spec.state_bounds);

    const auto ra = transport::uniform_on_box_dims(r_box, dims, opt.grid);
    const auto sa = transport::uniform_on_box_dims(s_box, dims, opt.grid);
    thread_local transport::TransportWorkspace ws;
    const transport::EmdResult res = transport::emd_exact(ra, sa, ws);

    MetricGrad m(nd);
    m.value = res.cost;

    // Danskin: hold the optimal plan fixed and differentiate the cost
    // matrix through the grid points of r_box. A grid point's coordinate
    // in projected dimension q is lo + w * (idx_q + 0.5) with
    // w = width / grid, so d(x_q) = dlo * (1 - t) + dhi * t at
    // t = (idx_q + 0.5) / grid (uniform_on_box's odometer increments
    // dimension 0 fastest).
    const std::size_t q_count = dims.size();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      std::vector<double> t(q_count);
      {
        std::size_t rem = i;
        for (std::size_t q = 0; q < q_count; ++q) {
          const std::size_t idx = rem % opt.grid;
          rem /= opt.grid;
          t[q] = (static_cast<double>(idx) + 0.5) /
                 static_cast<double>(opt.grid);
        }
      }
      for (std::size_t j = 0; j < sa.size(); ++j) {
        const double pi = res.plan[i][j];
        if (pi == 0.0) continue;
        const double c = (ra.points[i] - sa.points[j]).norm2();
        if (c == 0.0) continue;
        for (std::size_t q = 0; q < q_count; ++q) {
          const double diff = ra.points[i][q] - sa.points[j][q];
          const double factor = pi * diff / c;
          const DualInterval& di = last_d[dims[q]];
          for (std::size_t k = 0; k < nd; ++k) {
            m.grad[k] +=
                factor * (di.dlo[k] * (1.0 - t[q]) + di.dhi[k] * t[q]);
          }
        }
      }
    }
    return m;
  };

  WassersteinMetricsGrad m;
  m.w_goal = w1(spec.goal, spec.goal_dims);
  m.w_unsafe = w1(spec.unsafe, spec.unsafe_dims);
  return m;
}

GeometricMetricsGrad geometric_penalty_grad(const ReachAvoidSpec& spec,
                                            const GradFlowpipe& gfp) {
  const std::size_t nd = gfp.dirs;
  const double s = characteristic_size(spec);
  const double grade = 2.0 - completed_fraction(spec, gfp.fp);
  const DScalar gap = dual_goal_gap(spec, gfp);

  GeometricMetricsGrad out;
  out.d_u = MetricGrad(nd);
  out.d_u.value = -s * s * grade;
  out.d_g = MetricGrad(nd);
  out.d_g.value = -s * s * grade - gap.v * gap.v;
  for (std::size_t k = 0; k < nd; ++k) {
    out.d_g.grad[k] = -2.0 * gap.v * gap.d[k];
  }
  return out;
}

WassersteinMetricsGrad wasserstein_penalty_grad(const ReachAvoidSpec& spec,
                                                const GradFlowpipe& gfp) {
  const std::size_t nd = gfp.dirs;
  const double s = characteristic_size(spec);
  const DScalar gap = dual_goal_gap(spec, gfp);

  WassersteinMetricsGrad out;
  out.w_goal = MetricGrad(nd);
  out.w_goal.value =
      s * (2.0 - completed_fraction(spec, gfp.fp)) + gap.v;
  for (std::size_t k = 0; k < nd; ++k) out.w_goal.grad[k] = gap.d[k];
  out.w_unsafe = MetricGrad(nd);
  return out;
}

}  // namespace dwv::core
