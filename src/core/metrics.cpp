#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/polygon2d.hpp"

namespace dwv::core {

using geom::Box;
using ode::ReachAvoidSpec;
using reach::Flowpipe;

namespace {

// Projects a box onto the listed dimensions.
Box project(const Box& b, const std::vector<std::size_t>& dims) {
  interval::IVec v(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) v[i] = b[dims[i]];
  return Box(v);
}

// True when the spec's set is 2-D in dims {0, 1} and the flowpipe carries
// exact polygons, letting us use polygon geometry instead of boxes.
bool use_polygons(const Flowpipe& fp, const std::vector<std::size_t>& dims) {
  return !fp.step_polys.empty() && dims.size() == 2 && dims[0] == 0 &&
         dims[1] == 1;
}

// Bounded rectangle for a possibly-unbounded 2-D set (clipped to bounds).
geom::Polygon2d clipped_rect(const Box& set, const Box& bounds) {
  const auto inter = set.intersection(bounds);
  const Box& b = inter ? *inter : set;
  return geom::Polygon2d::rect(b[0].lo(), b[0].hi(), b[1].lo(), b[1].hi());
}

double characteristic_size(const ReachAvoidSpec& spec) {
  double s = 0.0;
  for (std::size_t i = 0; i < spec.state_bounds.dim(); ++i)
    s = std::max(s, spec.state_bounds[i].width());
  return s;
}

}  // namespace

double geometric_unsafe_distance(const Flowpipe& fp,
                                 const ReachAvoidSpec& spec) {
  const auto& dims = spec.unsafe_dims;

  if (use_polygons(fp, dims)) {
    const geom::Polygon2d unsafe_poly =
        clipped_rect(spec.unsafe, spec.state_bounds);
    double overlap = 0.0;
    double min_d2 = std::numeric_limits<double>::infinity();
    for (const auto& poly : fp.step_polys) {
      const double a = poly.clip(unsafe_poly).area();
      if (a > 0.0) {
        overlap += a;
      } else {
        const double d = poly.distance_to(unsafe_poly);
        min_d2 = std::min(min_d2, d * d);
      }
    }
    // Also account for inter-sample hulls (box-based, conservative).
    for (const auto& hull : fp.interval_hulls) {
      const Box hp = project(hull, dims);
      const Box up = project(spec.unsafe, dims);
      if (const auto inter = hp.intersection(up)) {
        overlap += inter->volume();
      } else {
        const double d = hp.distance_to(up);
        min_d2 = std::min(min_d2, d * d);
      }
    }
    return overlap > 0.0 ? -overlap : min_d2;
  }

  double overlap = 0.0;
  double min_d2 = std::numeric_limits<double>::infinity();
  for (const auto& hull : fp.interval_hulls) {
    const Box hp = project(hull, dims);
    const Box up = project(spec.unsafe, dims);
    if (const auto inter = hp.intersection(up)) {
      overlap += inter->volume();
    } else {
      const double d = hp.distance_to(up);
      min_d2 = std::min(min_d2, d * d);
    }
  }
  return overlap > 0.0 ? -overlap : min_d2;
}

double geometric_goal_distance(const Flowpipe& fp,
                               const ReachAvoidSpec& spec) {
  const auto& dims = spec.goal_dims;

  if (use_polygons(fp, dims)) {
    const geom::Polygon2d goal_poly =
        clipped_rect(spec.goal, spec.state_bounds);
    double overlap = 0.0;
    double min_d2 = std::numeric_limits<double>::infinity();
    for (const auto& poly : fp.step_polys) {
      const double a = poly.clip(goal_poly).area();
      if (a > 0.0) {
        overlap += a;
      } else {
        const double d = poly.distance_to(goal_poly);
        min_d2 = std::min(min_d2, d * d);
      }
    }
    return overlap > 0.0 ? overlap : -min_d2;
  }

  double overlap = 0.0;
  double min_d2 = std::numeric_limits<double>::infinity();
  for (const auto& step : fp.step_sets) {
    const Box sp = project(step, dims);
    const Box gp = project(spec.goal, dims);
    if (const auto inter = sp.intersection(gp)) {
      overlap += inter->volume();
    } else {
      const double d = sp.distance_to(gp);
      min_d2 = std::min(min_d2, d * d);
    }
  }
  return overlap > 0.0 ? overlap : -min_d2;
}

GeometricMetrics geometric_metrics(const Flowpipe& fp,
                                   const ReachAvoidSpec& spec) {
  return {geometric_unsafe_distance(fp, spec),
          geometric_goal_distance(fp, spec)};
}

double goal_containment_margin(const Flowpipe& fp,
                               const ReachAvoidSpec& spec) {
  double m = -std::numeric_limits<double>::infinity();
  if (!fp.valid) return m;
  for (const auto& step : fp.step_sets) {
    double s = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < step.dim(); ++i) {
      s = std::min(s, std::min(spec.goal[i].hi() - step[i].hi(),
                               step[i].lo() - spec.goal[i].lo()));
    }
    m = std::max(m, s);
  }
  return m;
}

WassersteinMetrics wasserstein_metrics(const Flowpipe& fp,
                                       const ReachAvoidSpec& spec,
                                       const WassersteinOptions& opt) {
  // r_theta: uniform on the last reachable segment X_r^{Tl}.
  const Box last = fp.step_sets.back();

  // Clamp a box into `bounds`: intersection when they overlap, otherwise
  // the nearest face point (keeps the support finite and the distance
  // signal monotone even when the reach set escapes the assumed bounds).
  const auto clamp_into = [](const Box& b, const Box& bounds) {
    interval::IVec v(b.dim());
    for (std::size_t i = 0; i < b.dim(); ++i) {
      double lo = std::max(b[i].lo(), bounds[i].lo());
      double hi = std::min(b[i].hi(), bounds[i].hi());
      if (lo > hi) {
        // Disjoint in this dimension: snap to the nearer bound.
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
    // The reach segment is kept as-is (finite for valid pipes) so the
    // distance signal stays monotone even far outside the nominal region;
    // only the spec set is clipped (it may be an unbounded half-space).
    const Box& r_box = last;
    const Box s_box = clamp_into(set_box, spec.state_bounds);

    const auto ra = transport::uniform_on_box_dims(r_box, dims, opt.grid);
    const auto sa = transport::uniform_on_box_dims(s_box, dims, opt.grid);
    // Per-thread solver workspace, reused across learner iterations (and
    // across the goal/unsafe pair of every metric evaluation): same
    // arithmetic, so the distances are bit-identical — only the per-call
    // cost-matrix and Dijkstra-state allocations are gone.
    thread_local transport::TransportWorkspace ws;
    return transport::w1_exact(ra, sa, ws);
  };

  WassersteinMetrics m;
  m.w_goal = w1(spec.goal, spec.goal_dims);
  m.w_unsafe = w1(spec.unsafe, spec.unsafe_dims);
  return m;
}

namespace {
// Fraction of the horizon a failed pipe covered before blowing up.
double completed_fraction(const ReachAvoidSpec& spec,
                          const Flowpipe& fp) {
  if (spec.steps == 0) return 0.0;
  const double done = static_cast<double>(fp.steps());
  return std::min(1.0, done / static_cast<double>(spec.steps));
}

// Smooth part of the failure penalty: squared distance from the last
// surviving box to the (clipped) goal, so the learner still feels in which
// direction the pipe was heading when it blew up.
double last_box_goal_gap(const ReachAvoidSpec& spec, const Flowpipe& fp) {
  if (fp.step_sets.empty()) return 0.0;
  const Box last = fp.step_sets.back();
  if (!last.bounds().max_mag() || last.bounds().max_mag() > 1e12) return 0.0;
  const auto gc = spec.goal.intersection(spec.state_bounds);
  const Box goal = gc ? *gc : spec.goal;
  return last.distance_to_in(goal, spec.goal_dims);
}
}  // namespace

GeometricMetrics geometric_penalty(const ReachAvoidSpec& spec,
                                   const Flowpipe& fp) {
  const double s = characteristic_size(spec);
  const double grade = 2.0 - completed_fraction(spec, fp);
  const double gap = last_box_goal_gap(spec, fp);
  return {-s * s * grade, -s * s * grade - gap * gap};
}

WassersteinMetrics wasserstein_penalty(const ReachAvoidSpec& spec,
                                       const Flowpipe& fp) {
  const double s = characteristic_size(spec);
  WassersteinMetrics m;
  m.w_goal = s * (2.0 - completed_fraction(spec, fp)) +
             last_box_goal_gap(spec, fp);
  m.w_unsafe = 0.0;
  return m;
}

}  // namespace dwv::core
