#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "ode/benchmarks.hpp"

namespace dwv::core {
namespace {

using geom::Box;
using interval::Interval;

// Builds a minimal flowpipe from explicit step boxes (hulls = step boxes).
reach::Flowpipe pipe_from_boxes(const std::vector<Box>& steps) {
  reach::Flowpipe fp;
  fp.step_sets = steps;
  for (std::size_t k = 0; k + 1 < steps.size(); ++k) {
    fp.interval_hulls.push_back(steps[k].hull_with(steps[k + 1]));
  }
  return fp;
}

ode::ReachAvoidSpec spec2d() {
  ode::ReachAvoidSpec s;
  s.x0 = Box{Interval(0.0, 1.0), Interval(0.0, 1.0)};
  s.goal = Box{Interval(8.0, 10.0), Interval(0.0, 2.0)};
  s.unsafe = Box{Interval(4.0, 5.0), Interval(3.0, 5.0)};
  s.goal_dims = {0, 1};
  s.unsafe_dims = {0, 1};
  s.delta = 0.1;
  s.steps = 3;
  s.state_bounds = Box{Interval(-20.0, 20.0), Interval(-20.0, 20.0)};
  return s;
}

TEST(GeometricMetrics, SafePipePositiveDu) {
  const auto spec = spec2d();
  // Pipe marching along y ~ 0.5, far below the unsafe box.
  const auto fp = pipe_from_boxes({
      Box{Interval(0.0, 1.0), Interval(0.0, 1.0)},
      Box{Interval(3.0, 4.0), Interval(0.0, 1.0)},
      Box{Interval(6.0, 7.0), Interval(0.0, 1.0)},
      Box{Interval(8.5, 9.5), Interval(0.5, 1.5)},
  });
  const GeometricMetrics m = geometric_metrics(fp, spec);
  EXPECT_GT(m.d_u, 0.0);   // tube never meets Xu
  EXPECT_GT(m.d_g, 0.0);   // last set overlaps Xg
  EXPECT_TRUE(m.feasible());
  // d_u is the squared distance of the nearest inter-step hull to Xu:
  // hull([6,7]x[0,1], [8.5,9.5]x[0.5,1.5]) = [6,9.5]x[0,1.5] has the
  // smallest gap (dx, dy) = (1, 1.5) -> 1 + 2.25 = 3.25.
  EXPECT_NEAR(m.d_u, 3.25, 1e-9);
  // d_g is the overlap measure of the last set with Xg:
  // [8.5,9.5]x[0.5,1.5] within [8,10]x[0,2] -> 1.0 x 1.0 = 1.0.
  EXPECT_NEAR(m.d_g, 1.0, 1e-9);
}

TEST(GeometricMetrics, UnsafeOverlapIsNegative) {
  const auto spec = spec2d();
  const auto fp = pipe_from_boxes({
      Box{Interval(3.5, 4.5), Interval(2.5, 3.5)},
      Box{Interval(4.0, 5.0), Interval(3.0, 4.0)},
  });
  const GeometricMetrics m = geometric_metrics(fp, spec);
  EXPECT_LT(m.d_u, 0.0);
  EXPECT_FALSE(m.feasible());
}

TEST(GeometricMetrics, GoalMissIsNegativeSquaredDistance) {
  const auto spec = spec2d();
  const auto fp = pipe_from_boxes({
      Box{Interval(0.0, 1.0), Interval(0.0, 1.0)},
      Box{Interval(2.0, 3.0), Interval(0.0, 1.0)},
  });
  const GeometricMetrics m = geometric_metrics(fp, spec);
  // Nearest approach to goal: x-gap 8 - 3 = 5 -> -25.
  EXPECT_NEAR(m.d_g, -25.0, 1e-9);
}

TEST(GeometricMetrics, HalfSpaceUnsafeMeasuredInConstrainedDims) {
  // ACC-style: unsafe is a half-space in dim 0 only.
  ode::ReachAvoidSpec s = spec2d();
  const double inf = std::numeric_limits<double>::infinity();
  s.unsafe = Box{Interval(-inf, -1.0), Interval(-inf, inf)};
  s.unsafe_dims = {0};
  const auto fp = pipe_from_boxes({
      Box{Interval(0.0, 1.0), Interval(0.0, 1.0)},
      Box{Interval(-0.5, 0.5), Interval(0.0, 1.0)},
  });
  const double du = geometric_unsafe_distance(fp, s);
  // Distance from x >= -0.5 to x <= -1: 0.5 squared = 0.25.
  EXPECT_NEAR(du, 0.25, 1e-9);

  // Now a pipe crossing the half-space: overlap length 0.5.
  const auto fp2 = pipe_from_boxes({
      Box{Interval(-1.5, 0.0), Interval(0.0, 1.0)},
      Box{Interval(-1.5, 0.0), Interval(0.0, 1.0)},
  });
  const double du2 = geometric_unsafe_distance(fp2, s);
  EXPECT_LT(du2, 0.0);
}

TEST(WassersteinMetrics, TranslationDistanceOnFinalSegment) {
  auto spec = spec2d();
  // Final segment identical in shape to the goal, offset by 4 in x.
  const auto fp = pipe_from_boxes({
      Box{Interval(0.0, 1.0), Interval(0.0, 1.0)},
      Box{Interval(4.0, 6.0), Interval(0.0, 2.0)},
  });
  WassersteinOptions opt;
  opt.grid = 4;
  const WassersteinMetrics m = wasserstein_metrics(fp, spec, opt);
  EXPECT_NEAR(m.w_goal, 4.0, 1e-6);  // pure translation
  EXPECT_GT(m.w_unsafe, 0.0);
}

TEST(WassersteinMetrics, ObjectiveOrientation) {
  auto spec = spec2d();
  // A segment near the goal must have a smaller objective than one far.
  const auto near_goal = pipe_from_boxes({
      spec.x0, Box{Interval(8.0, 9.0), Interval(0.5, 1.5)}});
  const auto far_goal = pipe_from_boxes({
      spec.x0, Box{Interval(1.0, 2.0), Interval(0.5, 1.5)}});
  WassersteinOptions opt;
  opt.grid = 3;
  const double on = wasserstein_metrics(near_goal, spec, opt).objective();
  const double of = wasserstein_metrics(far_goal, spec, opt).objective();
  EXPECT_LT(on, of);
}

TEST(Penalties, GradedByCompletedFraction) {
  const auto spec = spec2d();
  reach::Flowpipe empty;
  empty.valid = false;
  empty.step_sets = {spec.x0};
  reach::Flowpipe longer;
  longer.valid = false;
  longer.step_sets = {spec.x0, spec.x0, spec.x0};  // 2 of 3 steps done

  const GeometricMetrics pe = geometric_penalty(spec, empty);
  const GeometricMetrics pl = geometric_penalty(spec, longer);
  EXPECT_LT(pe.d_u, pl.d_u);  // surviving longer is better
  EXPECT_LT(pe.d_u, 0.0);

  const WassersteinMetrics we = wasserstein_penalty(spec, empty);
  const WassersteinMetrics wl = wasserstein_penalty(spec, longer);
  EXPECT_GT(we.w_goal, wl.w_goal);
}

TEST(Penalties, WorseThanAnyRealisticMetric) {
  const auto bench = ode::make_oscillator_benchmark();
  reach::Flowpipe failed;
  failed.valid = false;
  failed.step_sets = {bench.spec.x0};
  const GeometricMetrics p = geometric_penalty(bench.spec, failed);
  // The penalty must be far below any metric value achievable within the
  // state bounds (diameter^2 dominated).
  EXPECT_LT(p.d_u, -30.0);
  EXPECT_LT(p.d_g, -30.0);
}

}  // namespace
}  // namespace dwv::core
