// Forward-mode derivatives of the verification-feedback metrics
// (core/metrics.hpp) through the dual flowpipe boxes produced by
// reach::TmGradient.
//
// Every *_grad function's VALUE equals the corresponding scalar metric on
// gfp.fp bit for bit: the value channel replays the scalar computation
// operation for operation (same intersections, same sqrt-then-square
// distances, same accumulation order), with branch decisions taken on the
// value alone. The gradient channel differentiates it, using the
// central-difference tie convention of interval/dual_interval.hpp for
// min/max/intersection selections and Danskin's envelope theorem for the
// Wasserstein distance (the optimal transport plan is held fixed; the cost
// matrix is differentiated through the grid points of the final reachable
// segment).
//
// Polygon-backed flowpipes (fp.step_polys nonempty) are not produced by
// TmVerifier/TmGradient and are not supported here.
#pragma once

#include <vector>

#include "core/metrics.hpp"
#include "reach/grad_flowpipe.hpp"

namespace dwv::core {

/// A metric value plus its gradient w.r.t. the controller parameters.
struct MetricGrad {
  double value = 0.0;
  std::vector<double> grad;  ///< size = gfp.dirs

  explicit MetricGrad(std::size_t dirs = 0) : grad(dirs, 0.0) {}
};

struct GeometricMetricsGrad {
  MetricGrad d_u;
  MetricGrad d_g;
};

struct WassersteinMetricsGrad {
  MetricGrad w_goal;
  MetricGrad w_unsafe;
};

/// Dual geometric_metrics: values == geometric_metrics(gfp.fp, spec).
GeometricMetricsGrad geometric_metrics_grad(const reach::GradFlowpipe& gfp,
                                            const ode::ReachAvoidSpec& spec);

/// Dual goal_containment_margin: value == goal_containment_margin(gfp.fp,
/// spec) bit for bit; gradient differentiates the selected step's binding
/// face gaps with the central-difference tie convention. Zero gradient
/// when the selected faces are theta-independent (e.g. the initial box).
MetricGrad goal_containment_margin_grad(const reach::GradFlowpipe& gfp,
                                        const ode::ReachAvoidSpec& spec);

/// Dual wasserstein_metrics: values == wasserstein_metrics(gfp.fp, spec,
/// opt).
WassersteinMetricsGrad wasserstein_metrics_grad(
    const reach::GradFlowpipe& gfp, const ode::ReachAvoidSpec& spec,
    const WassersteinOptions& opt = {});

/// Dual failure penalties: values == geometric_penalty / wasserstein_penalty
/// on gfp.fp. Only the last-box goal gap depends on theta; the horizon
/// grading is piecewise constant (zero derivative).
GeometricMetricsGrad geometric_penalty_grad(const ode::ReachAvoidSpec& spec,
                                            const reach::GradFlowpipe& gfp);
WassersteinMetricsGrad wasserstein_penalty_grad(
    const ode::ReachAvoidSpec& spec, const reach::GradFlowpipe& gfp);

}  // namespace dwv::core
