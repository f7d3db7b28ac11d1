// Forward-mode gradient engine: value-channel bit identity against the
// scalar verifier, finite-difference validation of the dual kernels and
// metric gradients (Richardson-extrapolated central differences), cache
// composition, and thread-count determinism of the grad learner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/grad_metrics.hpp"
#include "core/learner.hpp"
#include "nn/controller.hpp"
#include "nn/poly_controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/dual_tm.hpp"

namespace dwv {
namespace {

using core::GeometricMetricsGrad;
using core::MetricGrad;
using core::WassersteinMetricsGrad;
using geom::Box;
using interval::DualInterval;
using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;
using reach::GradFlowpipe;
using reach::TmGradient;
using reach::TmVerifier;

// ---------------------------------------------------------------------------
// Scenario registry: (verifier configuration, controller) pairs the gradient
// engine supports. The gradient-check CI tool iterates the same set.

struct Scenario {
  std::string name;
  ode::Benchmark bench;
  reach::ControlAbstractionPtr abs;
  std::shared_ptr<nn::Controller> ctrl;
  reach::TmReachOptions opt;
};

Scenario acc_linear(const Vec& theta) {
  Scenario s;
  s.name = "acc-linear";
  s.bench = ode::make_acc_benchmark();
  s.bench.spec.steps = 20;
  s.bench.spec.stop_at_goal = false;
  s.abs = std::make_shared<reach::LinearAbstraction>();
  auto ctrl = std::make_shared<nn::LinearController>(2, 1);
  ctrl->set_params(theta);
  s.ctrl = ctrl;
  return s;
}

Scenario vdp_poly(const Vec& theta) {
  Scenario s;
  s.name = "vdp-poly";
  s.bench = ode::make_oscillator_benchmark();
  s.bench.spec.steps = 10;
  s.bench.spec.stop_at_goal = false;
  s.abs = std::make_shared<reach::PolynomialAbstraction>();
  auto ctrl = std::make_shared<nn::PolynomialController>(2, 1, 2);
  ctrl->set_params(theta);
  s.ctrl = ctrl;
  return s;
}

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> v;
  v.push_back(acc_linear(Vec{-0.5, -1.2}));
  v.push_back(acc_linear(Vec{0.0, 0.0}));  // tangent-only gain entries
  v.push_back(vdp_poly(Vec{0.0, -0.4, 0.3, 0.0, 0.1, 0.0}));
  return v;
}

TmVerifier make_verifier(const Scenario& s) {
  return TmVerifier(s.bench.system, s.bench.spec, s.abs, s.opt);
}

// ---------------------------------------------------------------------------
// Value-channel bit identity: the dual pass must return EXACTLY the boxes
// the scalar verifier computes.

void expect_box_bits(const Box& a, const Box& b, const char* what,
                     std::size_t idx) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    std::uint64_t alo, ahi, blo, bhi;
    double d;
    d = a[i].lo();
    std::memcpy(&alo, &d, 8);
    d = a[i].hi();
    std::memcpy(&ahi, &d, 8);
    d = b[i].lo();
    std::memcpy(&blo, &d, 8);
    d = b[i].hi();
    std::memcpy(&bhi, &d, 8);
    EXPECT_EQ(alo, blo) << what << "[" << idx << "] dim " << i << " lo";
    EXPECT_EQ(ahi, bhi) << what << "[" << idx << "] dim " << i << " hi";
  }
}

TEST(GradFlowpipeValue, BitIdenticalToScalarVerifier) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE(s.name);
    const TmVerifier v = make_verifier(s);
    ASSERT_EQ(TmGradient::unsupported_reason(v, *s.ctrl), nullptr);

    const reach::Flowpipe fp = v.compute(s.bench.spec.x0, *s.ctrl);
    const TmGradient g(v);
    const GradFlowpipe gfp = g.compute(s.bench.spec.x0, *s.ctrl);

    EXPECT_EQ(fp.valid, gfp.fp.valid);
    EXPECT_EQ(fp.failure, gfp.fp.failure);
    ASSERT_EQ(fp.step_sets.size(), gfp.fp.step_sets.size());
    ASSERT_EQ(fp.interval_hulls.size(), gfp.fp.interval_hulls.size());
    for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
      expect_box_bits(fp.step_sets[k], gfp.fp.step_sets[k], "step", k);
    }
    for (std::size_t k = 0; k < fp.interval_hulls.size(); ++k) {
      expect_box_bits(fp.interval_hulls[k], gfp.fp.interval_hulls[k], "hull",
                      k);
    }
    // Dual channels mirror the value containers.
    ASSERT_EQ(gfp.step_sets_d.size(), fp.step_sets.size());
    ASSERT_EQ(gfp.interval_hulls_d.size(), fp.interval_hulls.size());
    for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
      for (std::size_t i = 0; i < fp.step_sets[k].dim(); ++i) {
        EXPECT_EQ(gfp.step_sets_d[k][i].v.lo(), fp.step_sets[k][i].lo());
        EXPECT_EQ(gfp.step_sets_d[k][i].v.hi(), fp.step_sets[k][i].hi());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level finite differences: tm_eval_poly_into on dual models with
// coefficient tangents (including a tangent-only key whose value
// coefficient is zero).

TEST(DualKernels, EvalPolyCoefficientTangentsMatchFd) {
  taylor::TmEnv env;
  env.dom = IVec(2, Interval(-1.0, 1.0));
  env.order = 4;

  taylor::TmVec args(2);
  args[0] = {poly::Poly::constant(2, 0.3) + poly::Poly::variable(2, 0) * 0.2,
             Interval(-1e-4, 2e-4)};
  args[1] = {poly::Poly::constant(2, -0.1) + poly::Poly::variable(2, 1) * 0.5,
             Interval(-3e-4, 1e-4)};

  // f(c) = 0.7 + c0 * a0 * a1 + c1 * a1^2, at c0 = 0.4 and c1 = 0 (the
  // c1 term is tangent-only: absent from the value polynomial).
  const auto make_f = [](double c0, double c1) {
    poly::Poly f(2);
    f.add_term({0, 0}, 0.7);
    if (c0 != 0.0) f.add_term({1, 1}, c0);
    if (c1 != 0.0) f.add_term({0, 2}, c1);
    return f;
  };

  taylor::DualTmEnv denv;
  denv.dom = env.dom;
  denv.order = env.order;
  denv.cutoff = env.cutoff;
  denv.dirs = 2;

  poly::DualPoly fd;
  fd.val = make_f(0.4, 0.0);
  fd.tan.assign(2, poly::Poly(2));
  fd.tan[0].add_term({1, 1}, 1.0);  // d/dc0
  fd.tan[1].add_term({0, 2}, 1.0);  // d/dc1

  taylor::DualTmVec dargs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    dargs[i].poly.val = args[i].poly;
    dargs[i].poly.tan.assign(2, poly::Poly(2));
    dargs[i].rem = DualInterval::constant(args[i].rem, 2);
  }

  taylor::DualTm dout;
  taylor::tm_eval_poly_into(denv, fd, dargs, dout);
  const DualInterval dr = taylor::tm_range(denv, dout);

  const auto scalar_range = [&](double c0, double c1) {
    const taylor::TaylorModel out =
        taylor::tm_eval_poly(env, make_f(c0, c1), args);
    return taylor::tm_range(env, out);
  };
  // Value bits match the scalar pipeline.
  const Interval r0 = scalar_range(0.4, 0.0);
  EXPECT_EQ(dr.v.lo(), r0.lo());
  EXPECT_EQ(dr.v.hi(), r0.hi());

  const double h = 1e-6;
  const auto fd_dir = [&](int dir) {
    const double c0p = dir == 0 ? 0.4 + h : 0.4;
    const double c0m = dir == 0 ? 0.4 - h : 0.4;
    const double c1p = dir == 1 ? h : 0.0;
    const double c1m = dir == 1 ? -h : 0.0;
    const Interval rp = scalar_range(c0p, c1p);
    const Interval rm = scalar_range(c0m, c1m);
    return std::pair<double, double>{(rp.lo() - rm.lo()) / (2.0 * h),
                                     (rp.hi() - rm.hi()) / (2.0 * h)};
  };
  for (int dir = 0; dir < 2; ++dir) {
    const auto [dlo, dhi] = fd_dir(dir);
    EXPECT_NEAR(dr.dlo[dir], dlo, 1e-6) << "dir " << dir;
    EXPECT_NEAR(dr.dhi[dir], dhi, 1e-6) << "dir " << dir;
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline finite differences: analytic metric gradients vs Richardson-
// extrapolated central differences of the scalar metrics.

struct MetricValues {
  double d_u, d_g, w_goal, w_unsafe;
};

MetricValues scalar_metrics_at(const Scenario& s, const TmVerifier& v,
                               const Vec& theta) {
  auto probe = s.ctrl->clone();
  probe->set_params(theta);
  const reach::Flowpipe fp = v.compute(s.bench.spec.x0, *probe);
  MetricValues m{};
  if (fp.valid) {
    const core::GeometricMetrics g = core::geometric_metrics(fp, s.bench.spec);
    const core::WassersteinMetrics w =
        core::wasserstein_metrics(fp, s.bench.spec, {});
    m = {g.d_u, g.d_g, w.w_goal, w.w_unsafe};
  } else {
    const core::GeometricMetrics g = core::geometric_penalty(s.bench.spec, fp);
    const core::WassersteinMetrics w =
        core::wasserstein_penalty(s.bench.spec, fp);
    m = {g.d_u, g.d_g, w.w_goal, w.w_unsafe};
  }
  return m;
}

double rel_err(double analytic, double fd) {
  const double scale = std::max({std::abs(analytic), std::abs(fd), 1.0});
  return std::abs(analytic - fd) / scale;
}

TEST(GradMetrics, MatchRichardsonFiniteDifferences) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE(s.name);
    const TmVerifier v = make_verifier(s);
    ASSERT_EQ(TmGradient::unsupported_reason(v, *s.ctrl), nullptr);
    const TmGradient engine(v);
    const GradFlowpipe gfp = engine.compute(s.bench.spec.x0, *s.ctrl);
    ASSERT_TRUE(gfp.fp.valid) << gfp.fp.failure;

    const GeometricMetricsGrad gg =
        core::geometric_metrics_grad(gfp, s.bench.spec);
    const WassersteinMetricsGrad wg =
        core::wasserstein_metrics_grad(gfp, s.bench.spec, {});

    // Values equal the scalar metrics bitwise.
    const Vec theta = s.ctrl->params();
    const MetricValues base = scalar_metrics_at(s, v, theta);
    EXPECT_EQ(gg.d_u.value, base.d_u);
    EXPECT_EQ(gg.d_g.value, base.d_g);
    EXPECT_EQ(wg.w_goal.value, base.w_goal);
    EXPECT_EQ(wg.w_unsafe.value, base.w_unsafe);

    // The metrics are piecewise smooth with basin boundaries that can sit
    // exactly at the probed theta (e.g. endpoint-selection ties at zero
    // gains), where the central difference carries an O(h) one-sided
    // curvature term; h = 1e-5 keeps that term below the 1e-6 gate while
    // staying far above roundoff.
    const double h = 1e-5;
    for (std::size_t i = 0; i < theta.size(); ++i) {
      const auto central = [&](double step) {
        Vec tp = theta, tm = theta;
        tp[i] += step;
        tm[i] -= step;
        const MetricValues mp = scalar_metrics_at(s, v, tp);
        const MetricValues mm = scalar_metrics_at(s, v, tm);
        const double inv = 1.0 / (2.0 * step);
        return MetricValues{(mp.d_u - mm.d_u) * inv, (mp.d_g - mm.d_g) * inv,
                            (mp.w_goal - mm.w_goal) * inv,
                            (mp.w_unsafe - mm.w_unsafe) * inv};
      };
      const MetricValues d1 = central(h);
      const MetricValues d2 = central(h / 2.0);
      const auto rich = [](double a, double b) {
        return (4.0 * b - a) / 3.0;
      };
      EXPECT_LT(rel_err(gg.d_u.grad[i], rich(d1.d_u, d2.d_u)), 1e-6)
          << "d_u theta[" << i << "] analytic " << gg.d_u.grad[i] << " fd "
          << rich(d1.d_u, d2.d_u);
      EXPECT_LT(rel_err(gg.d_g.grad[i], rich(d1.d_g, d2.d_g)), 1e-6)
          << "d_g theta[" << i << "] analytic " << gg.d_g.grad[i] << " fd "
          << rich(d1.d_g, d2.d_g);
      EXPECT_LT(rel_err(wg.w_goal.grad[i], rich(d1.w_goal, d2.w_goal)), 1e-6)
          << "w_goal theta[" << i << "] analytic " << wg.w_goal.grad[i]
          << " fd " << rich(d1.w_goal, d2.w_goal);
      EXPECT_LT(rel_err(wg.w_unsafe.grad[i], rich(d1.w_unsafe, d2.w_unsafe)),
                1e-6)
          << "w_unsafe theta[" << i << "] analytic " << wg.w_unsafe.grad[i]
          << " fd " << rich(d1.w_unsafe, d2.w_unsafe);
    }
  }
}

// ---------------------------------------------------------------------------
// Learner integration: grad mode converges, uses one verifier call per
// iteration, and composes with the flowpipe cache and thread settings.

core::LearnerOptions grad_learn_options() {
  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kGeometric;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  // No containment requirement: the TM flowpipe of the linear-gain ACC
  // family never fits inside the 1-wide velocity goal band (the best gain
  // leaves a ~2.6 containment violation), so feasibility is the metric
  // positivity d_u > 0 && d_g > 0 — the same certificate the tier-1
  // LinearVerifier ACC tests require via geometric feasibility.
  opt.restarts = 3;
  opt.seed = 1;
  opt.grad = true;
  return opt;
}

std::shared_ptr<TmVerifier> acc_tm_verifier(const ode::Benchmark& bench) {
  return std::make_shared<TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      reach::TmReachOptions{});
}

TEST(GradLearner, ConvergesOnAccWithFiveTimesFewerCallsThanSpsa) {
  // The acceptance claim: on ACC the analytic-gradient learner reaches a
  // verified (metric-feasible) controller with at least 5x fewer verifier
  // calls than the SPSA difference method under identical options.
  const auto bench = ode::make_acc_benchmark();
  const auto run = [&](bool grad) {
    core::LearnerOptions opt = grad_learn_options();
    opt.grad = grad;
    core::Learner learner(acc_tm_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    return learner.learn(ctrl);
  };
  const core::LearnResult spsa = run(false);
  const core::LearnResult grad = run(true);
  ASSERT_TRUE(spsa.success);
  ASSERT_TRUE(grad.success);
  EXPECT_LE(grad.verifier_calls * 5, spsa.verifier_calls)
      << "grad " << grad.verifier_calls << " vs spsa " << spsa.verifier_calls;
  // Equal-or-better final metric: both runs stop at their first feasible
  // iterate, so both ends are certified (d_u > 0 and d_g > 0).
  ASSERT_FALSE(grad.history.empty());
  EXPECT_GT(grad.history.back().geo.d_u, 0.0);
  EXPECT_GT(grad.history.back().geo.d_g, 0.0);
}

TEST(GradLearner, SpsaFallsBackUnchangedForUnsupportedController) {
  // An MLP controller is outside the gradient engine's support; opt.grad
  // must warn and reproduce the SPSA run bit for bit. (The verifier uses
  // the polar abstraction — the one the MLP family is verified with.)
  const auto bench = ode::make_acc_benchmark();
  core::LearnerOptions opt = grad_learn_options();
  opt.max_iters = 6;
  opt.restarts = 1;
  opt.require_containment = false;

  const auto run = [&](bool grad) {
    core::LearnerOptions o = opt;
    o.grad = grad;
    const auto verifier = std::make_shared<TmVerifier>(
        bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
        reach::TmReachOptions{});
    core::Learner learner(verifier, bench.spec, o);
    std::mt19937_64 rng(7);
    nn::MlpController ctrl({2, 4, 1}, 1.0, nn::Activation::kTanh,
                           nn::Activation::kTanh);
    ctrl.init_random(rng, 0.3);
    const core::LearnResult res = learner.learn(ctrl);
    return std::pair<Vec, std::size_t>{ctrl.params(), res.verifier_calls};
  };
  const auto [p_spsa, c_spsa] = run(false);
  const auto [p_grad, c_grad] = run(true);
  ASSERT_EQ(p_spsa.size(), p_grad.size());
  for (std::size_t i = 0; i < p_spsa.size(); ++i) {
    EXPECT_EQ(p_spsa[i], p_grad[i]) << "param " << i;
  }
  EXPECT_EQ(c_spsa, c_grad);
}

TEST(GradLearner, CacheCompositionIsBitIdentical) {
  const auto bench = ode::make_acc_benchmark();
  const auto run = [&](bool cache) {
    core::LearnerOptions opt = grad_learn_options();
    opt.cache = cache;
    core::Learner learner(acc_tm_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    const core::LearnResult res = learner.learn(ctrl);
    return std::tuple<bool, std::size_t, Vec>{res.success, res.iterations,
                                              ctrl.params()};
  };
  const auto [s0, i0, p0] = run(false);
  const auto [s1, i1, p1] = run(true);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(i0, i1);
  ASSERT_EQ(p0.size(), p1.size());
  for (std::size_t i = 0; i < p0.size(); ++i) {
    EXPECT_EQ(p0[i], p1[i]) << "param " << i;
  }
}

TEST(GradLearner, DeterministicAcrossThreadCounts) {
  const auto bench = ode::make_acc_benchmark();
  const auto run = [&](std::size_t threads) {
    core::LearnerOptions opt = grad_learn_options();
    opt.threads = threads;
    core::Learner learner(acc_tm_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    const core::LearnResult res = learner.learn(ctrl);
    return std::pair<Vec, std::size_t>{ctrl.params(), res.iterations};
  };
  const auto [p1, i1] = run(1);
  for (const std::size_t t : {std::size_t{2}, std::size_t{4}}) {
    const auto [pt, it] = run(t);
    EXPECT_EQ(i1, it) << "threads " << t;
    ASSERT_EQ(p1.size(), pt.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_EQ(p1[i], pt[i]) << "threads " << t << " param " << i;
    }
  }
}

}  // namespace
}  // namespace dwv
