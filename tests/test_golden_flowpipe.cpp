// Golden-bytes regression for the TM flowpipe drivers.
//
// Each case serializes a driver's result with ser::put(Flowpipe) — every
// step set and interval hull as exact IEEE-754 bits, the verdict, the
// failure string and the step-control counters — and compares length and
// ser::checksum64 against golden_search.txt. The entries pin the scalar
// driver (compute), the lockstep lane pool (compute_batch, width 4 over
// six sub-boxes, so lanes are reused across cells) and the dual gradient
// pass (TmGradient::compute, value pipe plus every tangent bit), in each
// of the four period modes {plain, symbolic remainder queue} x {fixed
// grid, adaptive}. They were recorded before the drivers' period loops
// were merged, so the merged loop is checked against those bits.
//
// The destabilized-oscillator cases pin the failure paths: a step whose
// remainder validation fails ends the pipe on the fixed grid, and is
// retried at a smaller step under the adaptive controller.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/initial_set.hpp"
#include "golden_search.hpp"
#include "nn/controller.hpp"
#include "nn/poly_controller.hpp"
#include "ode/benchmarks.hpp"
#include "ode/expr_system.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv {
namespace {

using golden::expect_golden;
using interval::Interval;
using linalg::Mat;
using reach::Flowpipe;
using reach::TmReachOptions;
using reach::TmVerifier;
namespace ser = reach::ser;

struct Mode {
  const char* name;
  bool symbolic;
  bool adaptive;
};

constexpr Mode kModes[] = {{"plain_fixed", false, false},
                           {"plain_adaptive", false, true},
                           {"symrem_fixed", true, false},
                           {"symrem_adaptive", true, true}};

TmReachOptions options(const Mode& m) {
  TmReachOptions opt;
  opt.symbolic_remainder = m.symbolic;
  opt.adaptive = m.adaptive;
  return opt;
}

ser::Bytes bytes_of(const Flowpipe& fp) {
  ser::Writer w;
  ser::put(w, fp);
  return w.take();
}

// The initial set split into a 3 x 2 grid of sub-boxes (dimensions 0 and
// 1; any further dimensions are kept whole).
std::vector<geom::Box> sub_boxes(const geom::Box& x0) {
  std::vector<geom::Box> out;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      geom::Box c = x0;
      const double w0 = x0[0].width() / 3.0;
      const double w1 = x0[1].width() / 2.0;
      c[0] = Interval(x0[0].lo() + a * w0, x0[0].lo() + (a + 1) * w0);
      c[1] = Interval(x0[1].lo() + b * w1, x0[1].lo() + (b + 1) * w1);
      out.push_back(c);
    }
  }
  return out;
}

// compute on the whole initial set, and compute_batch (width 4, one
// thread) over its sub-boxes, each against its own golden entry.
void expect_driver_golden(const std::string& prefix, const TmVerifier& v,
                          const geom::Box& x0, const nn::Controller& ctrl) {
  expect_golden(prefix + "_compute", bytes_of(v.compute(x0, ctrl)));
  const std::vector<geom::Box> cells = sub_boxes(x0);
  const std::vector<const nn::Controller*> ctrls(cells.size(), &ctrl);
  const std::vector<Flowpipe> fps = v.compute_batch(
      cells.data(), ctrls.data(), cells.size(), /*width=*/4, /*threads=*/1);
  ser::Writer w;
  for (const Flowpipe& fp : fps) ser::put(w, fp);
  expect_golden(prefix + "_batch", w.bytes());
}

nn::MlpController osc_mlp() {
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(9);
  ctrl.init_random(rng, 0.8);
  return ctrl;
}

TEST(GoldenFlowpipe, AccLinctrl) {
  const ode::Benchmark bench = ode::make_acc_benchmark();
  const nn::LinearController ctrl(Mat{{0.6, -2.2}});
  for (const Mode& m : kModes) {
    SCOPED_TRACE(m.name);
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::LinearAbstraction>(),
                       options(m));
    expect_driver_golden(std::string("fp_acc_linctrl_") + m.name, v,
                         bench.spec.x0, ctrl);
  }
}

TEST(GoldenFlowpipe, OscillatorPolar) {
  const ode::Benchmark bench = ode::make_oscillator_benchmark();
  const nn::MlpController ctrl = osc_mlp();
  for (const Mode& m : kModes) {
    SCOPED_TRACE(m.name);
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::PolarAbstraction>(),
                       options(m));
    expect_driver_golden(std::string("fp_osc_polar_") + m.name, v,
                         bench.spec.x0, ctrl);
  }
}

// Destabilizing feedback with a tight inflation budget: the remainder
// validation of some substep fails. The fixed grid ends the pipe there;
// the adaptive controller rejects and retries at smaller steps, which
// exhausts its budget on the plain path and pulls through on the queued
// one.
TEST(GoldenFlowpipe, OscillatorDestabilizedFailurePaths) {
  const ode::Benchmark bench = ode::make_oscillator_benchmark();
  const nn::LinearController ctrl(Mat{{5.0, 5.0}});
  for (const Mode& m : kModes) {
    SCOPED_TRACE(m.name);
    TmReachOptions opt = options(m);
    opt.max_inflations = 2;
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::LinearAbstraction>(), opt);
    const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
    if (m.symbolic && m.adaptive) {
      EXPECT_TRUE(fp.valid) << fp.failure;
      EXPECT_GE(fp.tm_stats.rejects, 3u);
      EXPECT_LE(fp.tm_stats.rejects, 5u);
    } else {
      EXPECT_FALSE(fp.valid);
      EXPECT_NE(fp.failure.find("remainder validation failed"),
                std::string::npos)
          << fp.failure;
      EXPECT_EQ(fp.tm_stats.rejects, m.adaptive ? 8u : 0u);
    }
    expect_driver_golden(std::string("fp_osc_destab_") + m.name, v,
                         bench.spec.x0, ctrl);
  }
}

void put_dual(ser::Writer& w,
              const std::vector<std::vector<interval::DualInterval>>& sets) {
  w.u64(sets.size());
  for (const auto& set : sets) {
    w.u64(set.size());
    for (const interval::DualInterval& d : set) {
      ser::put(w, d.v);
      w.u64(d.nd);
      for (std::size_t k = 0; k < d.nd; ++k) {
        w.f64(d.dlo[k]);
        w.f64(d.dhi[k]);
      }
    }
  }
}

// The dual pass's value pipe followed by its direction count and every
// tangent of step_sets_d and interval_hulls_d, checked against `name`.
reach::GradFlowpipe expect_grad_golden(const std::string& name,
                                       const TmVerifier& v,
                                       const geom::Box& x0,
                                       const nn::Controller& ctrl) {
  EXPECT_EQ(reach::TmGradient::unsupported_reason(v, ctrl), nullptr);
  reach::GradFlowpipe g = reach::TmGradient(v).compute(x0, ctrl);
  ser::Writer w;
  ser::put(w, g.fp);
  w.u64(g.dirs);
  put_dual(w, g.step_sets_d);
  put_dual(w, g.interval_hulls_d);
  expect_golden(name, w.bytes());
  return g;
}

TEST(GoldenFlowpipe, AccGradient) {
  const ode::Benchmark bench = ode::make_acc_benchmark();
  const nn::LinearController ctrl(Mat{{0.6, -2.2}});
  for (const Mode& m : kModes) {
    if (m.symbolic) continue;  // the dual pass has no symbolic queue
    SCOPED_TRACE(m.name);
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::LinearAbstraction>(),
                       options(m));
    expect_grad_golden(std::string("grad_acc_linctrl_") + m.name, v,
                       bench.spec.x0, ctrl);
  }
}

// The vdp-poly scenario of tools/grad_check: a degree-2 polynomial
// controller whose coefficients carry the tangents through the
// polynomial abstraction. Three of its six coefficients sit at zero, so
// their monomials exist only in the tangent channels.
TEST(GoldenFlowpipe, VdpPolyGradient) {
  ode::Benchmark bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  nn::PolynomialController ctrl(2, 1, 2);
  ctrl.set_params(linalg::Vec{0.0, -0.4, 0.3, 0.0, 0.1, 0.0});
  for (const Mode& m : kModes) {
    if (m.symbolic) continue;
    SCOPED_TRACE(m.name);
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::PolynomialAbstraction>(),
                       options(m));
    const reach::GradFlowpipe g = expect_grad_golden(
        std::string("grad_vdp_poly_") + m.name, v, bench.spec.x0, ctrl);
    EXPECT_TRUE(g.fp.valid) << g.fp.failure;
  }
  // The polynomial channel is dense, so the controller keeps this run on
  // the fixed grid's schedule. A one-inflation budget makes validation
  // fail at the base step: rejected substeps are retried at smaller ones.
  TmReachOptions tight;
  tight.adaptive = true;
  tight.max_inflations = 1;
  const TmVerifier v(bench.system, bench.spec,
                     std::make_shared<reach::PolynomialAbstraction>(), tight);
  const reach::GradFlowpipe g = expect_grad_golden(
      "grad_vdp_poly_adaptive_rejects", v, bench.spec.x0, ctrl);
  EXPECT_TRUE(g.fp.valid) << g.fp.failure;
  EXPECT_GT(g.fp.tm_stats.rejects, 0u);
}

// One zero parameter each: a linear gain entry (the tangent-only branch of
// the dual affine map) and a polynomial coefficient (the tangent-only keys
// of the dual polynomial composition).
TEST(GoldenFlowpipe, ZeroParameterGradients) {
  {
    const ode::Benchmark bench = ode::make_acc_benchmark();
    const nn::LinearController ctrl(Mat{{0.0, -2.2}});
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::LinearAbstraction>(),
                       TmReachOptions{});
    expect_grad_golden("grad_acc_linctrl_zero_gain", v, bench.spec.x0, ctrl);
  }
  {
    ode::Benchmark bench = ode::make_oscillator_benchmark();
    bench.spec.steps = 10;
    bench.spec.stop_at_goal = false;
    nn::PolynomialController ctrl(2, 1, 2);
    ctrl.set_params(linalg::Vec{0.02, -0.4, 0.3, 0.0, 0.1, -0.05});
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::PolynomialAbstraction>(),
                       TmReachOptions{});
    const reach::GradFlowpipe g = expect_grad_golden(
        "grad_vdp_poly_zero_coeff", v, bench.spec.x0, ctrl);
    EXPECT_TRUE(g.fp.valid) << g.fp.failure;
  }
}

// A low re-initialization threshold: the dual pass re-parameterizes the
// state (value and tangents) at least once.
TEST(GoldenFlowpipe, ReinitGradient) {
  const ode::Benchmark bench = ode::make_acc_benchmark();
  const nn::LinearController ctrl(Mat{{0.6, -2.2}});
  TmReachOptions opt;
  opt.reinit_rem_fraction = 0.01;
  const TmVerifier v(bench.system, bench.spec,
                     std::make_shared<reach::LinearAbstraction>(), opt);
  const reach::GradFlowpipe g =
      expect_grad_golden("grad_acc_linctrl_reinit", v, bench.spec.x0, ctrl);
  EXPECT_GT(g.fp.tm_stats.reinits, 0u);
}

// The destabilized oscillator with a tight inflation budget: the dual
// pass's remainder validation fails and ends the pipe.
TEST(GoldenFlowpipe, ValidationFailureGradient) {
  const ode::Benchmark bench = ode::make_oscillator_benchmark();
  const nn::LinearController ctrl(Mat{{5.0, 5.0}});
  TmReachOptions opt;
  opt.max_inflations = 2;
  const TmVerifier v(bench.system, bench.spec,
                     std::make_shared<reach::LinearAbstraction>(), opt);
  const reach::GradFlowpipe g =
      expect_grad_golden("grad_osc_destab_fixed", v, bench.spec.x0, ctrl);
  EXPECT_FALSE(g.fp.valid);
  EXPECT_NE(g.fp.failure.find("remainder validation failed"),
            std::string::npos)
      << g.fp.failure;
}

// Expression dynamics (the pendulum's sin term): ExprTmDynamics is not
// replay-safe, so every Picard pass of both drivers keeps the full
// remainder channel.
TEST(GoldenFlowpipe, PendulumExprDynamics) {
  const ode::Benchmark bench = ode::make_pendulum_benchmark();
  const nn::LinearController ctrl(Mat{{-3.0, -1.5}});
  for (const Mode& m : kModes) {
    if (m.symbolic) continue;
    SCOPED_TRACE(m.name);
    const TmVerifier v(bench.system, bench.spec,
                       std::make_shared<reach::LinearAbstraction>(),
                       options(m));
    expect_driver_golden(std::string("fp_pendulum_linctrl_") + m.name, v,
                         bench.spec.x0, ctrl);
  }
}

// X_I searches through the period modes the two existing search entries
// (symbolic + adaptive) leave out, both with parent-prefix replay.
core::InitialSetResult acc_search(const TmReachOptions& tm) {
  const ode::Benchmark bench = ode::make_acc_benchmark();
  const TmVerifier v(bench.system, bench.spec,
                     std::make_shared<reach::LinearAbstraction>(), tm);
  const nn::LinearController ctrl(Mat{{0.7, -2.4}});
  core::InitialSetOptions opt;
  opt.max_depth = 6;
  opt.reuse_parent_prefix = true;
  opt.batch = 0;
  opt.threads = 2;
  return core::search_initial_set(v, bench.spec, ctrl, opt);
}

TEST(GoldenFlowpipe, AccSearchSymbolicFixedReuse) {
  TmReachOptions tm;
  tm.symbolic_remainder = true;
  expect_golden("acc_linear_symrem_reuse_d6", acc_search(tm));
}

TEST(GoldenFlowpipe, AccSearchAdaptiveReuse) {
  TmReachOptions tm;
  tm.adaptive = true;
  expect_golden("acc_linear_adaptive_reuse_d6", acc_search(tm));
}

}  // namespace
}  // namespace dwv
