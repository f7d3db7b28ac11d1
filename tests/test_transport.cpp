#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>

#include "core/learner.hpp"
#include "golden_search.hpp"
#include "nn/controller.hpp"
#include "nn/poly_controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"
#include "transport/emd.hpp"
#include "transport/measure.hpp"

namespace dwv::transport {
namespace {

using interval::Interval;
using linalg::Vec;

DiscreteMeasure point_mass(std::initializer_list<double> p) {
  DiscreteMeasure m;
  m.points.push_back(Vec(std::vector<double>(p)));
  m.weights.push_back(1.0);
  return m;
}

TEST(Measure, UniformOnBoxGridWeights) {
  const geom::Box b{Interval(0.0, 1.0), Interval(0.0, 2.0)};
  const DiscreteMeasure m = uniform_on_box(b, {2, 4});
  EXPECT_EQ(m.size(), 8u);
  double s = 0.0;
  for (double w : m.weights) {
    EXPECT_DOUBLE_EQ(w, 1.0 / 8.0);
    s += w;
  }
  EXPECT_NEAR(s, 1.0, 1e-12);
  // Cell centers lie strictly inside the box.
  for (const auto& p : m.points) {
    EXPECT_GT(p[0], 0.0);
    EXPECT_LT(p[0], 1.0);
    EXPECT_GT(p[1], 0.0);
    EXPECT_LT(p[1], 2.0);
  }
}

TEST(Measure, UniformOnBoxDimsProjects) {
  const geom::Box b{Interval(0.0, 1.0), Interval(5.0, 6.0),
                    Interval(-2.0, 2.0)};
  const DiscreteMeasure m = uniform_on_box_dims(b, {0, 2}, 3);
  EXPECT_EQ(m.size(), 9u);
  for (const auto& p : m.points) {
    EXPECT_EQ(p.size(), 2u);
    EXPECT_LT(p[0], 1.0);
    EXPECT_LT(std::abs(p[1]), 2.0);
  }
}

TEST(Emd, PointMassesDistance) {
  const auto a = point_mass({0.0, 0.0});
  const auto b = point_mass({3.0, 4.0});
  EXPECT_NEAR(w1_exact(a, b), 5.0, 1e-10);
}

TEST(Emd, IdenticalMeasuresZero) {
  const geom::Box box{Interval(0.0, 1.0), Interval(0.0, 1.0)};
  const auto m = uniform_on_box(box, {3, 3});
  EXPECT_NEAR(w1_exact(m, m), 0.0, 1e-10);
}

TEST(Emd, TranslationEqualsShiftDistance) {
  // W1 between a measure and its translate is exactly the shift length.
  const geom::Box a{Interval(0.0, 1.0), Interval(0.0, 1.0)};
  const geom::Box b{Interval(2.5, 3.5), Interval(0.0, 1.0)};
  const auto ma = uniform_on_box(a, {4, 4});
  const auto mb = uniform_on_box(b, {4, 4});
  EXPECT_NEAR(w1_exact(ma, mb), 2.5, 1e-9);
}

TEST(Emd, UnevenSupportSizes) {
  // 1 source point vs 4 sinks: cost = weighted mean distance.
  DiscreteMeasure a = point_mass({0.0});
  DiscreteMeasure b;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    b.points.push_back(Vec{x});
    b.weights.push_back(0.25);
  }
  EXPECT_NEAR(w1_exact(a, b), 0.25 * (1 + 2 + 3 + 4), 1e-10);
}

DiscreteMeasure random_2d_measure(std::mt19937_64& rng, std::size_t n,
                                  bool weighted) {
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  DiscreteMeasure m;
  for (std::size_t i = 0; i < n; ++i) {
    m.points.push_back(Vec{u(rng), u(rng)});
    m.weights.push_back(weighted ? 0.1 + (u(rng) + 2.0) : 1.0);
  }
  m.normalize();
  return m;
}

// Row sums match a's weights, column sums b's, and the plan's cost is the
// reported one.
void expect_plan_marginals(const DiscreteMeasure& a, const DiscreteMeasure& b,
                           const EmdResult& r) {
  double cost = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      EXPECT_GE(r.plan[i][j], 0.0);
      row += r.plan[i][j];
      cost += r.plan[i][j] * (a.points[i] - b.points[j]).norm2();
    }
    EXPECT_NEAR(row, a.weights[i], 1e-9) << a.size() << "x" << b.size();
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) col += r.plan[i][j];
    EXPECT_NEAR(col, b.weights[j], 1e-9) << a.size() << "x" << b.size();
  }
  EXPECT_NEAR(cost, r.cost, 1e-9);
}

TEST(Emd, PlanMarginalsAreRespected) {
  const geom::Box a{Interval(0.0, 1.0)};
  const geom::Box b{Interval(4.0, 6.0)};
  const auto ma = uniform_on_box(a, {3});
  const auto mb = uniform_on_box(b, {5});
  expect_plan_marginals(ma, mb, emd_exact(ma, mb));

  // Random non-uniform weights, one workspace across all shapes.
  std::mt19937_64 rng(11);
  TransportWorkspace ws;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 4}, {3, 5}, {7, 2}, {25, 16}, {25, 25}};
  for (const auto& [n, m] : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto wa = random_2d_measure(rng, n, true);
      const auto wb = random_2d_measure(rng, m, true);
      expect_plan_marginals(wa, wb, emd_exact(wa, wb, ws));
    }
  }
}

TEST(Emd, TriangleInequalityOnRandomMeasures) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  const auto random_measure = [&](std::size_t n) {
    DiscreteMeasure m;
    for (std::size_t i = 0; i < n; ++i) {
      m.points.push_back(Vec{u(rng), u(rng)});
      m.weights.push_back(1.0 + 0.5 * (u(rng) + 2.0));
    }
    m.normalize();
    return m;
  };
  for (int trial = 0; trial < 5; ++trial) {
    const auto a = random_measure(6);
    const auto b = random_measure(7);
    const auto c = random_measure(5);
    const double ab = w1_exact(a, b);
    const double bc = w1_exact(b, c);
    const double ac = w1_exact(a, c);
    EXPECT_LE(ac, ab + bc + 1e-9);
    EXPECT_GE(ab, 0.0);
    // Symmetry.
    EXPECT_NEAR(ab, w1_exact(b, a), 1e-9);
  }
}

TEST(Emd, OneDimensionalClosedForm) {
  // W1(U[0,2], U[0,1]) = int_0^1 |2t - t| dt = 1/2 (quantile coupling);
  // grid discretizations converge to it from below/near.
  const geom::Box a{Interval(0.0, 2.0)};
  const geom::Box b{Interval(0.0, 1.0)};
  const auto ma = uniform_on_box(a, {64});
  const auto mb = uniform_on_box(b, {64});
  EXPECT_NEAR(w1_exact(ma, mb), 0.5, 0.02);
}

TEST(Emd, ScalesLinearlyWithDilation) {
  // W1(c*mu, c*nu) = c * W1(mu, nu) for dilations about the origin.
  const geom::Box a{Interval(0.0, 1.0), Interval(0.0, 1.0)};
  const geom::Box b{Interval(2.0, 3.0), Interval(0.0, 1.0)};
  const geom::Box a2{Interval(0.0, 2.0), Interval(0.0, 2.0)};
  const geom::Box b2{Interval(4.0, 6.0), Interval(0.0, 2.0)};
  const double w = w1_exact(uniform_on_box(a, {4, 4}),
                            uniform_on_box(b, {4, 4}));
  const double w2 = w1_exact(uniform_on_box(a2, {4, 4}),
                             uniform_on_box(b2, {4, 4}));
  EXPECT_NEAR(w2, 2.0 * w, 1e-9);
}

TEST(CostMatrix, EuclideanEntries) {
  const auto a = point_mass({0.0, 0.0});
  DiscreteMeasure b;
  b.points = {Vec{3.0, 4.0}, Vec{1.0, 0.0}};
  b.weights = {0.5, 0.5};
  const auto c = cost_matrix(a, b);
  EXPECT_DOUBLE_EQ(c[0][0], 5.0);
  EXPECT_DOUBLE_EQ(c[0][1], 1.0);
}

// ---------------------------------------------------------------------------
// Golden bytes of the exact solver (tests/golden_search.txt). The entries
// were recorded from the binary-heap Dijkstra before the dense scan
// replaced it, so they pin the solver's settle order — every cost bit and
// every plan entry — rather than checking the solver against itself.

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Both solver entry points on one pair: the w1_exact cost, then the
// emd_exact cost and its plan row by row.
void put_emd(reach::ser::Writer& w, const DiscreteMeasure& a,
             const DiscreteMeasure& b) {
  w.f64(w1_exact(a, b));
  const EmdResult r = emd_exact(a, b);
  w.f64(r.cost);
  for (const auto& row : r.plan)
    for (double f : row) w.f64(f);
}

TEST(EmdGolden, Grid5Pairs) {
  // The metric's shape: uniform 5x5 grids on 2-D boxes, disjoint,
  // overlapping, and with zero-width sides (whose cell centers coincide,
  // so the support repeats points).
  std::mt19937_64 rng(2106);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::uniform_real_distribution<double> wd(0.1, 1.5);
  const auto box_at = [](double x, double y, double w, double h) {
    return geom::Box{Interval(x, x + w), Interval(y, y + h)};
  };
  reach::ser::Writer w;
  for (int k = 0; k < 60; ++k) {
    const double x = u(rng), y = u(rng), w0 = wd(rng), h0 = wd(rng);
    const double w1 = wd(rng), h1 = wd(rng);
    geom::Box a = box_at(x, y, w0, h0);
    geom::Box b;
    switch (k % 3) {
      case 0:  // disjoint: b starts past a's right edge
        b = box_at(x + w0 + 0.5 * wd(rng), y + u(rng), w1, h1);
        break;
      case 1:  // overlapping: b starts inside a
        b = box_at(x + 0.5 * w0, y + 0.25 * h0, w1, h1);
        break;
      default:  // zero width in one or both dimensions
        a = box_at(x, y, 0.0, h0);
        b = k % 2 ? box_at(x + u(rng), y, w1, 0.0)
                  : box_at(x + u(rng), y + u(rng), 0.0, 0.0);
        break;
    }
    put_emd(w, uniform_on_box(a, {5, 5}), uniform_on_box(b, {5, 5}));
  }
  golden::expect_golden("emd_grid5_pairs", w.bytes());
}

TEST(EmdGolden, UnequalSizesAndWeights) {
  // 1x4, 3x5 and 25x16 supports, uniform and random non-uniform weights.
  std::mt19937_64 rng(2201);
  reach::ser::Writer w;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 4}, {3, 5}, {25, 16}};
  for (const auto& [n, m] : shapes) {
    for (int k = 0; k < 8; ++k) {
      const bool weighted = k % 2 == 1;
      const auto a = random_2d_measure(rng, n, weighted);
      const auto b = random_2d_measure(rng, m, weighted);
      put_emd(w, a, b);
      put_emd(w, b, a);
    }
  }
  golden::expect_golden("emd_unequal_weighted", w.bytes());
}

TEST(EmdGolden, DuplicatedSupportTies) {
  // Points drawn from a small integer lattice, repeated within and across
  // the two supports: many costs tie exactly (and 3-4-5 distances are
  // exact), so the result depends on how the solver breaks ties.
  std::mt19937_64 rng(4512);
  std::uniform_int_distribution<int> coord(0, 4);
  std::uniform_int_distribution<int> size(2, 12);
  std::uniform_int_distribution<int> weight(1, 4);
  const auto lattice_measure = [&](std::size_t n, bool weighted) {
    DiscreteMeasure m;
    for (std::size_t i = 0; i < n; ++i) {
      m.points.push_back(Vec{double(coord(rng)), double(coord(rng))});
      m.weights.push_back(weighted ? double(weight(rng)) : 1.0);
    }
    m.normalize();
    return m;
  };
  reach::ser::Writer w;
  for (int k = 0; k < 40; ++k) {
    const auto a = lattice_measure(size(rng), k % 2 == 1);
    const auto b = lattice_measure(size(rng), k % 4 >= 2);
    put_emd(w, a, b);
  }
  golden::expect_golden("emd_duplicate_ties", w.bytes());
}

void put_learn(reach::ser::Writer& w, const core::LearnResult& res,
               const nn::Controller& ctrl) {
  w.u64(res.iterations);
  w.u64(res.verifier_calls);
  for (double p : ctrl.params()) w.f64(p);
  for (const auto& r : res.history) {
    w.f64(r.wass.w_goal);
    w.f64(r.wass.w_unsafe);
  }
}

TEST(EmdGolden, OscillatorWassersteinLearn) {
  // The oscillator NN row's learn (tanh MLP, POLAR-lite, SPSA on the
  // Wasserstein metric) on a short budget: every iterate's metric is an
  // exact EMD pair.
  const auto bench = ode::make_oscillator_benchmark();
  const auto verifier = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
      reach::TmReachOptions{});
  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kWasserstein;
  opt.alpha = 0.2;
  opt.max_iters = 24;
  opt.step_size = 0.2;
  opt.require_containment = true;
  opt.restarts = 2;
  opt.restart_scale = 0.4;
  opt.seed = 3;
  opt.threads = 1;
  core::Learner learner(verifier, bench.spec, opt);
  nn::MlpController ctrl({2, 6, 1}, 2.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(22);
  ctrl.init_random(rng, 0.4);
  const core::LearnResult res = learner.learn(ctrl);
  ASSERT_FALSE(res.history.empty());
  EXPECT_GT(res.history.front().wass.w_goal, 0.0);
  reach::ser::Writer w;
  put_learn(w, res, ctrl);
  golden::expect_golden("learn_osc_mlp_wasserstein", w.bytes());
}

TEST(EmdGolden, OscillatorWassersteinGradLearn) {
  // Analytic gradients on the Wasserstein metric: the Danskin gradient
  // reads emd_exact's optimal plan on every dual pass (short horizon to
  // keep the dual passes cheap).
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  const auto verifier = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec,
      std::make_shared<reach::PolynomialAbstraction>(),
      reach::TmReachOptions{});
  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kWasserstein;
  opt.alpha = 0.2;
  opt.max_iters = 8;
  opt.step_size = 0.2;
  opt.require_containment = true;
  opt.restarts = 1;
  opt.seed = 3;
  opt.threads = 1;
  opt.grad = true;
  core::Learner learner(verifier, bench.spec, opt);
  nn::PolynomialController ctrl(2, 1, 2);
  ctrl.set_params(Vec{0.0, -0.4, 0.3, 0.0, 0.1, 0.0});
  const core::LearnResult res = learner.learn(ctrl);
  ASSERT_FALSE(res.history.empty());
  EXPECT_GT(res.history.front().wass.w_goal, 0.0);
  reach::ser::Writer w;
  put_learn(w, res, ctrl);
  golden::expect_golden("learn_osc_poly_wasserstein_grad", w.bytes());
}

// ---------------------------------------------------------------------------
// Workspace reuse and plan marginals.

TEST(EmdWorkspace, ReuseAcrossShapesMatchesFreshAndAllocating) {
  // One workspace serves calls of alternating sizes; every call returns
  // the bits of a fresh workspace and of the allocating overloads.
  std::mt19937_64 rng(7);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {25, 25}, {3, 5}, {25, 25}, {3, 5}};
  TransportWorkspace shared;
  for (const auto& [n, m] : shapes) {
    const auto a = random_2d_measure(rng, n, true);
    const auto b = random_2d_measure(rng, m, true);
    TransportWorkspace fresh;
    const double c_shared = w1_exact(a, b, shared);
    EXPECT_EQ(bits(c_shared), bits(w1_exact(a, b, fresh)));
    EXPECT_EQ(bits(c_shared), bits(w1_exact(a, b)));
    const EmdResult r_shared = emd_exact(a, b, shared);
    const EmdResult r_alloc = emd_exact(a, b);
    EXPECT_EQ(bits(r_shared.cost), bits(c_shared));
    EXPECT_EQ(bits(r_shared.cost), bits(r_alloc.cost));
    ASSERT_EQ(r_shared.plan.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(r_shared.plan[i].size(), m);
      for (std::size_t j = 0; j < m; ++j)
        EXPECT_EQ(bits(r_shared.plan[i][j]), bits(r_alloc.plan[i][j]))
            << n << "x" << m << " plan[" << i << "][" << j << "]";
    }
  }
}

}  // namespace
}  // namespace dwv::transport
