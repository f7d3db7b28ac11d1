// Golden-bytes regression for the X_I search (Algorithm 2) under the TM
// engine's symbolic remainder queue and adaptive steps.
//
// Each case runs one fixed search and compares the length and
// ser::checksum64 of core::put(InitialSetResult) — every certified and
// rejected box, the coverage and the call count, as exact IEEE-754 bits —
// against golden_search.txt. The golden values were recorded before the
// per-lane transport memo (DESIGN.md §12) existed, so they pin the memo,
// and any later rewrite of the queue kernels, to the unmemoized enclosure
// bits rather than to the code under test.
//
// The two cases cover both ends of the memo's hit rate:
//  - ACC with the linear-feedback abstraction, parent-prefix replay and
//    batch lanes on 2 threads: linear dynamics, a constant Jacobian
//    enclosure and long runs of equal steps, so the memo mostly hits;
//  - the oscillator with POLAR-lite: the Jacobian follows the tube, the
//    bootstrap factor escalates, and the memo mostly misses.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "core/initial_set.hpp"
#include "golden_search.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv {
namespace {

using golden::expect_golden;
using linalg::Mat;

TEST(GoldenSearch, AccLinearSymbolicAdaptiveReuse) {
  const ode::Benchmark bench = ode::make_acc_benchmark();
  reach::TmReachOptions tm;
  tm.symbolic_remainder = true;
  tm.adaptive = true;
  const reach::TmVerifier v(bench.system, bench.spec,
                            std::make_shared<reach::LinearAbstraction>(), tm);
  const nn::LinearController ctrl(Mat{{0.7, -2.4}});
  core::InitialSetOptions opt;
  opt.max_depth = 6;
  opt.reuse_parent_prefix = true;
  opt.batch = 0;
  opt.threads = 2;
  const core::InitialSetResult r =
      core::search_initial_set(v, bench.spec, ctrl, opt);
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_LT(r.coverage, 1.0);
  expect_golden("acc_linear_symrem_adaptive_reuse_d6", r);
}

TEST(GoldenSearch, OscillatorPolarSymbolicAdaptive) {
  const ode::Benchmark bench = ode::make_oscillator_benchmark();
  reach::TmReachOptions tm;
  tm.symbolic_remainder = true;
  tm.adaptive = true;
  const reach::TmVerifier v(bench.system, bench.spec,
                            std::make_shared<reach::PolarAbstraction>(), tm);
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(9);
  ctrl.init_random(rng, 0.8);
  core::InitialSetOptions opt;
  opt.max_depth = 4;
  opt.threads = 1;
  const core::InitialSetResult r =
      core::search_initial_set(v, bench.spec, ctrl, opt);
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_LT(r.coverage, 1.0);
  expect_golden("oscillator_polar_symrem_adaptive_d4", r);
}

}  // namespace
}  // namespace dwv
