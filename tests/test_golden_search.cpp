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

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "core/initial_set.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"

#ifndef DWV_GOLDEN_SEARCH_FILE
#error "DWV_GOLDEN_SEARCH_FILE must name the golden data file"
#endif

namespace dwv {
namespace {

using linalg::Mat;

struct Golden {
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

// golden_search.txt: `<case> <byte length> <checksum64 in hex>` per line,
// `#` starts a comment line.
std::map<std::string, Golden> load_golden() {
  std::map<std::string, Golden> out;
  std::ifstream in(DWV_GOLDEN_SEARCH_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    Golden g;
    ls >> name >> g.bytes >> std::hex >> g.checksum;
    if (ls) out[name] = g;
  }
  return out;
}

void expect_golden(const std::string& name, const core::InitialSetResult& r) {
  reach::ser::Writer w;
  core::put(w, r);
  const reach::ser::Bytes& b = w.bytes();
  const std::uint64_t sum = reach::ser::checksum64(b.data(), b.size());
  std::ostringstream got;
  got << name << ": " << b.size() << " bytes, checksum 0x" << std::hex << sum;
  const auto golden = load_golden();
  const auto it = golden.find(name);
  ASSERT_NE(it, golden.end()) << "no golden entry; got " << got.str();
  EXPECT_EQ(b.size(), it->second.bytes) << got.str();
  EXPECT_EQ(sum, it->second.checksum) << got.str();
}

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
  opt.work_steal = true;
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
