// Differential tests for the packed-monomial polynomial kernel: every
// operation must reproduce the retained map-based reference implementation
// (poly/poly_ref.hpp) bit for bit, the key codec must reject exponents that
// exceed the bit budget, and a warm Taylor-model flowpipe step must perform
// zero heap allocations (the perf contract of DESIGN.md section 9).
#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "interval/ivec.hpp"
#include "poly/poly.hpp"
#include "poly/poly_ref.hpp"
#include "reach/tm_dynamics.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/taylor_model.hpp"

namespace {

using dwv::interval::Interval;
using dwv::interval::IVec;
using dwv::poly::decode_key;
using dwv::poly::encode_key;
using dwv::poly::Exponents;
using dwv::poly::key_bits;
using dwv::poly::key_max_exp;
using dwv::poly::Poly;
using dwv::poly::Term;
using dwv::poly::try_encode_key;
using dwv::poly::ref::RefPoly;
using dwv::poly::ref::to_packed;
using dwv::poly::ref::to_ref;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Packed and reference polynomials must hold the same terms in the same
// order with bit-identical coefficients (including signed zeros).
void expect_same(const Poly& p, const RefPoly& r, const char* what) {
  ASSERT_EQ(p.nvars(), r.nvars()) << what;
  ASSERT_EQ(p.term_count(), r.term_count()) << what;
  auto it = r.terms().begin();
  Exponents e;
  for (const Term& t : p.terms()) {
    decode_key(t.key, p.nvars(), e);
    EXPECT_EQ(e, it->first) << what;
    EXPECT_EQ(bits(t.coeff), bits(it->second)) << what;
    ++it;
  }
}

struct PairGen {
  std::mt19937_64 rng;

  explicit PairGen(std::uint64_t seed) : rng(seed) {}

  double coeff() {
    // Mix smooth values with exact zeros, negatives, and tiny magnitudes
    // so cancellation, zero-dropping, and prune paths all fire.
    switch (rng() % 8) {
      case 0:
        return 0.0;
      case 1:
        return -1.0;
      case 2:
        return 1e-14;
      default: {
        std::uniform_real_distribution<double> d(-2.0, 2.0);
        return d(rng);
      }
    }
  }

  Exponents exps(std::size_t nvars, std::uint32_t max_per_var) {
    Exponents e(nvars);
    for (auto& x : e)
      x = static_cast<std::uint32_t>(rng() % (max_per_var + 1));
    return e;
  }

  // Builds a packed/reference pair through the identical add_term sequence.
  std::pair<Poly, RefPoly> make(std::size_t nvars, std::size_t max_terms,
                                std::uint32_t max_per_var) {
    Poly p(nvars);
    RefPoly r(nvars);
    const std::size_t k = rng() % (max_terms + 1);
    for (std::size_t t = 0; t < k; ++t) {
      const Exponents e = exps(nvars, max_per_var);
      const double c = coeff();
      p.add_term(e, c);
      r.add_term(e, c);
    }
    return {std::move(p), std::move(r)};
  }
};

// ---------------------------------------------------------------------------
// Key codec
// ---------------------------------------------------------------------------

TEST(PolyPackedKeys, BitBudgetPerVariableCount) {
  EXPECT_EQ(key_bits(1), 32u);
  EXPECT_EQ(key_bits(2), 32u);
  EXPECT_EQ(key_bits(3), 21u);
  EXPECT_EQ(key_bits(4), 16u);
  EXPECT_EQ(key_bits(8), 8u);
  EXPECT_EQ(key_bits(64), 1u);
  EXPECT_EQ(key_bits(65), 0u);
  EXPECT_EQ(key_max_exp(2), 0xffffffffu);
  EXPECT_EQ(key_max_exp(8), 255u);
  EXPECT_EQ(key_max_exp(65), 0u);
}

TEST(PolyPackedKeys, RoundTripAndLexOrder) {
  PairGen g(101);
  for (std::size_t nvars : {1u, 2u, 3u, 5u, 8u}) {
    const std::uint32_t cap = std::min<std::uint32_t>(key_max_exp(nvars), 9);
    Exponents prev_e;
    std::uint64_t prev_k = 0;
    for (int i = 0; i < 500; ++i) {
      const Exponents e = g.exps(nvars, cap);
      const std::uint64_t k = encode_key(e);
      Exponents back;
      decode_key(k, nvars, back);
      ASSERT_EQ(back, e);
      if (i > 0) {
        // Key order must equal exponent-vector lexicographic order: that
        // equivalence is what makes packed iteration reproduce the old
        // std::map iteration (and its floating-point accumulation order).
        EXPECT_EQ(prev_k < k, prev_e < e);
        EXPECT_EQ(prev_k == k, prev_e == e);
      }
      prev_e = e;
      prev_k = k;
    }
  }
}

TEST(PolyPackedKeys, OverflowIsAHardError) {
  // nvars = 3 gives 21 bits per field.
  Exponents big{1u << 21, 0, 0};
  std::uint64_t k = 0;
  EXPECT_FALSE(try_encode_key(big, k));
  EXPECT_THROW(encode_key(big), std::overflow_error);

  Poly p(3);
  EXPECT_THROW(p.add_term(big, 1.0), std::overflow_error);

  // Multiplication whose product degree exceeds the field must throw, not
  // silently wrap into a neighboring variable's field.
  Poly a(8);
  a.add_term(Exponents{200, 0, 0, 0, 0, 0, 0, 0}, 1.0);
  Poly b(8);
  b.add_term(Exponents{100, 0, 0, 0, 0, 0, 0, 0}, 1.0);
  EXPECT_THROW(a * b, std::overflow_error);

  // More than 64 variables: only constants are representable.
  EXPECT_NO_THROW(Poly::constant(70, 2.5));
  EXPECT_THROW(Poly::variable(70, 0), std::overflow_error);
}

// ---------------------------------------------------------------------------
// Randomized differential suite vs the map-based reference
// ---------------------------------------------------------------------------

TEST(PolyPackedDifferential, AllOpsBitIdenticalToReference) {
  PairGen g(7);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t nvars = 1 + iter % 4;
    auto [pa, ra] = g.make(nvars, 6, 3);
    auto [pb, rb] = g.make(nvars, 6, 3);

    expect_same(pa, ra, "build a");
    expect_same(to_packed(ra), ra, "to_packed");
    expect_same(pa, to_ref(pa), "to_ref");

    expect_same(pa + pb, ra + rb, "add");
    expect_same(pa - pb, ra - rb, "sub");
    expect_same(-pa, -ra, "negate");
    expect_same(pa * pb, ra * rb, "mul");

    const double s = iter % 5 == 0 ? 0.0 : g.coeff();
    expect_same(pa * s, ra * s, "scale");

    for (std::size_t i = 0; i < nvars; ++i)
      expect_same(pa.derivative(i), ra.derivative(i), "derivative");

    expect_same(dwv::poly::pow(pa, 3), dwv::poly::ref::pow(ra, 3), "pow");

    // Composition: substitute a fresh random polynomial per variable.
    std::vector<Poly> psubs;
    std::vector<RefPoly> rsubs;
    for (std::size_t i = 0; i < nvars; ++i) {
      auto [ps, rs] = g.make(nvars, 3, 2);
      psubs.push_back(std::move(ps));
      rsubs.push_back(std::move(rs));
    }
    expect_same(pa.compose(psubs), ra.compose(rsubs), "compose");

    // Point evaluation and interval range: bit-identical scalars.
    dwv::linalg::Vec x(nvars);
    IVec dom;
    dom.resize(nvars);
    for (std::size_t i = 0; i < nvars; ++i) {
      x[i] = g.coeff();
      const double lo = -std::abs(g.coeff());
      dom[i] = Interval(lo, lo + std::abs(g.coeff()));
    }
    EXPECT_EQ(bits(pa.eval(x)), bits(ra.eval(x)));
    const Interval pr = pa.eval_range(dom);
    const Interval rr = ra.eval_range(dom);
    EXPECT_EQ(bits(pr.lo()), bits(rr.lo()));
    EXPECT_EQ(bits(pr.hi()), bits(rr.hi()));

    // Truncation helpers.
    const auto [pkeep, pdrop] = pa.split_by_degree(2);
    const auto [rkeep, rdrop] = ra.split_by_degree(2);
    expect_same(pkeep, rkeep, "split keep");
    expect_same(pdrop, rdrop, "split drop");

    Poly pp = pa;
    RefPoly rp = ra;
    expect_same(pp.prune_small(1e-12), rp.prune_small(1e-12), "prune drop");
    expect_same(pp, rp, "prune keep");

    EXPECT_EQ(bits(pa.max_abs_coeff()), bits(ra.max_abs_coeff()));
    EXPECT_EQ(pa.degree(), ra.degree());
    EXPECT_EQ(bits(pa.constant_term()), bits(ra.constant_term()));
  }
}

TEST(PolyPackedDifferential, EmptyAndConstantEdgeCases) {
  const Poly zero(2);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.degree(), 0u);
  EXPECT_EQ((zero * zero).term_count(), 0u);
  EXPECT_EQ((zero + zero).term_count(), 0u);

  const Poly c = Poly::constant(2, 3.5);
  EXPECT_EQ(c.constant_term(), 3.5);
  EXPECT_EQ((c * zero).term_count(), 0u);
  expect_same(c * c, to_ref(c) * to_ref(c), "const mul");

  // Exact cancellation drops the term, as add_term always did.
  Poly a(2);
  a.add_term({1, 0}, 1.5);
  Poly b(2);
  b.add_term({1, 0}, 1.5);
  EXPECT_TRUE((a - b).is_zero());

  // Scalar multiply by exact zero clears all terms (the map implementation
  // special-cased s == 0.0); any other scale keeps zero-underflowed
  // coefficients in place.
  Poly k = a;
  k *= 0.0;
  EXPECT_TRUE(k.is_zero());
  RefPoly rk = to_ref(a);
  rk *= 0.0;
  expect_same(k, rk, "scale by zero");

  // Zero-variable polynomials are constants.
  const Poly c0 = Poly::constant(0, 2.0);
  EXPECT_EQ(c0.eval(dwv::linalg::Vec{}), 2.0);
}

// ---------------------------------------------------------------------------
// Taylor-model layer: in-place kernels match the value API, and the legacy
// multiplication chain is preserved for small powers.
// ---------------------------------------------------------------------------

namespace taylor_tests {

using dwv::taylor::TaylorModel;
using dwv::taylor::TmEnv;
using dwv::taylor::TmVec;

TmEnv make_env(std::size_t nvars) {
  TmEnv env;
  env.dom.resize(nvars);
  for (std::size_t i = 0; i < nvars; ++i) env.dom[i] = Interval(-0.5, 0.5);
  env.order = 3;
  env.cutoff = 1e-12;
  return env;
}

TaylorModel random_tm(PairGen& g, std::size_t nvars) {
  auto [p, r] = g.make(nvars, 5, 2);
  const double w = std::abs(g.coeff()) * 1e-3;
  return {std::move(p), Interval(-w, w)};
}

void expect_tm_equal(const TaylorModel& a, const TaylorModel& b,
                     const char* what) {
  ASSERT_EQ(a.poly.term_count(), b.poly.term_count()) << what;
  EXPECT_TRUE(a.poly.terms() == b.poly.terms()) << what;
  EXPECT_EQ(bits(a.rem.lo()), bits(b.rem.lo())) << what;
  EXPECT_EQ(bits(a.rem.hi()), bits(b.rem.hi())) << what;
}

TEST(TmPacked, IntoKernelsMatchValueApi) {
  PairGen g(23);
  const std::size_t nvars = 3;
  const dwv::taylor::TmEnv env = make_env(nvars);
  for (int iter = 0; iter < 200; ++iter) {
    const TaylorModel a = random_tm(g, nvars);
    const TaylorModel b = random_tm(g, nvars);

    TaylorModel out;
    dwv::taylor::tm_mul_into(env, a, b, out);
    expect_tm_equal(out, dwv::taylor::tm_mul(env, a, b), "tm_mul");

    dwv::taylor::tm_pow_into(env, a, 1 + iter % 5, out);
    expect_tm_equal(out, dwv::taylor::tm_pow(env, a, 1 + iter % 5),
                    "tm_pow");

    TaylorModel t = a;
    dwv::taylor::tm_truncate_inplace(env, t);
    expect_tm_equal(t, dwv::taylor::tm_truncate(env, a), "tm_truncate");

    dwv::taylor::tm_integrate_time_into(env, a, nvars - 1, out);
    expect_tm_equal(out, dwv::taylor::tm_integrate_time(env, a, nvars - 1),
                    "tm_integrate_time");

    dwv::taylor::tm_subst_var_into(env, a, iter % nvars, 0.25, out);
    expect_tm_equal(
        out, dwv::taylor::tm_subst_var(env, a, iter % nvars, 0.25),
        "tm_subst_var");

    auto [fp, fr] = g.make(2, 4, 2);
    (void)fr;
    const TmVec args{a, b};
    dwv::taylor::tm_eval_poly_into(env, fp, args, out);
    expect_tm_equal(out, dwv::taylor::tm_eval_poly(env, fp, args),
                    "tm_eval_poly");
  }
}

TEST(TmPacked, SmallPowersMatchLegacyChain) {
  PairGen g(31);
  const dwv::taylor::TmEnv env = make_env(2);
  for (int iter = 0; iter < 50; ++iter) {
    const TaylorModel a = random_tm(g, 2);

    expect_tm_equal(dwv::taylor::tm_pow(env, a, 0),
                    TaylorModel::constant(env, 1.0), "pow 0");
    expect_tm_equal(dwv::taylor::tm_pow(env, a, 1), a, "pow 1");

    // The legacy implementation multiplied left to right; orders <= 3 must
    // keep that exact chain (they are the orders the verifiers run at).
    TaylorModel chain = a;
    for (std::uint32_t n = 2; n <= 3; ++n) {
      chain = dwv::taylor::tm_mul(env, chain, a);
      expect_tm_equal(dwv::taylor::tm_pow(env, a, n), chain, "pow chain");
    }
  }
}

// ---------------------------------------------------------------------------
// Flowpipe step: concurrency (fresh scratch per env copy) and the
// zero-allocation steady state.
// ---------------------------------------------------------------------------

struct StepFixture {
  TmEnv env;
  TmVec state;
  TmVec control;
  dwv::reach::PolyTmDynamics dyn;
  dwv::reach::TmReachOptions opt;

  StepFixture()
      : dyn([] {
          // f over (x0, x1, u): a damped oscillator with a quadratic
          // coupling term and additive control.
          Poly f0(3);
          f0.add_term({0, 1, 0}, 1.0);
          Poly f1(3);
          f1.add_term({1, 0, 0}, -1.0);
          f1.add_term({0, 1, 0}, -0.5);
          f1.add_term({1, 1, 0}, 0.1);
          f1.add_term({0, 0, 1}, 1.0);
          return std::vector<Poly>{f0, f1};
        }()) {
    env = make_env(2);
    for (std::size_t i = 0; i < 2; ++i) env.dom[i] = Interval(-0.1, 0.1);
    state.push_back(TaylorModel::variable(env, 0));
    state.push_back(TaylorModel::variable(env, 1));
    control.push_back(TaylorModel::constant(env, 0.25));
  }
};

TEST(TmPacked, ConcurrentStepsMatchSerial) {
  const StepFixture fx;
  const dwv::reach::TmStepResult base = dwv::reach::tm_integrate_step(
      fx.env, fx.state, fx.control, fx.dyn, 0.05, fx.opt);
  ASSERT_TRUE(base.ok) << base.failure;

  // Copied envs build private scratch, so threads never share buffers;
  // results must still be deterministic and equal to the serial run.
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const TmEnv env = fx.env;  // fresh scratch for this thread
      dwv::reach::TmStepResult res;
      for (int i = 0; i < 25; ++i) {
        dwv::reach::tm_integrate_step(env, fx.state, fx.control, fx.dyn,
                                      0.05, fx.opt, res);
        if (!res.ok || !(res.at_end[0].poly.terms() ==
                         base.at_end[0].poly.terms()) ||
            !(res.at_end[1].poly.terms() == base.at_end[1].poly.terms()) ||
            bits(res.at_end[0].rem.lo()) != bits(base.at_end[0].rem.lo()) ||
            bits(res.at_end[1].rem.hi()) != bits(base.at_end[1].rem.hi())) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(TmPacked, SteadyStateStepIsAllocationFree) {
  const StepFixture fx;
  dwv::reach::TmStepResult res;
  // Warm every scratch buffer and the result's own vectors.
  for (int i = 0; i < 10; ++i) {
    dwv::reach::tm_integrate_step(fx.env, fx.state, fx.control, fx.dyn, 0.05,
                                  fx.opt, res);
  }
  ASSERT_TRUE(res.ok) << res.failure;

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 20; ++i) {
    dwv::reach::tm_integrate_step(fx.env, fx.state, fx.control, fx.dyn, 0.05,
                                  fx.opt, res);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state flowpipe step performed heap allocations";
  ASSERT_TRUE(res.ok) << res.failure;
}

}  // namespace taylor_tests

}  // namespace
