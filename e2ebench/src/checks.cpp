#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <random>
#include <sstream>

#include "core/falsify.hpp"
#include "core/verdict.hpp"
#include "sim/simulate.hpp"

namespace e2e {

using namespace dwv;

Containment check_containment(const ode::System& sys,
                              const nn::Controller& ctrl,
                              const ode::ReachAvoidSpec& spec,
                              const geom::Box& from,
                              const reach::Flowpipe& fp, std::size_t samples,
                              std::uint64_t seed) {
  Containment c;
  std::mt19937_64 rng(seed);
  const sim::SimOptions so;
  for (std::size_t s = 0; s < samples; ++s) {
    const sim::Trace tr = sim::simulate(sys, ctrl, from.sample(rng),
                                        spec.delta, spec.steps, so);
    ++c.samples;
    bool escaped = tr.diverged;
    const std::size_t steps = std::min(tr.states.size(), fp.step_sets.size());
    for (std::size_t k = 0; k < steps && !escaped; ++k) {
      escaped = !fp.step_sets[k].contains(tr.states[k]);
    }
    for (std::size_t k = 0; k < fp.interval_hulls.size() && !escaped; ++k) {
      const std::size_t end =
          std::min((k + 1) * so.substeps + 1, tr.fine_states.size());
      for (std::size_t j = k * so.substeps; j < end && !escaped; ++j) {
        escaped = !fp.interval_hulls[k].contains(tr.fine_states[j]);
      }
    }
    if (escaped) ++c.escapes;
    const sim::TraceVerdict v = sim::evaluate_trace(tr, spec);
    if (!v.safe) ++c.unsafe;
    if (!v.reached) ++c.unreached;
  }
  return c;
}

double reach_width(const reach::Flowpipe& fp, const geom::Box& x0) {
  if (fp.step_sets.empty()) return 0.0;
  double sum = 0.0;
  for (const geom::Box& b : fp.step_sets) {
    double rel = 0.0;
    for (std::size_t i = 0; i < x0.dim(); ++i) {
      rel += b[i].width() / x0[i].width();
    }
    sum += rel / static_cast<double>(x0.dim());
  }
  return sum / static_cast<double>(fp.step_sets.size());
}

void put_params(reach::ser::Writer& w, const nn::Controller& ctrl) {
  const linalg::Vec p = ctrl.params();
  w.u64(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) w.f64(p[i]);
}

bool same_params(const nn::Controller& a, const nn::Controller& b) {
  reach::ser::Writer wa, wb;
  put_params(wa, a);
  put_params(wb, b);
  return wa.bytes() == wb.bytes();
}

namespace {

// Falsifier budget per certified X_I cell: the cells are small, and a
// certificate is wrong as soon as one counterexample exists anywhere.
core::FalsifyOptions cell_falsify_options(std::uint64_t seed) {
  core::FalsifyOptions fo;
  fo.restarts = 2;
  fo.iters_per_restart = 25;
  fo.seed = seed;
  return fo;
}

std::string box_text(const geom::Box& b) {
  std::ostringstream os;
  os << b;
  return os.str();
}

}  // namespace

void check_certificates(const reach::Verifier& verifier,
                        const ode::System& sys, const nn::Controller& ctrl,
                        const ode::ReachAvoidSpec& spec, bool safe,
                        bool reach_avoid, const core::InitialSetResult& xi,
                        std::uint64_t seed,
                        std::vector<std::string>& failures) {
  core::FalsifyOptions fo;
  fo.seed = seed;
  if (safe && core::falsify_safety(sys, ctrl, spec, fo).falsified) {
    failures.push_back("falsify_safety found an unsafe trace from X0");
  }
  if (reach_avoid && core::falsify_goal(sys, ctrl, spec, fo).falsified) {
    failures.push_back("falsify_goal found a trace from X0 missing Xg");
  }
  for (std::size_t i = 0; i < xi.certified.size(); ++i) {
    const geom::Box& cell = xi.certified[i];
    ode::ReachAvoidSpec cell_spec = spec;
    cell_spec.x0 = cell;
    const std::uint64_t cell_seed = seed * 1000003 + i;
    const reach::Flowpipe fp = verifier.compute(cell, ctrl);
    const Containment c =
        check_containment(sys, ctrl, spec, cell,
                          fp.valid ? fp : reach::Flowpipe{}, 8, cell_seed);
    if (c.escapes != 0 || c.unsafe != 0 || c.unreached != 0) {
      failures.push_back("X_I cell " + box_text(cell) + ": " +
                         std::to_string(c.escapes) + " escapes, " +
                         std::to_string(c.unsafe) + " unsafe, " +
                         std::to_string(c.unreached) + " unreached traces");
    }
    const core::FalsifyOptions cfo = cell_falsify_options(cell_seed);
    if (core::falsify_safety(sys, ctrl, cell_spec, cfo).falsified ||
        core::falsify_goal(sys, ctrl, cell_spec, cfo).falsified) {
      failures.push_back("a falsifier broke the certificate of X_I cell " +
                         box_text(cell));
    }
  }
}

void self_test(const ode::System& sys, const nn::Controller& ctrl,
               const ode::ReachAvoidSpec& spec, const reach::Flowpipe& fp,
               std::uint64_t seed, std::vector<std::string>& failures) {
  reach::Flowpipe shrunk = fp;
  if (shrunk.step_sets.size() < 2) {
    failures.push_back("self-test: flowpipe has no step box to shrink");
  } else {
    geom::Box& b = shrunk.step_sets[shrunk.step_sets.size() / 2];
    b = geom::Box::point(b.center());
    const Containment c =
        check_containment(sys, ctrl, spec, spec.x0, shrunk, 16, seed);
    if (c.escapes == 0) {
      failures.push_back("self-test: a shrunk flowpipe box was not flagged");
    }
  }
  std::unique_ptr<nn::Controller> flipped = ctrl.clone();
  linalg::Vec p = flipped->params();
  p[0] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p[0]) ^ 1u);
  flipped->set_params(p);
  if (same_params(ctrl, *flipped)) {
    failures.push_back("self-test: a flipped parameter bit was not flagged");
  }
}

}  // namespace e2e
