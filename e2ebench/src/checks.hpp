// Correctness checks of the benchmark's outputs: sampled closed-loop
// traces against every reported box, falsifiers against every certificate,
// and the self-test that proves the checks can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/initial_set.hpp"
#include "nn/controller.hpp"
#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/flowpipe.hpp"
#include "reach/serialize.hpp"
#include "reach/verifier.hpp"

namespace e2e {

/// Outcome of simulating sampled initial states against a flowpipe.
struct Containment {
  std::size_t samples = 0;
  /// Traces with a state outside its step box or a fine state outside its
  /// interval hull (or that diverged).
  std::size_t escapes = 0;
  std::size_t unsafe = 0;     ///< traces that entered Xu
  std::size_t unreached = 0;  ///< traces that never entered Xg
};

/// Simulates `samples` initial states drawn uniformly from `from` (RK4,
/// zero-order hold) and checks each trace against `fp`'s boxes.
Containment check_containment(const dwv::ode::System& sys,
                              const dwv::nn::Controller& ctrl,
                              const dwv::ode::ReachAvoidSpec& spec,
                              const dwv::geom::Box& from,
                              const dwv::reach::Flowpipe& fp,
                              std::size_t samples, std::uint64_t seed);

/// Mean over control instants of the step box's width relative to X0,
/// averaged over the state dimensions.
double reach_width(const dwv::reach::Flowpipe& fp, const dwv::geom::Box& x0);

/// Appends the exact bit pattern of every parameter.
void put_params(dwv::reach::ser::Writer& w, const dwv::nn::Controller& ctrl);
bool same_params(const dwv::nn::Controller& a, const dwv::nn::Controller& b);

/// Run-level checks of a certificate, appended to `failures`:
///  - falsify_safety must fail on X0 when `safe` is claimed, and
///    falsify_goal too when `reach_avoid` is claimed;
///  - for every certified X_I cell: traces from the cell stay inside the
///    cell's flowpipe (recomputed cold by `verifier`), stay safe and reach
///    the goal, and both falsifiers fail on the cell.
void check_certificates(const dwv::reach::Verifier& verifier,
                        const dwv::ode::System& sys,
                        const dwv::nn::Controller& ctrl,
                        const dwv::ode::ReachAvoidSpec& spec, bool safe,
                        bool reach_avoid,
                        const dwv::core::InitialSetResult& xi,
                        std::uint64_t seed,
                        std::vector<std::string>& failures);

/// Self-test: a real flowpipe with one step box shrunk to its center must
/// show escapes, and a controller with one parameter bit flipped must
/// differ from the original. Appends a failure when a check misses.
void self_test(const dwv::ode::System& sys, const dwv::nn::Controller& ctrl,
               const dwv::ode::ReachAvoidSpec& spec,
               const dwv::reach::Flowpipe& fp, std::uint64_t seed,
               std::vector<std::string>& failures);

}  // namespace e2e
