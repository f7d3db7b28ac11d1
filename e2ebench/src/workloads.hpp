// The benchmark's workloads: each is one closed-loop caller driving the
// paper pipeline (learn -> relearn from the persistent cache -> verify ->
// X_I search) through the public core/reach entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "ode/benchmarks.hpp"
#include "reach/flowpipe.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"

namespace e2e {

/// Static description of a workload.
///
/// A learn with `learn.require_containment` must verify reach-avoid on all
/// of X0; a feasibility-only learn must verify safe but not goal-reaching,
/// which is what makes the X_I search partition X0. A gradient learn
/// (`learn.grad`) is never decorated in the traced run: TmGradient needs
/// the undecorated TmVerifier and falls back to SPSA otherwise.
struct Workload {
  std::string name;
  dwv::ode::Benchmark bench;
  /// The controller Algorithm 1 starts from.
  std::function<std::unique_ptr<dwv::nn::Controller>()> start;
  dwv::core::LearnerOptions learn;
  dwv::reach::TmReachOptions tm;
  /// Controller abstraction of each verify op; the first one also serves
  /// the learn and the search.
  std::vector<std::string> verify_kinds;
  dwv::core::InitialSetOptions search;
  /// The learn and relearn run in set-up; the measured job is verify and
  /// search of the learned controller.
  bool learn_in_setup = false;
  /// Calls per repetition of the relearn, of each verify op and of the
  /// search. Short ops repeat so each repetition measures enough work: the
  /// op's time is its fastest call (interference only ever slows a call),
  /// its layer numbers the mean per call.
  std::size_t relearn_repeats = 1;
  std::size_t verify_repeats = 1;
  std::size_t search_repeats = 1;
};

/// Builds the named workload; `threads` is the search's pool size.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::size_t threads);

/// Per-layer numbers of one repetition, with repeated ops counted once.
/// Counts are deterministic; times are wall seconds except cpu_s (process
/// CPU).
struct Layers {
  // core.learner, summed over the learn and relearn ops.
  double learner_iters = 0, learner_calls = 0, learner_busy_s = 0,
         learner_wall_s = 0;
  // reach.cache (persistent tier), summed over the learn ops.
  double cache_misses = 0, cache_disk_hits = 0, cache_bytes_written = 0,
         cache_bytes_read = 0, cache_overhead_s = 0;
  // Decorator spans (traced repetitions only).
  double dyn_calls = 0, dyn_busy_s = 0, abs_calls = 0, abs_busy_s = 0;
  /// Verifier busy time inside decorated ops, net of cache bookkeeping.
  double traced_verifier_busy_s = 0;
  // reach.tm_flowpipe counters of the verified X0 flowpipes.
  double substeps = 0, rejects = 0, order_escalations = 0, reinits = 0,
         sym_flushes = 0;
  // core.initial_set.
  double xi_calls = 0, xi_certified = 0, xi_rejected = 0, search_wall_s = 0;
  // parallel: process CPU seconds in searches, and wall x pool threads.
  double cpu_s = 0, thread_wall_s = 0;
  // core.verdict and sim.
  double verdict_busy_s = 0, sim_samples = 0, sim_busy_s = 0,
         sim_escapes = 0;

  void add(const Layers& o);
  void scale(double k);
};

/// Outcome of one repetition (or of the set-up's learn ops).
struct RepResult {
  /// Op times (the fastest call of repeated ops); pipeline_s is their sum
  /// over the job.
  double pipeline_s = 0, learn_s = 0, relearn_s = 0, verify_s = 0,
         search_s = 0;
  double reach_width = 0, xi_coverage = 0;
  Layers layers;
  /// Everything the repetition computed that must repeat bit for bit:
  /// learned parameters, iteration and call counts, verification reports
  /// and the serialized X_I result.
  dwv::reach::ser::Bytes bits;
  std::size_t ops = 0, failed_ops = 0;
  std::vector<std::string> failures;
  /// Kept for the run-level checks.
  std::unique_ptr<dwv::nn::Controller> ctrl;
  dwv::reach::Flowpipe x0_pipe;
  dwv::core::VerificationReport report;
  dwv::core::InitialSetResult xi;
};

/// Verifiers of one tracing mode.
struct Stack {
  dwv::reach::VerifierPtr learn;
  std::vector<dwv::reach::VerifierPtr> verify;
};

struct Setup {
  Stack plain, traced;
  /// Controller the measured job starts from (learned in set-up when
  /// Workload::learn_in_setup).
  std::unique_ptr<dwv::nn::Controller> ctrl;
  RepResult learn;  ///< set-up learn ops (learn_in_setup only)
};

/// Runs a workload's set-up and repetitions. `work_dir` holds the
/// per-repetition persistent cache directories (removed after each use).
class Runner {
 public:
  Runner(Workload w, std::uint64_t seed, std::string work_dir);

  const Workload& workload() const { return w_; }

  /// Builds both verifier stacks and the start controller; learns it when
  /// learn_in_setup (through the traced stack when `traced`).
  Setup setup(bool traced) const;

  /// One repetition of the measured job.
  RepResult rep(const Setup& s, bool traced, std::uint32_t rep_id) const;

 private:
  void learn_pair(const dwv::reach::VerifierPtr& v, bool traced,
                  bool in_setup, const std::string& dir,
                  dwv::nn::Controller& ctrl, RepResult& out) const;
  void verify_op(const dwv::reach::VerifierPtr& v, bool traced,
                 bool primary, const dwv::nn::Controller& ctrl,
                 RepResult& out) const;
  void search_op(const dwv::reach::VerifierPtr& v, bool traced,
                 const dwv::nn::Controller& ctrl, RepResult& out) const;

  Workload w_;
  std::uint64_t seed_;
  std::string work_dir_;
};

double wall_now();
double cpu_now();

}  // namespace e2e
