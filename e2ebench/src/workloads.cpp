#include "workloads.hpp"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "checks.hpp"
#include "core/verdict.hpp"
#include "reach/cache.hpp"
#include "trace.hpp"

namespace e2e {

using namespace dwv;

double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

constexpr double Layers::*kLayerFields[] = {
    &Layers::learner_iters,     &Layers::learner_calls,
    &Layers::learner_busy_s,    &Layers::learner_wall_s,
    &Layers::cache_misses,      &Layers::cache_disk_hits,
    &Layers::cache_bytes_written, &Layers::cache_bytes_read,
    &Layers::cache_overhead_s,  &Layers::dyn_calls,
    &Layers::dyn_busy_s,        &Layers::abs_calls,
    &Layers::abs_busy_s,        &Layers::traced_verifier_busy_s,
    &Layers::substeps,          &Layers::rejects,
    &Layers::order_escalations, &Layers::reinits,
    &Layers::sym_flushes,       &Layers::xi_calls,
    &Layers::xi_certified,      &Layers::xi_rejected,
    &Layers::search_wall_s,     &Layers::cpu_s,
    &Layers::thread_wall_s,     &Layers::verdict_busy_s,
    &Layers::sim_samples,       &Layers::sim_busy_s,
    &Layers::sim_escapes,
};

}  // namespace

void Layers::add(const Layers& o) {
  for (double Layers::*f : kLayerFields) this->*f += o.*f;
}

void Layers::scale(double k) {
  for (double Layers::*f : kLayerFields) this->*f *= k;
}

namespace {

// Monte-Carlo traces per verify call, checked against the verified pipe.
constexpr std::size_t kVerifySamples = 64;

std::unique_ptr<nn::Controller> zero_gain(const ode::Benchmark& b) {
  return std::make_unique<nn::LinearController>(
      linalg::Mat(1, b.system->state_dim()));
}

// The CLI's ACC learner settings (`dwv learn acc`).
core::LearnerOptions acc_learner_options() {
  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kGeometric;
  opt.alpha = 1.0;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  opt.require_containment = true;
  opt.restarts = 4;
  opt.seed = 1;
  opt.threads = 1;
  return opt;
}

reach::ControlAbstractionPtr abstraction(const std::string& kind) {
  if (kind == "linear") return std::make_shared<reach::LinearAbstraction>();
  if (kind == "polar") return std::make_shared<reach::PolarAbstraction>();
  if (kind == "reachnn") return std::make_shared<reach::ReachNnAbstraction>();
  throw std::invalid_argument("unknown abstraction: " + kind);
}

reach::VerifierPtr make_verifier(const Workload& w, const std::string& kind,
                                 bool traced) {
  auto plain = std::make_shared<reach::TmVerifier>(
      w.bench.system, w.bench.spec, abstraction(kind), w.tm);
  if (!traced) return plain;
  return std::make_shared<reach::TmVerifier>(
      w.bench.system, w.bench.spec,
      std::make_shared<trace::TracedAbstraction>(plain->abstraction()),
      std::make_shared<trace::TracedDynamics>(plain->dynamics()), w.tm);
}

// Books one op; `problems` are the checks it failed.
void book(RepResult& out, const std::string& op,
          const std::vector<std::string>& problems) {
  ++out.ops;
  if (problems.empty()) return;
  ++out.failed_ops;
  for (const std::string& p : problems) out.failures.push_back(op + ": " + p);
}

// Runs `fn`, adding the decorator spans it recorded (traced runs) to `l`.
// Called between ops, when the pool's workers are idle.
template <class Fn>
void with_spans(bool traced, Layers& l, Fn&& fn) {
  if (!traced) {
    fn();
    return;
  }
  const trace::Totals before = trace::totals();
  fn();
  const trace::Totals after = trace::totals();
  const auto calls = [&](trace::Name n) {
    return static_cast<double>(after.calls_of(n) - before.calls_of(n));
  };
  const auto secs = [&](trace::Name n) {
    return after.seconds_of(n) - before.seconds_of(n);
  };
  l.abs_calls += calls(trace::Name::kControlAbstraction);
  l.abs_busy_s += secs(trace::Name::kControlAbstraction);
  l.dyn_calls += calls(trace::Name::kTmDynamics);
  l.dyn_busy_s += secs(trace::Name::kTmDynamics);
}

void append(reach::ser::Bytes& to, const reach::ser::Bytes& b) {
  to.insert(to.end(), b.begin(), b.end());
}

}  // namespace

Workload make_workload(const std::string& name, std::size_t threads) {
  Workload w;
  w.name = name;
  w.search.max_depth = 9;
  w.search.reuse_parent_prefix = true;
  w.search.batch = 0;
  w.search.work_steal = true;
  w.search.threads = 1;
  if (name == "acc_grad_learn") {
    // ACC through the TM engine with the linear-feedback abstraction and
    // forward-mode gradients (`dwv learn acc --verifier linctrl --grad`),
    // learned to full goal containment from the zero gain.
    w.bench = ode::make_acc_benchmark();
    w.start = [b = w.bench] { return zero_gain(b); };
    w.learn = acc_learner_options();
    w.learn.grad = true;
    w.verify_kinds = {"linear"};
    w.verify_repeats = 4;
    w.search_repeats = 64;
  } else if (name == "osc_nn_learn") {
    // The paper's Van der Pol row: tanh MLP, POLAR-lite, SPSA on the
    // Wasserstein metric (the oscillator settings of the table benches).
    w.bench = ode::make_oscillator_benchmark();
    w.start = [b = w.bench] {
      auto ctrl = std::make_unique<nn::MlpController>(
          std::vector<std::size_t>{b.system->state_dim(), 6, 1}, 2.0,
          nn::Activation::kTanh, nn::Activation::kTanh);
      std::mt19937_64 rng(1 * 7 + 1);
      ctrl->init_random(rng, 0.4);
      return std::unique_ptr<nn::Controller>(std::move(ctrl));
    };
    w.learn.metric = core::MetricKind::kWasserstein;
    w.learn.alpha = 0.2;
    w.learn.max_iters = 240;
    w.learn.step_size = 0.2;
    w.learn.require_containment = true;
    w.learn.restarts = 4;
    w.learn.restart_scale = 0.4;
    w.learn.seed = 1;
    w.learn.threads = 1;
    w.verify_kinds = {"polar", "reachnn"};
    w.verify_repeats = 3;
    w.search_repeats = 48;
  } else if (name == "acc_xi_search") {
    // Algorithm 2 on ACC at depth 9 with parent-prefix replay, batch
    // lanes, the work-stealing frontier, the symbolic remainder queue and
    // adaptive steps. The controller is Algorithm 1's feasibility-only
    // gain (metric positivity, no containment requirement), learned in
    // set-up through the same verifier; learner seed 13 gives a gain that
    // is certified safe everywhere but goal-reaching only on part of X0.
    w.bench = ode::make_acc_benchmark();
    w.start = [b = w.bench] { return zero_gain(b); };
    w.learn = acc_learner_options();
    w.learn.require_containment = false;
    w.learn.seed = 13;
    w.tm.symbolic_remainder = true;
    w.tm.adaptive = true;
    w.verify_kinds = {"linear"};
    w.learn_in_setup = true;
    w.relearn_repeats = 8;
    w.verify_repeats = 2;
    w.search.threads = threads;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Runner::Runner(Workload w, std::uint64_t seed, std::string work_dir)
    : w_(std::move(w)), seed_(seed), work_dir_(std::move(work_dir)) {}

Setup Runner::setup(bool traced) const {
  Setup s;
  for (const bool t : {false, true}) {
    Stack& st = t ? s.traced : s.plain;
    st.learn = make_verifier(w_, w_.verify_kinds.front(),
                             t && !w_.learn.grad);
    for (const std::string& k : w_.verify_kinds) {
      st.verify.push_back(make_verifier(w_, k, t));
    }
  }
  s.ctrl = w_.start();
  if (w_.learn_in_setup) {
    const Stack& st = traced ? s.traced : s.plain;
    learn_pair(st.learn, traced, true,
               work_dir_ + (traced ? "/setup-traced" : "/setup"), *s.ctrl,
               s.learn);
  } else {
    // Prime the process-wide lazy state (pool, lane backend, range
    // tables) with one verifier call per verifier from X0.
    for (const auto& v : s.plain.verify) {
      (void)v->compute(w_.bench.spec.x0, *s.ctrl);
    }
  }
  return s;
}

void Runner::learn_pair(const reach::VerifierPtr& v, bool traced,
                        bool in_setup, const std::string& dir,
                        nn::Controller& ctrl, RepResult& out) const {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  core::LearnerOptions opt = w_.learn;
  opt.cache_dir = dir;
  const bool decorated = traced && !w_.learn.grad;

  // One learn or relearn: a fresh Learner each time, so the relearn
  // reopens the directory the learn wrote, like a second process would.
  const auto run = [&](trace::Name name, nn::Controller& c, Layers& l,
                       double& dt) {
    core::LearnResult res;
    with_spans(decorated, l, [&] {
      trace::OpSpan span(name, traced);
      const double t0 = wall_now();
      res = core::Learner(v, w_.bench.spec, opt).learn(c);
      dt = wall_now() - t0;
    });
    l.learner_iters += static_cast<double>(res.iterations);
    l.learner_calls += static_cast<double>(res.verifier_calls);
    l.learner_busy_s += res.verifier_seconds;
    l.learner_wall_s += dt;
    const reach::CacheStats& cs = res.cache_stats;
    l.cache_misses += static_cast<double>(cs.misses);
    l.cache_disk_hits += static_cast<double>(cs.disk_hits);
    l.cache_bytes_written += static_cast<double>(cs.disk_bytes_written);
    l.cache_bytes_read += static_cast<double>(cs.disk_bytes_read);
    l.cache_overhead_s += cs.overhead_seconds;
    if (decorated) {
      l.traced_verifier_busy_s += res.verifier_seconds - cs.overhead_seconds;
    }
    return res;
  };

  std::unique_ptr<nn::Controller> cold = ctrl.clone();
  const core::LearnResult learned =
      run(in_setup ? trace::Name::kOpSetupLearn : trace::Name::kOpLearn,
          *cold, out.layers, out.learn_s);
  reach::ser::Writer w;
  put_params(w, *cold);
  w.u64(learned.iterations);
  w.u64(learned.verifier_calls);
  append(out.bits, w.bytes());
  book(out, in_setup ? "setup learn" : "learn",
       learned.success ? std::vector<std::string>{}
                       : std::vector<std::string>{"did not converge"});

  Layers mean;
  double best = 0;
  for (std::size_t r = 0; r < w_.relearn_repeats; ++r) {
    std::unique_ptr<nn::Controller> warm = ctrl.clone();
    double dt = 0;
    const core::LearnResult res =
        run(in_setup ? trace::Name::kOpSetupRelearn : trace::Name::kOpRelearn,
            *warm, mean, dt);
    best = r == 0 ? dt : std::min(best, dt);
    std::vector<std::string> problems;
    if (!same_params(*cold, *warm) || res.iterations != learned.iterations ||
        res.verifier_calls != learned.verifier_calls) {
      problems.push_back("differs from the cold learn");
    }
    if (res.cache_stats.misses != 0) {
      problems.push_back(std::to_string(res.cache_stats.misses) +
                         " cache misses");
    }
    book(out, in_setup ? "setup relearn" : "relearn", problems);
  }
  mean.scale(1.0 / static_cast<double>(w_.relearn_repeats));
  out.layers.add(mean);
  out.relearn_s += best;
  fs::remove_all(dir);
  ctrl.set_params(cold->params());
}

void Runner::verify_op(const reach::VerifierPtr& v, bool traced,
                       bool primary, const nn::Controller& ctrl,
                       RepResult& out) const {
  const ode::Benchmark& b = w_.bench;
  const std::string op = "verify " + v->name();
  Layers mean;
  double best = 0;
  reach::ser::Bytes first;
  for (std::size_t r = 0; r < w_.verify_repeats; ++r) {
    // A one-entry memo in front of the verifier hands the containment
    // check the exact pipe verify_controller judged, without computing it
    // twice.
    reach::FlowpipeCache::Config cfg;
    cfg.capacity = 1;
    cfg.shards = 1;
    const auto memo = std::make_shared<reach::CachingVerifier>(v, cfg);
    core::VerificationReport rep;
    Containment c;
    reach::Flowpipe fp;
    double t0 = 0, t_verdict = 0, t_sim = 0;
    Layers& l = mean;
    with_spans(traced, l, [&] {
      trace::OpSpan span(trace::Name::kOpVerify, traced);
      t0 = wall_now();
      rep = core::verify_controller(*memo, *b.system, ctrl, b.spec, 200,
                                    seed_);
      t_verdict = wall_now();
      fp = memo->compute(b.spec.x0, ctrl);
      c = check_containment(*b.system, ctrl, b.spec, b.spec.x0, fp,
                            kVerifySamples, seed_ ^ 0x5eedull);
      t_sim = wall_now();
    });
    best = r == 0 ? t_sim - t0 : std::min(best, t_sim - t0);
    l.verdict_busy_s += t_verdict - t0;
    l.sim_samples += static_cast<double>(c.samples);
    l.sim_busy_s += t_sim - t_verdict;
    l.sim_escapes += static_cast<double>(c.escapes);
    l.substeps += static_cast<double>(rep.tm_stats.substeps);
    l.rejects += static_cast<double>(rep.tm_stats.rejects);
    l.order_escalations +=
        static_cast<double>(rep.tm_stats.order_escalations);
    l.reinits += static_cast<double>(rep.tm_stats.reinits);
    l.sym_flushes += static_cast<double>(rep.tm_stats.sym_flushes);
    if (traced) {
      l.traced_verifier_busy_s +=
          memo->cache()->stats().miss_compute_seconds;
    }

    reach::ser::Writer w;
    core::put(w, rep);
    w.u64(c.escapes);
    w.u64(c.unsafe);
    w.u64(c.unreached);
    std::vector<std::string> problems;
    if (r == 0) {
      first = w.bytes();
    } else if (w.bytes() != first) {
      problems.push_back("a repeated call returned different bits");
    }
    const bool ra = rep.verdict == core::Verdict::kReachAvoid;
    if (primary && w_.learn.require_containment && !ra) {
      problems.push_back("verdict " + core::to_string(rep.verdict) +
                         " where reach-avoid was expected");
    }
    if (primary && !w_.learn.require_containment &&
        (ra || !rep.facts.safe_certified)) {
      problems.push_back("expected a safe, not goal-certified controller");
    }
    if (rep.verdict == core::Verdict::kUnsafe) {
      problems.push_back("falsified: " + rep.detail);
    }
    if (c.escapes != 0) {
      problems.push_back(std::to_string(c.escapes) +
                         " sampled traces left the flowpipe");
    }
    if (rep.facts.safe_certified && c.unsafe != 0) {
      problems.push_back("certified safe, but a sampled trace entered Xu");
    }
    if (ra && c.unreached != 0) {
      problems.push_back(
          "certified reach-avoid, but a sampled trace missed Xg");
    }
    book(out, op, problems);
    if (primary && r == 0) {
      out.x0_pipe = std::move(fp);
      out.report = rep;
      out.reach_width = reach_width(out.x0_pipe, b.spec.x0);
    }
  }
  mean.scale(1.0 / static_cast<double>(w_.verify_repeats));
  out.layers.add(mean);
  out.verify_s += best;
  append(out.bits, first);
}

void Runner::search_op(const reach::VerifierPtr& v, bool traced,
                       const nn::Controller& ctrl, RepResult& out) const {
  Layers mean;
  double best = 0;
  reach::ser::Bytes first;
  for (std::size_t r = 0; r < w_.search_repeats; ++r) {
    core::InitialSetResult xi;
    double dt = 0, cpu = 0;
    with_spans(traced, mean, [&] {
      trace::OpSpan span(trace::Name::kOpSearch, traced);
      const double t0 = wall_now();
      const double c0 = cpu_now();
      xi = core::search_initial_set(*v, w_.bench.spec, ctrl, w_.search);
      dt = wall_now() - t0;
      cpu = cpu_now() - c0;
    });
    best = r == 0 ? dt : std::min(best, dt);
    Layers& l = mean;
    l.xi_calls += static_cast<double>(xi.verifier_calls);
    l.xi_certified += static_cast<double>(xi.certified.size());
    l.xi_rejected += static_cast<double>(xi.rejected.size());
    l.search_wall_s += dt;
    l.cpu_s += cpu;
    l.thread_wall_s += dt * static_cast<double>(w_.search.threads);
    // The pool's threads do nothing in a search but verifier calls and
    // frontier bookkeeping, so its CPU time is the verifier's busy time.
    if (traced) l.traced_verifier_busy_s += cpu;

    reach::ser::Writer w;
    core::put(w, xi);
    std::vector<std::string> problems;
    if (r == 0) {
      first = w.bytes();
    } else if (w.bytes() != first) {
      problems.push_back("a repeated call returned different bits");
    }
    if (w_.learn.require_containment && !xi.full()) {
      problems.push_back("X_I is not all of X0 for a reach-avoid controller");
    }
    if (!(xi.coverage > 0.0)) problems.push_back("X_I is empty");
    book(out, "search", problems);
    if (r == 0) {
      out.xi_coverage = xi.coverage;
      out.xi = std::move(xi);
    }
  }
  mean.scale(1.0 / static_cast<double>(w_.search_repeats));
  out.layers.add(mean);
  out.search_s += best;
  append(out.bits, first);
}

RepResult Runner::rep(const Setup& s, bool traced,
                      std::uint32_t rep_id) const {
  const Stack& st = traced ? s.traced : s.plain;
  trace::set_rep(rep_id);
  RepResult out;
  out.ctrl = s.ctrl->clone();
  {
    trace::OpSpan span(trace::Name::kRep, traced);
    if (!w_.learn_in_setup) {
      learn_pair(st.learn, traced, false,
                 work_dir_ + "/rep" + std::to_string(rep_id), *out.ctrl,
                 out);
    }
    for (std::size_t i = 0; i < st.verify.size(); ++i) {
      verify_op(st.verify[i], traced, i == 0, *out.ctrl, out);
    }
    search_op(st.verify.front(), traced, *out.ctrl, out);
  }
  out.pipeline_s = out.learn_s + out.relearn_s + out.verify_s + out.search_s;
  return out;
}

}  // namespace e2e
