#include "reach/tm_flowpipe.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "interval/lanes.hpp"
#include "ode/expr_system.hpp"
#include "parallel/pool.hpp"
#include "reach/cache.hpp"
#include "reach/step_control.hpp"
#include "reach/sym_remainder.hpp"
#include "reach/tm_step.hpp"

namespace dwv::reach {

using interval::Interval;
using interval::IVec;
using poly::Poly;
using taylor::TaylorModel;
using taylor::TmEnv;
using taylor::TmVec;

namespace {

// Fresh affine parameterization absorbing remainders. Tries to keep the
// current linear shape (parallelotope, preconditioning the wrapping away on
// rotating flows); falls back to the box hull when the shape matrix is
// near singular or the parallelotope hull would be looser than the box.
TmVec reinitialize(const TmEnv& env, const TmVec& x, const IVec& end_range) {
  const std::size_t n = x.size();
  const IVec unit(n, Interval(-1.0, 1.0));
  poly::RangeEngine& range = env.scratch().range;

  const auto box_reinit = [&]() {
    TmVec fresh(n);
    for (std::size_t i = 0; i < n; ++i) {
      Poly p = Poly::constant(n, end_range[i].mid()) +
               Poly::variable(n, i) * end_range[i].rad();
      fresh[i] = {std::move(p), Interval(0.0)};
    }
    return fresh;
  };

  // Split each component into constant + linear + (nonlinear, remainder).
  linalg::Mat a(n, n);
  linalg::Vec c(n);
  linalg::Vec r(n);
  for (std::size_t i = 0; i < n; ++i) {
    Poly nonlin(n);
    for (const auto& [key, coeff] : x[i].poly.terms()) {
      const std::uint32_t deg = poly::key_degree(key, n);
      if (deg == 0) {
        c[i] = coeff;
      } else if (deg == 1) {
        for (std::size_t j = 0; j < n; ++j) {
          if (poly::key_exp(key, n, j) == 1) a(i, j) = coeff;
        }
      } else {
        nonlin.add_term_key(key, coeff);
      }
    }
    const Interval resid = range.eval_range(nonlin, unit) + x[i].rem;
    c[i] += resid.mid();
    r[i] = resid.rad();
  }

  const linalg::Lu lu = linalg::lu_factor(a);
  if (lu.singular) return box_reinit();
  linalg::Mat ainv;
  try {
    ainv = linalg::inverse(a);
  } catch (const std::domain_error&) {
    return box_reinit();
  }

  // Column scaling absorbing the residual box: s + A^-1 diag(r) u stays in
  // diag(1 + M) [-1,1]^n with M_j = sum_k |Ainv_jk| r_k.
  linalg::Vec m(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t k = 0; k < n; ++k) s += std::abs(ainv(j, k)) * r[k];
    m[j] = s;
  }
  for (double mj : m) {
    if (!std::isfinite(mj) || mj > 10.0) return box_reinit();
  }

  linalg::Mat ap = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) ap(i, j) *= (1.0 + m[j]);

  // Reject if the parallelotope's box hull is looser than the plain box.
  for (std::size_t i = 0; i < n; ++i) {
    double hull = 0.0;
    for (std::size_t j = 0; j < n; ++j) hull += std::abs(ap(i, j));
    if (hull > 1.2 * end_range[i].rad() + 1e-12) return box_reinit();
  }

  TmVec fresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    Poly p = Poly::constant(n, c[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (ap(i, j) != 0.0) p += Poly::variable(n, j) * ap(i, j);
    }
    fresh[i] = {std::move(p), Interval(0.0)};
  }
  return fresh;
}

}  // namespace

TmStepResult tm_integrate_step(const TmEnv& env_set, const TmVec& state,
                               const TmVec& control,
                               const std::vector<Poly>& f_polys, double h,
                               const TmReachOptions& opt) {
  return tm_integrate_step(env_set, state, control,
                           PolyTmDynamics(f_polys), h, opt);
}

TmStepResult tm_integrate_step(const TmEnv& env_set, const TmVec& state,
                               const TmVec& control, const TmDynamics& f,
                               double h, const TmReachOptions& opt) {
  TmStepResult res;
  tm_integrate_step(env_set, state, control, f, h, opt, res);
  return res;
}

void tm_integrate_step(const TmEnv& env_set, const TmVec& state,
                       const TmVec& control, const TmDynamics& f, double h,
                       const TmReachOptions& opt, TmStepResult& res) {
  integrate_step(env_set, state, control, f, h, opt, res);
}

namespace {
TmDynamicsPtr dynamics_for(const ode::SystemPtr& sys) {
  auto polys = sys->poly_dynamics();
  if (!polys.empty()) {
    return std::make_shared<PolyTmDynamics>(std::move(polys));
  }
  if (const auto* es = dynamic_cast<const ode::ExprSystem*>(sys.get())) {
    return std::make_shared<ExprTmDynamics>(es->exprs());
  }
  assert(false && "system provides neither polynomial nor expression "
                  "dynamics; pass a TmDynamics explicitly");
  return nullptr;
}

// Entry validation: values that would silently corrupt a run (substeps = 0
// makes every step h = delta/0 = inf, order = 0 leaves no polynomial
// channel to iterate on) are rejected with a clear error instead.
TmReachOptions validated(TmReachOptions opt) {
  if (opt.substeps == 0) {
    throw std::invalid_argument(
        "TmReachOptions::substeps must be >= 1 (the step size is "
        "delta / substeps)");
  }
  if (opt.order == 0) {
    throw std::invalid_argument(
        "TmReachOptions::order must be >= 1 (order 0 keeps no polynomial "
        "channel)");
  }
  return opt;
}
}  // namespace

TmVerifier::TmVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                       ControlAbstractionPtr abstraction, TmReachOptions opt)
    : sys_(std::move(sys)),
      spec_(std::move(spec)),
      abs_(std::move(abstraction)),
      opt_(validated(opt)),
      dynamics_(dynamics_for(sys_)) {}

TmVerifier::TmVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                       ControlAbstractionPtr abstraction,
                       TmDynamicsPtr dynamics, TmReachOptions opt)
    : sys_(std::move(sys)),
      spec_(std::move(spec)),
      abs_(std::move(abstraction)),
      opt_(validated(opt)),
      dynamics_(std::move(dynamics)) {}

std::string TmVerifier::name() const {
  std::ostringstream os;
  os << "tm-flowpipe(" << abs_->name() << ", order=" << opt_.order
     << ", substeps=" << opt_.substeps;
  if (opt_.adaptive) os << ", adaptive";
  os << ')';
  return os.str();
}

namespace {

void hash_box(std::vector<std::uint64_t>& w, const geom::Box& b) {
  w.push_back(b.dim());
  for (std::size_t i = 0; i < b.dim(); ++i) {
    w.push_back(std::bit_cast<std::uint64_t>(b[i].lo()));
    w.push_back(std::bit_cast<std::uint64_t>(b[i].hi()));
  }
}

void hash_poly(std::vector<std::uint64_t>& w, const Poly& p) {
  w.push_back(p.nvars());
  w.push_back(p.term_count());
  for (const auto& [key, c] : p.terms()) {
    w.push_back(key);
    w.push_back(std::bit_cast<std::uint64_t>(c));
  }
}

}  // namespace

std::uint64_t TmVerifier::cache_salt() const {
  std::vector<std::uint64_t> w;
  // Once the range-bounding mode word; it stays 0 so the cache keys, disk
  // salts and persisted files of existing cache directories keep their
  // bits.
  w.push_back(0);
  // The symbolic remainder queue changes remainders (sound both ways, but
  // queue-on and queue-off pipes must never alias in a FlowpipeCache).
  w.push_back(opt_.symbolic_remainder ? 1 + opt_.sym_queue_size : 0);
  // Adaptive schedules change remainders too (sound, containment-
  // comparable only); every controller knob is part of the identity. The
  // block is pushed only when adaptive is on so adaptive-off salts keep
  // their historical bits.
  if (opt_.adaptive) {
    w.push_back(0xada97e57ull);
    w.push_back(std::bit_cast<std::uint64_t>(opt_.adaptive_rtol));
    w.push_back(opt_.adaptive_max_halvings);
    w.push_back(opt_.adaptive_order_min);
    w.push_back(opt_.adaptive_order_max);
    w.push_back(opt_.adaptive_reject_budget);
  }
  w.push_back(std::bit_cast<std::uint64_t>(spec_.delta));
  w.push_back(spec_.steps);
  w.push_back(spec_.stop_at_goal ? 1 : 0);
  hash_box(w, spec_.goal);
  hash_box(w, spec_.unsafe);
  if (const auto* pd =
          dynamic_cast<const PolyTmDynamics*>(dynamics_.get())) {
    for (const Poly& p : pd->polys()) hash_poly(w, p);
  }
  return hash_words(0x7ad870c830358979ull, w.data(), w.size());
}

namespace {

// Affine arguments mapping the child's unit parameterization into the
// parent's: s_parent_i = m_i + rho_i * s_child_i, computed so the image of
// [-1, 1] covers the child's exact sub-domain (a few-ulp outward widening
// absorbs the division rounding) while staying inside the parent's
// validated domain. When `time_var` is set the argument list is extended
// with the identity model for tau, so tube models (set vars + tau) can be
// composed with the same machinery.
TmVec restriction_args(const TmEnv& env, const geom::Box& parent_box,
                       const geom::Box& child_box, bool time_var) {
  const std::size_t n = parent_box.dim();
  constexpr double kUlp = 4.0 * std::numeric_limits<double>::epsilon();
  TmVec args;
  args.reserve(env.nvars());
  for (std::size_t i = 0; i < n; ++i) {
    const double pc = parent_box[i].mid();
    const double pr = parent_box[i].rad();
    if (pr <= 0.0) {
      // Degenerate parent dimension: the variable never entered the
      // parent's polynomials (zero initial coefficient), any constant in
      // the domain is a sound stand-in.
      args.push_back(TaylorModel::constant(env, 0.0));
      continue;
    }
    double lo = (child_box[i].lo() - pc) / pr;
    double hi = (child_box[i].hi() - pc) / pr;
    lo = std::max(-1.0, lo - kUlp * (1.0 + std::abs(lo)));
    hi = std::min(1.0, hi + kUlp * (1.0 + std::abs(hi)));
    const double m = 0.5 * (lo + hi);
    const double rho = 0.5 * (hi - lo);
    Poly p = Poly::constant(env.nvars(), m) +
             Poly::variable(env.nvars(), i) * rho;
    args.push_back({std::move(p), Interval(0.0)});
  }
  if (time_var) args.push_back(TaylorModel::variable(env, n));
  return args;
}

// Composes a parent model with the restriction arguments; the parent's
// validated remainder holds pointwise over its domain, so it transfers
// verbatim to the sub-domain.
TaylorModel restrict_tm(const TmEnv& env, const TaylorModel& tm,
                        const TmVec& args) {
  TaylorModel out = taylor::tm_eval_poly(env, tm.poly, args);
  out.rem = out.rem + tm.rem;
  return out;
}

}  // namespace

Flowpipe TmVerifier::compute(const geom::Box& x0,
                             const nn::Controller& ctrl) const {
  return run(x0, ctrl, nullptr, nullptr);
}

TmComputeResult TmVerifier::compute_symbolic(
    const geom::Box& x0, const nn::Controller& ctrl,
    const TmSymbolicPrefix* parent) const {
  auto prefix = std::make_shared<TmSymbolicPrefix>();
  prefix->x0 = x0;
  TmComputeResult out;
  out.fp = run(x0, ctrl, prefix.get(), parent);
  if (!prefix->periods.empty()) out.prefix = std::move(prefix);
  return out;
}

// Per-lane driver state machine, shared by the scalar run() and the
// lockstep-batched run_batch(). One Lane advances one cell at a time; the
// persistent env / scratch / step buffers survive across cells, so a batch
// pays the allocation and range-table cold start once per lane instead of
// once per cell. Reuse cannot change results: every piece of cross-cell
// state is either a scratch buffer that each step fully overwrites or a
// cache that is bit-invisible by contract: the RangeEngine (DESIGN.md §10)
// and the transport memo (§12).
struct TmVerifier::Lane {
  const TmVerifier* v = nullptr;

  // Persistent lane context (survives across cells).
  TmEnv env;       ///< set-variable env, dom = [-1, 1]^n
  TmEnv env_time;  ///< replay-path time-extended env (set vars..., tau)
  TmStepResult sr; ///< integration step buffers, warm across steps + cells
  bool primed = false;

  // Symbolic remainder queue mode (TmReachOptions::symbolic_remainder with
  // Jacobian-capable dynamics): the state models `x` are kept
  // remainder-free between substeps and the accumulated deviation lives in
  // `srq` as (transport matrix, local remainder) pairs — see
  // reach/sym_remainder.hpp and DESIGN.md §12. Plain interval matrix math,
  // identical on scalar and streaming lanes.
  bool sym_on = false;
  sym::SymRemainderQueue srq;
  sym::IMat jac, a_step, a_tube;
  // exp(hJ) enclosures of step_transport, memoized on the exact input bits
  // (bit-invisible; per lane, so lock-free). `xu` is its Jacobian domain.
  sym::TransportMemo transport_memo;
  IVec xu;

  // Substep schedule: the fixed grid, or adaptive steps and orders
  // (TmReachOptions::adaptive) whose decisions are pure functions of
  // per-step computed signals, so every driver — and the gradient dual
  // pass, whose value channel reproduces the same signal bits — derives
  // the identical schedule independently. The controller persists across
  // cells (cheap POD) but is reset per cell.
  StepController sc;
  bool streaming = false;
  double pinned_h = 0.0;    ///< tau-domain width the streaming pin holds
  std::uint32_t pin_cap = 0;

  // Per-cell state, reset by start().
  const nn::Controller* ctrl = nullptr;
  TmSymbolicPrefix* record = nullptr;
  const TmSymbolicPrefix* parent = nullptr;
  Flowpipe fp;
  TmVec x;
  TmVec args_set, args_time;
  std::size_t n = 0;
  double h = 0.0;
  std::size_t step = 0;
  bool recording = false;
  bool was_recording = false;
  bool replaying = false;
  bool done = true;
  // Schedule tape of the period being built (adaptive + recording only):
  // consumed by finish_period into the symbolic prefix.
  std::vector<double> h_tape;
  std::vector<std::uint32_t> order_tape;

  void prime(const TmVerifier& verifier, bool stream) {
    v = &verifier;
    n = v->sys_->state_dim();
    h = v->spec_.delta / static_cast<double>(v->opt_.substeps);
    sc.configure(v->opt_, v->spec_.delta, n);
    streaming = stream;
    pinned_h = h;
    pin_cap = 2 * (v->opt_.adaptive ? sc.order_max() : v->opt_.order) + 2;

    env.dom = IVec(n, Interval(-1.0, 1.0));
    env.order = v->opt_.order;
    env.cutoff = v->opt_.cutoff;

    env_time.dom = IVec(n + 1);
    for (std::size_t i = 0; i < n; ++i) env_time.dom[i] = Interval(-1.0, 1.0);
    env_time.dom[n] = Interval(0.0, h);
    env_time.order = v->opt_.order;
    env_time.cutoff = v->opt_.cutoff;

    if (stream) {
      // Streaming profile for the batched driver: pin the two domains every
      // hot range query of a run uses — the lane-owned set box, and the
      // time-extended box tm_integrate_step writes into its scratch env
      // (identical bits every step, since h and the unit box are fixed per
      // verifier; priming it here matches those writes exactly). Pins are
      // bit-invisible (poly::RangeEngine contract), so stream and classic
      // lanes produce identical results; the scalar compute() entry keeps
      // the engine's general-purpose configuration because its env is
      // call-local and makes no domain-lifetime promise.
      taylor::TmScratch& s = env.scratch();
      const std::uint32_t cap = pin_cap;
      s.range.pin_domain(env.dom, cap);
      // Opt in to remainder-tape record/replay inside tm_integrate_step
      // (skips the redundant poly work of converged Picard passes and
      // validation retries; bit-identical by construction — see
      // taylor::RemTape).
      s.rem_tape.enabled = true;
      TmEnv& et = s.env_time;
      if (!s.env_time_init) {
        et.borrow_scratch(env);
        s.env_time_init = true;
      }
      et.dom.resize(n + 1);
      for (std::size_t i = 0; i <= n; ++i) et.dom[i] = env_time.dom[i];
      et.order = env.order;
      et.cutoff = env.cutoff;
      s.range.pin_domain(et.dom, cap);
    }
    primed = true;
  }

  void start(const TmVerifier& verifier, const geom::Box& x0,
             const nn::Controller& c, TmSymbolicPrefix* rec,
             const TmSymbolicPrefix* par, bool stream) {
    if (!primed) prime(verifier, stream);
    assert(x0.dim() == n);
    ctrl = &c;
    record = rec;
    parent = par;

    // Initial affine parameterization x_i = c_i + r_i s_i.
    const linalg::Vec cc = x0.center();
    const linalg::Vec r = x0.radius();
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Poly p = Poly::constant(n, cc[i]) + Poly::variable(n, i) * r[i];
      x[i] = {std::move(p), Interval(0.0)};
    }

    fp = Flowpipe{};
    fp.step_sets.reserve(v->spec_.steps + 1);
    fp.interval_hulls.reserve(v->spec_.steps);
    fp.step_sets.push_back(x0);
    // fp is a member (stable address): the stats pointer survives the
    // std::move of fp at cell retirement, and the next start() re-points.
    sc.reset(&fp.tm_stats);
    h_tape.clear();
    order_tape.clear();

    // Recording stops at the first re-initialization: afterwards the state
    // models no longer depend on the initial-set variables, so a child cell
    // could not soundly restrict them.
    recording = record != nullptr;
    was_recording = recording;
    step = 0;
    done = false;

    sym_on = v->opt_.symbolic_remainder && v->dynamics_->has_state_jacobian();
    if (sym_on) srq.reset(n, v->opt_.sym_queue_size);

    replaying = parent != nullptr && !parent->periods.empty() &&
                parent->x0.dim() == n && parent->x0.contains(x0);
    if (replaying) {
      args_set = restriction_args(env, parent->x0, x0, false);
      args_time = restriction_args(env_time, parent->x0, x0, true);
    }
  }

  // Adaptive streaming lanes: the scratch's time-extended domain is PINNED
  // in the range engine (pointer identity fast path), so its tau width may
  // only change through a re-pin — writing new bits under a stale pin
  // would serve power rows for the old [0, h]. Pin maintenance is
  // bit-invisible by the RangeEngine contract, so re-pin timing cannot
  // change results. No-op on the scalar driver (no pins) and on the fixed
  // grid (h never changes).
  void set_step_h(double hs) {
    if (!streaming || hs == pinned_h) return;
    taylor::TmScratch& s = env.scratch();
    TmEnv& et = s.env_time;
    et.dom[n] = Interval(0.0, hs);
    s.range.pin_domain(et.dom, pin_cap);
    pinned_h = hs;
  }

  // Books the period into the pipe, applies the stop/divergence/re-init
  // policy. Returns nonzero when the pipe is finished (1) or failed (2).
  int finish_period(const IVec& period_hull, std::vector<TmVec>&& tube_rec) {
    fp.interval_hulls.emplace_back(period_hull);
    IVec end_range = taylor::tm_vec_range(env, x);
    // Queued mode keeps the accumulated remainder out of x; every box the
    // rest of the pipeline sees gets it added back here.
    if (sym_on) end_range += srq.box();
    fp.step_sets.emplace_back(end_range);
    if (sym_on) fp.tm_stats.sym_flushes = srq.flushes();
    if (recording) {
      if (sym_on) {
        // Materialize the queue into the recorded models so the prefix
        // stands alone: a child cell restricting it must not need this
        // cell's queue state.
        TmVec x_mat = x;
        for (std::size_t i = 0; i < n; ++i) x_mat[i].rem += srq.box()[i];
        record->periods.push_back({std::move(tube_rec), std::move(x_mat),
                                   std::move(h_tape),
                                   std::move(order_tape)});
      } else {
        record->periods.push_back(
            {std::move(tube_rec), x, std::move(h_tape),
             std::move(order_tape)});
      }
      h_tape.clear();
      order_tape.clear();
    }

    // Reach-avoid semantics: the run ends when the goal is provably
    // reached; tracking the post-goal flow would only inflate the pipe.
    if (v->spec_.stop_at_goal &&
        v->spec_.goal.contains(geom::Box(end_range))) {
      return 1;
    }

    if (end_range.max_mag() > v->opt_.divergence_bound) {
      fp.valid = false;
      fp.failure = "flowpipe enclosure diverged";
      return 2;
    }

    // Adaptive re-initialization: when the interval remainder dominates the
    // polynomial spread, absorb it into a fresh affine parameterization so
    // the closed-loop contraction can act on what used to be an
    // uncontractable interval term. Preconditioned (parallelotope) variant:
    // keep the current linear shape A and absorb remainder + nonlinear
    // residue by scaling the columns, A' = A diag(1 + |A^-1| r); this
    // avoids the box-wrapping blowup on rotating flows. Falls back to a box
    // when A is near singular.
    if (v->opt_.reinit_rem_fraction > 0.0) {
      bool reinit = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double spread = end_range[i].rad();
        const double rem_rad =
            sym_on ? (x[i].rem + srq.box()[i]).rad() : x[i].rem.rad();
        if (rem_rad > v->opt_.reinit_rem_fraction * spread &&
            rem_rad > 10.0 * v->opt_.rem_init) {
          reinit = true;
          break;
        }
      }
      if (reinit) {
        // Re-initialization absorbs the full remainder into a fresh affine
        // parameterization; in queued mode that includes the queue, which
        // is therefore spent.
        if (sym_on) {
          for (std::size_t i = 0; i < n; ++i) x[i].rem += srq.box()[i];
          srq.clear();
        }
        x = reinitialize(env, x, end_range);
        recording = false;
        ++fp.tm_stats.reinits;
      }
    }
    return 0;
  }

  // One replayed period: a polynomial composition of the parent's recorded
  // models instead of a Picard fixpoint + remainder validation. When the
  // parent carries an adaptive schedule tape, each tube model is evaluated
  // over its own tau domain [0, h[sub]] — the parent's models were
  // validated per step, so a fixed-width tau would be unsound where the
  // parent stepped shorter and loose where it stepped longer.
  void replay_period() {
    const TmSymbolicPrefix::Period& period = parent->periods[step];
    const bool tape = !period.h.empty();

    IVec period_hull;
    std::vector<TmVec> tube_rec;
    if (recording) tube_rec.reserve(period.tube.size());
    for (std::size_t sub = 0; sub < period.tube.size(); ++sub) {
      // env_time is lane-local and unpinned (its scratch is separate from
      // the streaming env's), so mutating the tau domain here is safe. The
      // truncation order follows the tape too: restricting an escalated
      // model at a lower order would shave validated terms into the
      // remainder.
      if (tape) {
        env_time.dom[n] = Interval(0.0, period.h[sub]);
        env_time.order = period.order[sub];
      }
      TmVec restricted(n);
      for (std::size_t i = 0; i < n; ++i) {
        restricted[i] = restrict_tm(env_time, period.tube[sub][i], args_time);
      }
      const IVec range = taylor::tm_vec_range(env_time, restricted);
      period_hull = (sub == 0) ? range : interval::hull(period_hull, range);
      if (recording) tube_rec.push_back(std::move(restricted));
      fp.tm_stats.note_step(tape ? period.h[sub] : h);
    }
    if (recording && tape) {
      // Propagate the parent's tape so a grandchild replays the same
      // schedule.
      h_tape = period.h;
      order_tape = period.order;
    }

    TmVec x_end(n);
    if (tape) env.order = period.order.back();
    for (std::size_t i = 0; i < n; ++i) {
      x_end[i] = restrict_tm(env, period.at_end[i], args_set);
    }
    x = std::move(x_end);
    ++step;

    if (finish_period(period_hull, std::move(tube_rec)) != 0) done = true;
  }

  // Encloses one substep's deviation transport for the symbolic remainder
  // queue. Bootstrap containment argument: guess an a-priori deviation box
  // D = [-d, d]^n with d = kappa * |Q|_inf, enclose J = df/dx over
  // (tube + D) x U, and accept iff A_tube * Q lands strictly inside D,
  // where A_tube = exp([0, h] J) encloses the transition matrix of the
  // variational equation for every partial time. Acceptance proves the
  // offset trajectories never leave tube + D (first-exit contradiction),
  // which is what makes J — and hence both transports — sound. This is the
  // queue's per-step containment test; on failure kappa escalates, and if
  // no kappa works the caller concretizes the queue and redoes the substep
  // conventionally (always sound, merely looser).
  //
  // On success: a_step = exp(h J) (endpoint transport, applied to the
  // queue), q_tube = A_tube * Q (the deviation enclosure over the substep).
  // `hs`/`order` are the substep's own step size and truncation order, as
  // the step controller decided them (imat_exp already takes an arbitrary
  // time interval).
  bool step_transport(const IVec& tube, const IVec& u_rng, double hs,
                      std::uint32_t order, IVec& q_tube) {
    const IVec& q = srq.box();
    double qmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) qmax = std::max(qmax, q[i].mag());
    if (qmax == 0.0) {
      a_step = sym::IMat::identity(n);
      q_tube = IVec(n);
      return true;
    }
    const std::uint32_t terms = order + 2;
    const std::size_t m = u_rng.size();
    xu.resize(n + m);
    for (std::size_t k = 0; k < m; ++k) xu[n + k] = u_rng[k];
    for (double kappa = 2.0; kappa <= 512.0; kappa *= 4.0) {
      const double dmag = (Interval(kappa) * Interval(qmax)).hi();
      const Interval d = Interval::symmetric(dmag);
      for (std::size_t i = 0; i < n; ++i) xu[i] = tube[i] + d;
      if (!v->dynamics_->state_jacobian(xu, jac)) return false;
      // A larger kappa only grows the Jacobian domain, so once the series
      // tail diverges escalation cannot recover.
      if (!transport_memo.exp(jac, Interval(0.0, hs), terms, a_tube)) {
        return false;
      }
      sym::imat_apply(a_tube, q, q_tube);
      bool inside = true;
      for (std::size_t i = 0; i < n && inside; ++i) {
        inside = q_tube[i].lo() > -dmag && q_tube[i].hi() < dmag;
      }
      if (!inside) continue;
      return transport_memo.exp(jac, Interval(hs), terms, a_step);
    }
    return false;
  }

  // Moves the interval remainder of x, when nonzero, out of the TM
  // channel into the symbolic remainder queue.
  void queue_remainder() {
    IVec rem(n);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      rem[i] = x[i].rem;
      x[i].rem = Interval(0.0);
      any = any || rem[i].lo() != 0.0 || rem[i].hi() != 0.0;
    }
    if (any) srq.push(rem);
  }

  // One integrated period: controller abstraction + validated substeps on
  // the step controller's schedule (the fixed grid unless adaptive). Under
  // the symbolic remainder queue the state models stay remainder-free and
  // deviations ride in `srq` (DESIGN.md §12).
  void integrate_period() {
    // Queue any incoming interval remainder (a replay restriction, the
    // conventional fallback below).
    if (sym_on) queue_remainder();

    // The abstraction always runs at the configured base order — escalated
    // orders apply to the integration steps only (u is an input whose own
    // degree is independent of the step truncation), keeping the
    // per-period abstraction cost identical to the fixed grid's. It must
    // see the full enclosure, queue included.
    env.order = v->opt_.order;
    TmVec x_ctrl;
    if (sym_on) {
      x_ctrl = x;
      for (std::size_t i = 0; i < n; ++i) x_ctrl[i].rem += srq.box()[i];
    }
    const TmVec u = v->abs_->abstract(env, sym_on ? x_ctrl : x, *ctrl);
    const IVec u_rng = sym_on ? taylor::tm_vec_range(env, u) : IVec();

    IVec period_hull;
    std::vector<TmVec> tube_rec;
    if (recording) tube_rec.reserve(v->opt_.substeps);
    sr.want_tube_tm = recording;  // the tube models only feed the prefix
    bool first = true;
    sc.start_period();
    while (!sc.period_done()) {
      const StepDecision d = sc.next();
      env.order = d.order;
      set_step_h(d.h);
      tm_integrate_step(env, x, u, *v->dynamics_, d.h, v->opt_, sr);

      IVec q_tube;
      if (sym_on && sr.ok) {
        q_tube = IVec(n);
        if (!srq.empty()) {
          if (step_transport(sr.tube_range, u_rng, d.h, d.order, q_tube)) {
            srq.transport(a_step);
          } else {
            // Transport unavailable (dynamics norm beyond the tail bound):
            // concretize the queue into the step input and redo this
            // substep conventionally. Sound — the queue box is exactly the
            // interval remainder the conventional path would have carried.
            for (std::size_t i = 0; i < n; ++i) x[i].rem += srq.box()[i];
            srq.clear();
            q_tube = IVec(n);
            tm_integrate_step(env, x, u, *v->dynamics_, d.h, v->opt_, sr);
          }
        }
      }
      if (!sr.ok) {
        // Adaptive: retry the same state at a halved step (or escalated
        // order) until the per-period budget is spent. The fixed grid
        // fails at once.
        if (sc.reject()) continue;
        fp.valid = false;
        fp.failure = sr.failure;
        done = true;
        return;
      }

      sc.accept(d, {sr.attempts, sr.conv_index, sr.defect_rel,
                    sr.max_poly_terms});
      fp.tm_stats.note_step(d.h);
      // The queue's deviation over the substep widens the tube (the step
      // rewrites sr.tube_range; nothing reads it after this).
      if (sym_on) sr.tube_range += q_tube;
      period_hull = first ? sr.tube_range
                          : interval::hull(period_hull, sr.tube_range);
      first = false;
      std::swap(x, sr.at_end);
      // Queue this substep's validated local remainder.
      if (sym_on) queue_remainder();

      if (recording) {
        // Materialize the transported deviation so the recorded tube
        // stands alone for child restriction.
        if (sym_on) {
          for (std::size_t i = 0; i < n; ++i) sr.tube_tm[i].rem += q_tube[i];
        }
        tube_rec.push_back(std::move(sr.tube_tm));
        // Fixed-grid periods record no tape: replay tells them apart by
        // it (replay_period), and checkpoints serialize it.
        if (v->opt_.adaptive) {
          h_tape.push_back(d.h);
          order_tape.push_back(d.order);
        }
      }
    }
    ++step;
    if (finish_period(period_hull, std::move(tube_rec)) != 0) done = true;
  }

  // Advances the cell by one control period. Replay ends at the parent's
  // recorded horizon or as soon as the (restricted) state re-initializes,
  // whichever comes first; integration resumes from the restricted
  // symbolic state (branch-and-refine reuse, DESIGN.md §8).
  void advance_period() {
    if (done) return;
    if (replaying) {
      if (step < parent->periods.size() && step < v->spec_.steps &&
          recording == was_recording) {
        replay_period();
        return;
      }
      replaying = false;
    }
    if (step >= v->spec_.steps) {
      done = true;
      return;
    }
    integrate_period();
  }
};

Flowpipe TmVerifier::run(const geom::Box& x0, const nn::Controller& ctrl,
                         TmSymbolicPrefix* record,
                         const TmSymbolicPrefix* parent) const {
  Lane lane;
  lane.start(*this, x0, ctrl, record, parent, /*stream=*/false);
  while (!lane.done) lane.advance_period();
  return std::move(lane.fp);
}

std::vector<TmComputeResult> TmVerifier::run_batch(
    const std::vector<TmBatchJob>& jobs, bool symbolic, std::size_t width,
    std::size_t threads) const {
  const std::size_t count = jobs.size();
  std::vector<TmComputeResult> out(count);
  if (count == 0) return out;
  if (width == 0) width = interval::lanes::kWidth;

  // One shard = one lane pool run by the single-threaded lockstep loop over
  // a contiguous slice of the jobs. Cells are mutually independent and every
  // lane owns its env/scratch, so the shard boundaries (like the lane
  // round-robin order) are bit-invisible; results land in index-addressed
  // slots, making `threads = 1` and `threads = N` bit-identical.
  std::vector<std::shared_ptr<TmSymbolicPrefix>> prefixes(count);
  const auto run_shard = [&](std::size_t first, std::size_t last) {
    const std::size_t w = std::min(last - first, width);
    std::vector<Lane> lanes(w);
    std::vector<std::ptrdiff_t> cell(w, -1);  // job index per lane, -1 idle
    std::size_t next = first;

    const auto feed = [&](std::size_t l) {
      if (next >= last) {
        cell[l] = -1;
        return;
      }
      const std::size_t j = next++;
      cell[l] = static_cast<std::ptrdiff_t>(j);
      TmSymbolicPrefix* rec = nullptr;
      if (symbolic) {
        prefixes[j] = std::make_shared<TmSymbolicPrefix>();
        prefixes[j]->x0 = jobs[j].x0;
        rec = prefixes[j].get();
      }
      lanes[l].start(*this, jobs[j].x0, *jobs[j].ctrl, rec, jobs[j].parent,
                     /*stream=*/true);
    };
    for (std::size_t l = 0; l < w; ++l) feed(l);

    // Period-granular lockstep: each round advances every live lane by one
    // control period; a lane that retires its cell (goal stop, divergence,
    // step failure, or horizon) hands its warm context to the next
    // unstarted cell. The round-robin order is irrelevant to results —
    // lanes share no bit-visible state.
    bool live = true;
    while (live) {
      live = false;
      for (std::size_t l = 0; l < w; ++l) {
        if (cell[l] < 0) continue;
        lanes[l].advance_period();
        if (lanes[l].done) {
          const std::size_t j = static_cast<std::size_t>(cell[l]);
          out[j].fp = std::move(lanes[l].fp);
          if (symbolic && prefixes[j] && !prefixes[j]->periods.empty()) {
            out[j].prefix = std::move(prefixes[j]);
          }
          feed(l);
        }
        live = live || cell[l] >= 0;
      }
    }
  };

  // Shards no smaller than a full lane pool: splitting below `width` would
  // only strand lanes, not add parallelism.
  const std::size_t t = std::min(parallel::resolve_threads(threads),
                                 (count + width - 1) / width);
  if (t <= 1) {
    run_shard(0, count);
    return out;
  }
  const std::size_t shard = (count + t - 1) / t;
  parallel::parallel_for(t, t, [&](std::size_t k) {
    const std::size_t first = k * shard;
    const std::size_t last = std::min(count, first + shard);
    if (first < last) run_shard(first, last);
  });
  return out;
}

std::vector<Flowpipe> TmVerifier::compute_batch(
    const geom::Box* x0s, const nn::Controller* const* ctrls,
    std::size_t count, std::size_t width, std::size_t threads) const {
  std::vector<TmBatchJob> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i] = TmBatchJob{x0s[i], ctrls[i], nullptr};
  }
  std::vector<TmComputeResult> rs =
      run_batch(jobs, /*symbolic=*/false, width, threads);
  std::vector<Flowpipe> out;
  out.reserve(count);
  for (TmComputeResult& r : rs) out.push_back(std::move(r.fp));
  return out;
}

std::vector<TmComputeResult> TmVerifier::compute_symbolic_batch(
    const std::vector<TmBatchJob>& jobs, std::size_t width,
    std::size_t threads) const {
  return run_batch(jobs, /*symbolic=*/true, width, threads);
}

}  // namespace dwv::reach
