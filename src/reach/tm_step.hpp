// The validated Picard step (reach::tm_integrate_step), written once over
// the Taylor-model type: the polynomial fixpoint, the remainder validation
// and the step-controller signals. tm_flowpipe.cpp instantiates it for
// TaylorModel (the public tm_integrate_step overloads), grad_flowpipe.cpp
// for taylor::DualTm (the gradient pass). Every decision — containment,
// the signals, term counts — reads the value channel, so the dual pass
// takes exactly the scalar driver's branches. The remainder tape and the
// poly-only passes are streaming-lane state (taylor::TmBuffers) that only
// the scalar lane pool enables.
//
// `Dynamics` provides state_dim(), replay_safe() and
// eval_into(env, args, out) over the model's environment.
#pragma once

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>
#include <vector>

#include "interval/dual_interval.hpp"
#include "poly/dual_poly.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv::reach {

/// Integrates x' = f(x, u) for tau in [0, h] with u held constant (as
/// models over the set variables) into `res`, reusing its buffers and the
/// scratch owned by `env_set` (the environment WITHOUT the time variable).
template <class Env, class Model, class Dynamics, class Ranges>
void integrate_step(const Env& env_set, const std::vector<Model>& state,
                    const std::vector<Model>& control, const Dynamics& f,
                    double h, const TmReachOptions& opt,
                    StepResult<Model, Ranges>& res) {
  using interval::Interval;
  using Poly = std::remove_cvref_t<decltype(std::declval<Model>().poly)>;
  const std::size_t n = state.size();
  const std::size_t m = control.size();
  const std::size_t nv = env_set.nvars();
  assert(f.state_dim() == n);

  auto& s = env_set.scratch();
  const auto zero = rem_constant(env_set, Interval(0.0));

  // Time-extended environment: variables (set vars..., tau in [0, h]).
  // Lives in the scratch so its domain vector (and the buffers of the TM
  // ops it is passed to, which it borrows from env_set) persist across
  // steps. Assignment copies the settings, not the scratch.
  Env& env = s.env_time;
  if (!s.env_time_init) {
    env.borrow_scratch(env_set);
    s.env_time_init = true;
  }
  env = env_set;
  env.dom.resize(nv + 1);
  env.dom[nv] = Interval(0.0, h);
  const std::size_t tau = nv;

  s.x0.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    state[i].poly.lift_vars_into(nv + 1, s.x0[i].poly);
    s.x0[i].rem = state[i].rem;
  }
  s.u.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    control[j].poly.lift_vars_into(nv + 1, s.u[j].poly);
    s.u[j].rem = control[j].rem;
  }

  // Remainder-replay tape (streaming lanes only; taylor::BasicRemTape).
  // When a Picard evaluation's polynomial channel is known to repeat
  // bitwise, one recorded pass captures the remainder-formula constants
  // and later passes replay the remainder arithmetic only.
  auto& tape = s.rem_tape;
  const bool tape_on = tape.enabled && f.replay_safe();
  // In replay mode the kernels leave output polys untouched; when set, the
  // replayed Picard pass materializes out[i].poly from its input (valid
  // exactly when the poly fixpoint converged, so output == input bitwise).
  bool replay_poly_from_input = false;

  const auto picard = [&](const std::vector<Model>& phi,
                          std::vector<Model>& out) {
    const bool rp = tape.mode == tape.kReplay;
    s.args.resize(n + m);
    if (rp) {
      // Replay never reads the argument polys (every poly-derived constant
      // comes off the tape), so only the remainders need to move.
      for (std::size_t i = 0; i < n; ++i) s.args[i].rem = phi[i].rem;
      for (std::size_t j = 0; j < m; ++j) s.args[n + j].rem = s.u[j].rem;
    } else {
      for (std::size_t i = 0; i < n; ++i) s.args[i] = phi[i];
      for (std::size_t j = 0; j < m; ++j) s.args[n + j] = s.u[j];
    }
    f.eval_into(env, s.args, s.g);
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tm_integrate_time_into(env, s.g[i], tau, s.integ);
      if (rp) {
        if (replay_poly_from_input) out[i].poly = phi[i].poly;
      } else {
        Poly::add_into(s.x0[i].poly, s.integ.poly, out[i].poly);
      }
      out[i].rem = s.x0[i].rem + s.integ.rem;
    }
  };

  // Polynomial fixpoint by iteration (tau-degree grows by one per pass).
  // Remainders are zeroed between passes: this phase only constructs the
  // polynomial part, and letting interval remainders compound across the
  // passes would inflate the validated remainder by (1 + hL)^iters instead
  // of (1 + hL) per step.
  //
  // Because the pass remainders are dead, their arithmetic — and the range
  // queries feeding it — is skipped outright (TmBuffers::poly_only)
  // whenever the dynamics' polynomial outputs are remainder-independent
  // (replay_safe: polynomial composition; expression trees linearize
  // enclosures around ranges that include remainders, so they keep the
  // full channel). The polynomial bits are unchanged either way.
  //
  // Streaming lanes additionally test for poly convergence: once a pass
  // maps the polynomials to themselves bitwise, every remaining pass maps
  // (phi, 0) back to phi with the remainder re-zeroed — a bitwise no-op —
  // so they are skipped. The validation attempts below need a remainder
  // tape recorded AT the fixpoint; the convergence index is structural
  // (tau-degree saturates at the order), so each lane predicts it from
  // the previous step (TmBuffers::conv_pred) and records only from there,
  // running the earlier passes poly-only. A misprediction stays correct:
  // converging on a poly-only pass just leaves validation to record its
  // own tape, converging later keeps recording until the compare
  // succeeds. (Skipping no-op passes or range queries only changes what
  // the engine sees; that is bit-invisible by the RangeEngine contract.)
  // The scalar compute() path keeps the plain full-channel kernel
  // sequence: it is the bit-identity oracle the lane results are checked
  // against in tests and in-bench guards.
  const bool rem_dead = tape_on && f.replay_safe();
  bool tape_valid = false;  ///< tape's poly channel == (phi, u) composition
  // Adaptive runs track convergence on every path (conv_index feeds the
  // step controller), and guarantee enough passes for the escalated orders
  // the controller may pick (picard_iters >= order reaches the poly
  // fixpoint). conv_index is the value channel's first repeat; the loop
  // stops once the whole polynomial channel — a dual's tangents too —
  // repeats, after which every pass is a bitwise no-op. (The gradient pass
  // takes only remainder-independent dynamics, so its tangent channels
  // obey the same argument.)
  const bool track_conv = tape_on || opt.adaptive;
  const std::size_t iters_eff =
      opt.adaptive
          ? std::max(opt.picard_iters,
                     static_cast<std::size_t>(env_set.order) + 1)
          : opt.picard_iters;
  std::size_t conv_index = iters_eff;
  s.phi.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.phi[i] = s.x0[i];
  const auto repeats = [&](auto&& channel) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!channel(s.picard_out[i].poly, s.phi[i].poly)) return false;
    }
    return true;
  };
  for (std::size_t it = 0; it < iters_eff; ++it) {
    const bool record = tape_on && it >= s.conv_pred;
    s.poly_only = rem_dead && !record;
    if (record) tape.start_record();
    picard(s.phi, s.picard_out);
    s.poly_only = false;
    if (record) tape.stop();
    bool converged = false;
    if (track_conv) {
      if (conv_index == iters_eff &&
          repeats([](const Poly& a, const Poly& b) {
            return value(a).terms() == value(b).terms();
          })) {
        conv_index = it;
        if (tape_on) {
          s.conv_pred = it;
          tape_valid = record;
        }
      }
      converged = conv_index != iters_eff &&
                  repeats([](const Poly& a, const Poly& b) {
                    return same_terms(a, b);
                  });
    }
    std::swap(s.phi, s.picard_out);
    for (auto& tm : s.phi) tm.rem = zero;
    if (converged) break;
  }
  res.conv_index = conv_index;

  // Remainder validation: find J with P(poly + J) inside poly + J.
  s.rem_j.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.rem_j[i] = hull(s.x0[i].rem,
                      rem_constant(env_set, Interval::symmetric(opt.rem_init)));
  }

  res.ok = false;
  res.failure.clear();
  res.attempts = 0;
  res.defect_rel = 0.0;
  res.max_poly_terms = 0;
  // Every attempt evaluates the Picard operator at the same polynomials
  // (cand.poly is fixed to phi; only the remainder guess changes), so on
  // streaming lanes at most one attempt runs in full: either the fixpoint
  // loop converged and left a valid tape (attempt 0 already replays, with
  // the output polys materialized from phi), or attempt 0 records and the
  // retries replay (their output polys persist in s.pnext from attempt 0).
  bool pnext_poly_ready = false;
  for (std::size_t attempt = 0; attempt <= opt.max_inflations; ++attempt) {
    s.cand.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // phi is fixed for the whole loop; the poly copy only needs to happen
      // on the first attempt (identical bits either way).
      if (attempt == 0) s.cand[i].poly = s.phi[i].poly;
      s.cand[i].rem = s.rem_j[i];
    }
    if (tape_on && tape_valid) {
      replay_poly_from_input = !pnext_poly_ready;
      tape.start_replay();
      picard(s.cand, s.pnext);
      tape.stop();
      replay_poly_from_input = false;
      pnext_poly_ready = true;
    } else if (tape_on) {
      tape.start_record();
      picard(s.cand, s.pnext);
      tape.stop();
      tape_valid = true;
      pnext_poly_ready = true;
    } else {
      picard(s.cand, s.pnext);
    }

    bool contained = true;
    s.d_range.resize(n);
    if (tape_on) s.diff_poly_range.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // d = P(cand)_i - {cand_i.poly, 0}; the interval subtraction of the
      // zero interval outward-widens exactly like the legacy tm_sub did.
      // Both polys are fixed across attempts (cand.poly is pinned to phi
      // and the Picard output polys are attempt-invariant), so the defect
      // poly — and hence its range — is too; on streaming lanes retries
      // reuse the attempt-0 range and redo only the remainder arithmetic.
      if (tape_on && attempt > 0) {
        s.d_range[i] = s.diff_poly_range[i] + (s.pnext[i].rem - zero);
      } else {
        Poly::sub_into(s.pnext[i].poly, s.cand[i].poly, s.diff.poly);
        s.diff.rem = s.pnext[i].rem - zero;
        if (tape_on) {
          s.diff_poly_range[i] = env.poly_range(s.diff.poly);
          s.d_range[i] = s.diff_poly_range[i] + s.diff.rem;
        } else {
          s.d_range[i] = tm_range(env, s.diff);
        }
      }
      if (!value(s.rem_j[i]).contains(value(s.d_range[i]))) contained = false;
    }

    if (contained) {
      // P(cand) encloses the flow and is at least as tight as cand.
      s.validated.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        s.validated[i].poly = s.cand[i].poly;
        s.validated[i].rem = s.d_range[i];
      }

      res.tube_range.resize(n);
      res.at_end.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        res.tube_range[i] = tm_range(env, s.validated[i]);
        tm_subst_last_into(env, s.validated[i], h, res.at_end[i]);
      }
      // Step-controller signals: which attempt proved containment, and the
      // defect magnitude relative to the tube. Pure observation — nothing
      // below reads them on the fixed path.
      res.attempts = attempt;
      res.max_poly_terms = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double tube_rad = value(res.tube_range[i]).rad();
        if (tube_rad > 0.0) {
          const double rel = value(s.d_range[i]).rad() / tube_rad;
          if (rel > res.defect_rel) res.defect_rel = rel;
        }
        res.max_poly_terms = std::max(
            res.max_poly_terms, value(s.validated[i].poly).term_count());
      }
      if (res.want_tube_tm) res.tube_tm = s.validated;
      res.ok = true;
      return;
    }

    for (std::size_t i = 0; i < n; ++i) {
      s.rem_j[i] =
          widen(hull(s.rem_j[i], s.d_range[i]), opt.rem_inflate, opt.rem_init);
    }
  }

  res.attempts = opt.max_inflations + 1;
  res.failure = "remainder validation failed (Picard operator not contracting)";
}

}  // namespace dwv::reach
