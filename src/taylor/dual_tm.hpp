// Forward-mode dual-number Taylor models: DualPoly + DualInterval remainder.
//
// The TM kernels are written once over the model type
// (taylor/tm_kernels.hpp); this header declares their DualTm overloads
// and the primitives a dual model supplies. The value channel performs the
// scalar pipeline's operations (same Poly kernels, same interval op
// sequence, same skip conditions), so a dual pipeline's value bits are
// identical to the scalar pipeline's (tested bitwise in
// tests/test_grad.cpp). Tangents ride along:
//  - polynomial channel: exact product-rule arithmetic with the same
//    mul_into/add_into kernels (d(ab) = (da)b + a(db));
//  - remainder channel: DualInterval ops with the central-difference tie
//    convention of dual_interval.hpp;
//  - zero-coefficient skips the scalar code makes (assign_constant drops
//    c == 0, tm_affine skips w_j == 0, sweep cutoffs): the value channel
//    keeps skipping, tangent contributions are accumulated separately via
//    the tangent-only paths (see dual_poly.hpp).
//
// The value channel's range queries replicate Poly::eval_range directly
// (dual_range), which matches TmEnv::poly_range bit for bit. The dual
// kernels are therefore stateless w.r.t. the scalar RangeEngine: running
// a dual computation can never perturb scalar results.
//
// Scratch ownership follows TmScratch's rules (DESIGN.md §9): one
// DualTmScratch per DualTmEnv, never shared across threads, each kernel
// touching a fixed disjoint buffer subset.
#pragma once

#include <memory>
#include <vector>

#include "interval/dual_interval.hpp"
#include "poly/dual_poly.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::taylor {

struct DualTmScratch;

/// Shared settings of a dual TM computation (the TmEnv analogue, plus the
/// tangent direction count).
struct DualTmEnv {
  interval::IVec dom;
  std::uint32_t order = 3;
  double cutoff = 1e-12;
  std::size_t dirs = 0;

  DualTmEnv() = default;
  DualTmEnv(const DualTmEnv& o)
      : dom(o.dom), order(o.order), cutoff(o.cutoff), dirs(o.dirs) {}
  DualTmEnv& operator=(const DualTmEnv& o) {
    dom = o.dom;
    order = o.order;
    cutoff = o.cutoff;
    dirs = o.dirs;
    return *this;  // keeps its own scratch, like TmEnv
  }

  std::size_t nvars() const { return dom.size(); }

  DualTmScratch& scratch() const;
  /// Aliases this env's scratch to `owner`'s (the borrow_scratch pattern of
  /// TmEnv, used by the step's time-extended env).
  void borrow_scratch(const DualTmEnv& owner) const;

  /// dual_range of `p` over this env's domain (value channel ==
  /// TmEnv::poly_range bits).
  interval::DualInterval poly_range(const poly::DualPoly& p) const;

 private:
  mutable std::shared_ptr<DualTmScratch> scratch_;
};

/// Dual Taylor model: value + tangent polynomials, dual remainder.
struct DualTm {
  poly::DualPoly poly;
  interval::DualInterval rem;

  /// In-place analogue of TaylorModel::assign_constant, with optional
  /// coefficient tangents dc (length = dirs; may be null for a plain
  /// constant). Pushes only nonzero coefficients, like the scalar code.
  void assign_constant(std::size_t nvars, std::size_t dirs, double c,
                       const double* dc) {
    poly.reset(nvars, dirs);
    if (c != 0.0) poly.val.push_term(0, c);
    if (dc != nullptr) {
      for (std::size_t k = 0; k < dirs; ++k) {
        if (dc[k] != 0.0) poly.tan[k].push_term(0, dc[k]);
      }
    }
    rem = interval::DualInterval::constant(interval::Interval(0.0), dirs);
  }
};

using DualTmVec = std::vector<DualTm>;

/// The kernel and step buffers of TmBuffers, plus the dual polynomial
/// layer and the tangent-only side environment.
struct DualTmScratch : TmBuffers<DualTmEnv, DualTm> {
  poly::DualPolyScratch pscratch;
  poly::DualPoly dropped;
  poly::Poly small;

  /// Scalar TM side-environment for the tangent-only composition chains of
  /// add_tangent_only_terms (monomial products evaluated at coefficient 1
  /// over the arguments' value channels). Owns its own TmScratch, so the
  /// side computations can never touch a scalar pipeline's engine state.
  TmEnv side_env;
  TmVec side_args;
  TaylorModel side_term;
  TaylorModel side_mul;
  TaylorModel side_pow;
  std::vector<std::uint64_t> fkeys;
};

inline DualTmScratch& DualTmEnv::scratch() const {
  if (!scratch_) scratch_ = std::make_shared<DualTmScratch>();
  return *scratch_;
}

inline void DualTmEnv::borrow_scratch(const DualTmEnv& owner) const {
  scratch_ = std::shared_ptr<DualTmScratch>(std::shared_ptr<DualTmScratch>(),
                                            &owner.scratch());
}

inline interval::DualInterval DualTmEnv::poly_range(
    const poly::DualPoly& p) const {
  return poly::dual_range(p, dom, scratch().pscratch);
}

// Dual-model primitives of the shared kernels (see taylor_model.hpp).

inline interval::DualInterval rem_constant(const DualTmEnv& env,
                                           interval::Interval x) {
  return interval::DualInterval::constant(x, env.dirs);
}
inline void assign_constant(const DualTmEnv& env, DualTm& m, double c) {
  m.assign_constant(env.nvars(), env.dirs, c, nullptr);
}
/// m = f's coefficient at `key` (value `c`), with its tangents.
void assign_coefficient(const DualTmEnv& env, const poly::DualPoly& f,
                        std::uint64_t key, double c, DualTm& m);
/// Keys present only in f's tangent channel (coefficient exactly 0 at the
/// current parameters, derivative nonzero — e.g. a controller gain at 0).
/// The value channel never sees them; the tangents of `acc` pick up
/// dc * (monomial product over the argument VALUE channels), evaluated at
/// coefficient 1 through the scalar kernels in the private side env.
void add_tangent_only_terms(const DualTmEnv& env, const poly::DualPoly& f,
                            const DualTmVec& args, DualTm& acc);

DualTm dual_tm_add(const DualTm& a, const DualTm& b);
/// Scale by scalar s whose derivative is e_dir (dir < dirs); pass
/// dir = kNoDir for a parameter-independent s.
DualTm dual_tm_scale_dir(const DualTm& a, double s, std::size_t dir);

/// The dual's truncation: the value-channel degree split and cutoff sweep
/// of the scalar tm_truncate_inplace; tangent polynomials are degree-split
/// alongside (structural), but cutoff-pruned VALUE keys keep their tangent
/// terms — a +-h perturbation re-introduces the coefficient far above the
/// cutoff, so perturbed runs keep the term (central-difference
/// consistency).
void tm_truncate_inplace(const DualTmEnv& env, DualTm& tm);

// The shared kernels on dual models (taylor/tm_kernels.hpp). `f` carries
// coefficient tangents: the controller's output polynomial differentiates
// w.r.t. its own coefficients; dynamics polynomials pass zero tangents.
void tm_eval_poly_into(const DualTmEnv& env, const poly::DualPoly& f,
                       const DualTmVec& args, DualTm& out);
void tm_integrate_time_into(const DualTmEnv& env, const DualTm& tm,
                            std::size_t time_var, DualTm& out);
void tm_subst_last_into(const DualTmEnv& env, const DualTm& tm, double c,
                        DualTm& out);
interval::DualInterval tm_range(const DualTmEnv& env, const DualTm& tm);
std::vector<interval::DualInterval> tm_vec_range(const DualTmEnv& env,
                                                 const DualTmVec& v);

/// Mirrors taylor::tm_affine (activations.cpp): acc = b + sum_j w_j in_j,
/// truncated. `wdir[j]` is the parameter direction of weight j (kNoDir
/// for a parameter-independent weight). The scalar code skips w_j == 0
/// terms; the dual version keeps that skip on the value channel and adds
/// the tangent-only contribution d w_j * in_j (value channel) instead.
DualTm dual_tm_affine(const DualTmEnv& env, const DualTmVec& in,
                      const linalg::Vec& w,
                      const std::vector<std::size_t>& wdir, double b);

constexpr std::size_t kNoDir = static_cast<std::size_t>(-1);

}  // namespace dwv::taylor
