// Symbolic remainder queue (Flow* 2.x style, the mechanism behind
// ReachNN's setQueueSize): instead of absorbing each integration step's
// validated remainder into the next step's Taylor models — where interval
// composition wraps it once per step — the accumulated remainder is kept
// OUT of the TM channel as a queue of (transport matrix, local remainder)
// pairs
//
//     Q_n = sum_k M_{k,n} J_k,   M_{k,n} = A_{n-1} ... A_k (interval
//     matrices),  J_k = step k's validated local remainder (interval vec),
//
// where A_j encloses the state-to-state sensitivity of step j's flow map.
// Each step multiplies the queued MATRICES by A_n and concretizes the sum
// only where a box is actually needed (checks, hulls, reinit); the
// matrix-matrix products preserve the rotation/cancellation structure a
// per-step box hull destroys, which is exactly the wrapping-effect fix on
// rotating flows (DESIGN.md §12).
//
// Everything here is plain outward-rounded interval arithmetic on small
// dense matrices (n = state dimension), independent of lane width and
// RangeEngine state, so queued results are bit-identical across the scalar
// and batched drivers by construction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "interval/ivec.hpp"

namespace dwv::reach::sym {

/// Dense n-by-n interval matrix (row major).
struct IMat {
  std::size_t n = 0;
  std::vector<interval::Interval> e;

  IMat() = default;
  explicit IMat(std::size_t dim) : n(dim), e(dim * dim) {}

  interval::Interval& at(std::size_t i, std::size_t j) { return e[i * n + j]; }
  const interval::Interval& at(std::size_t i, std::size_t j) const {
    return e[i * n + j];
  }

  static IMat identity(std::size_t dim);
};

/// out = a * b. `out` must not alias either operand. Reuses out's storage,
/// so a warm `out` allocates nothing.
void imat_mul(const IMat& a, const IMat& b, IMat& out);

/// out = a * v. `out` must not alias `v`. Reuses out's storage.
void imat_apply(const IMat& a, const interval::IVec& v, interval::IVec& out);

/// Working matrices of imat_exp; a caller that keeps one across calls makes
/// the series allocation-free once the buffers are warm.
struct ExpScratch {
  IMat b, pow, tmp;
};

/// Sound enclosure of exp(t * J): truncated series sum_{j<=terms} (tJ)^j/j!
/// plus an entrywise tail bound from the infinity norm,
///     |tail| <= r^{m+1}/(m+1)! * 1/(1 - r/(m+2)),  r = ||tJ||_inf,
/// valid whenever r < m + 2 (returns false otherwise, leaving `out`
/// untouched — the caller falls back to concretizing the queue). `t` may be
/// an interval ([0, h] encloses the partial-step transport for every time
/// in the step). A pure function of (J, t, terms).
bool imat_exp(const IMat& j, const interval::Interval& t, std::uint32_t terms,
              IMat& out, ExpScratch& scratch);
bool imat_exp(const IMat& j, const interval::Interval& t, std::uint32_t terms,
              IMat& out);

/// Fixed-capacity memo in front of imat_exp. The key is the exact bit
/// pattern of every input — J.n, both bounds of every entry of J, both
/// bounds of t, and terms — compared bitwise, so -0.0 and +0.0 are distinct
/// keys and a hit returns exactly the bits (or the `false`) a fresh
/// imat_exp would. Least-recently-used entries are evicted. Not
/// thread-safe: each flowpipe lane owns one (DESIGN.md §12).
class TransportMemo {
 public:
  static constexpr std::size_t kCapacity = 16;

  /// Same contract and result bits as imat_exp(j, t, terms, out).
  bool exp(const IMat& j, const interval::Interval& t, std::uint32_t terms,
           IMat& out);

  /// Number of keys held (at most kCapacity).
  std::size_t size() const;

 private:
  struct Entry {
    std::vector<std::uint64_t> key;
    std::uint64_t stamp = 0;  ///< last use; 0 = empty slot
    bool ok = false;          ///< imat_exp's return value
    IMat value;               ///< its enclosure (meaningful when ok)
  };

  std::array<Entry, kCapacity> entries_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> probe_;
  ExpScratch scratch_;
};

/// The queue itself. Invariant maintained by the flowpipe driver: the true
/// state set is { p(s) + d : s in [-1,1]^n, d in sum_k M_k J_k } where p
/// are the driver's remainder-free Taylor models.
class SymRemainderQueue {
 public:
  void reset(std::size_t dim, std::size_t capacity) {
    dim_ = dim;
    cap_ = capacity;
    m_.clear();
    j_.clear();
    box_ = interval::IVec(dim);
    flushes_ = 0;
  }

  bool empty() const { return m_.empty(); }
  std::size_t size() const { return m_.size(); }
  std::size_t flushes() const { return flushes_; }

  /// Concretization sum_k box(M_k J_k), kept current by the mutators.
  const interval::IVec& box() const { return box_; }

  /// Appends an identity-transported entry (step-local remainder, an
  /// incoming interval remainder being moved out of the TM channel, ...).
  /// Flushes first when the queue is at capacity.
  void push(const interval::IVec& j);

  /// Transports every queued entry through one step: M_k <- a * M_k.
  /// Allocation-free once the queue's buffers are warm.
  void transport(const IMat& a);

  /// Collapses the queue to the single entry (I, box()): sound, forgets
  /// the matrix structure. Used on overflow and by the fallback paths.
  void flush();

  /// Drops everything (the remainder was absorbed elsewhere, e.g. by a
  /// flowpipe re-initialization).
  void clear();

 private:
  void recompute_box();

  std::size_t dim_ = 0;
  std::size_t cap_ = 0;
  std::vector<IMat> m_;
  std::vector<interval::IVec> j_;
  interval::IVec box_;
  std::size_t flushes_ = 0;
  // Scratch of transport() / recompute_box(), warm across steps.
  IMat tmp_;
  interval::IVec t_;
};

}  // namespace dwv::reach::sym
