// Algorithm 2: reach-avoid initial set searching.
//
// After Algorithm 1 certifies safety from the whole X0, goal-reaching may
// still only hold for part of X0 (intersection semantics + reachable-set
// over-approximation). This branch-and-refine search partitions X0 and
// keeps the cells X_p whose reachable set is, at some control instant,
// provably inside the goal: their union is the certified X_I.
#pragma once

#include <vector>

#include "nn/controller.hpp"
#include "ode/spec.hpp"
#include "reach/serialize.hpp"
#include "reach/verifier.hpp"

namespace dwv::core {

/// Upper bound on InitialSetOptions::max_depth. Cells carry 64-bit heap
/// sequence numbers (root 1, children 2s and 2s+1), so a cell at depth d
/// has seq in [2^d, 2^(d+1)); past depth 62 the child sequence 2s+1 can
/// wrap std::uint64_t and two different cells would silently merge under
/// one sequence number. Every search entry point validates the bound and
/// throws std::invalid_argument instead.
inline constexpr std::size_t kMaxSearchDepth = 62;

/// Throws std::invalid_argument when max_depth > kMaxSearchDepth (the
/// entry-point check of the search engine, core/search_shard.hpp).
void validate_search_depth(std::size_t max_depth);

struct InitialSetOptions {
  /// Maximum bisection depth (a cell at depth d has volume |X0| / 2^d).
  /// Must be <= kMaxSearchDepth (heap sequence numbers are 64-bit; see
  /// above) — search_initial_set throws std::invalid_argument otherwise.
  std::size_t max_depth = 4;
  /// Also require per-cell safety certification (safety already holds for
  /// all of X0 when Algorithm 1 succeeded, so this is usually redundant).
  bool check_safety = true;
  /// Worker threads of the work-stealing refinement frontier. 0 = auto
  /// (DWV_THREADS env var, else hardware concurrency); 1 = serial.
  /// Terminal decisions are merged in heap-sequence order, so the result
  /// is identical at any thread count.
  std::size_t threads = 0;
  /// Reuse each parent cell's validated symbolic flowpipe prefix when
  /// verifying its children: a child's pipe starts by restricting the
  /// parent's Taylor models to the child sub-domain (one polynomial
  /// composition per step) instead of re-integrating from t = 0, up to the
  /// parent's first state re-initialization (DESIGN.md §8). Takes effect
  /// when the verifier is a TmVerifier or a CachingVerifier over one
  /// (otherwise ignored). Sound, but a replayed prefix carries the
  /// parent's remainders (validated over the larger domain), so pipes are
  /// generally a little looser than with reuse off — certification
  /// verdicts can only flip toward "refine further", never toward an
  /// unsound "certified". Results remain identical across thread counts
  /// for a fixed setting of this flag. Works with the TmVerifier's
  /// symbolic remainder queue: queue-on prefixes are recorded with their
  /// queued remainders materialized into the models (DESIGN.md §12), so a
  /// child restriction stands alone without the parent's queue.
  bool reuse_parent_prefix = false;
  /// Lane-batch width for grouped verifier calls (reach::BatchVerifier):
  /// 0 = auto (the SIMD lane width), 1 = verify cells one at a time,
  /// otherwise groups of this size. Results are bit-identical at any
  /// setting.
  std::size_t batch = 0;
  /// Inert: selects nothing and is read by nothing. The search has one
  /// engine, the work-stealing frontier (DESIGN.md section 11); the
  /// member stays only so that existing code assigning it still builds.
  bool work_steal = true;
};

struct InitialSetResult {
  /// Disjoint certified cells; their union is X_I.
  std::vector<geom::Box> certified;
  /// Cells that could not be certified at max depth.
  std::vector<geom::Box> rejected;
  /// |X_I| / |X0|.
  double coverage = 0.0;
  std::size_t verifier_calls = 0;
  /// X_I == X0 (goal-reaching certified for every initial state).
  bool full() const { return coverage >= 1.0 - 1e-12; }
};

/// Runs the X_I search: the sharded engine of core/search_shard.hpp with
/// one shard, no checkpoint and no progress callback (defined there).
InitialSetResult search_initial_set(const reach::Verifier& verifier,
                                    const ode::ReachAvoidSpec& spec,
                                    const nn::Controller& ctrl,
                                    const InitialSetOptions& opt = {});

/// Binary serialization of a search result (DESIGN.md §15 format rules:
/// exact IEEE-754 bit patterns, so put/get round-trips byte-identically).
/// get() validates counts/boxes and returns false on malformed input.
void put(reach::ser::Writer& w, const InitialSetResult& v);
bool get(reach::ser::Reader& r, InitialSetResult& out);

}  // namespace dwv::core
