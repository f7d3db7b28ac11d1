// Exact discrete optimal transport (earth mover's distance) via successive
// shortest augmenting paths with Dijkstra + Johnson potentials on the
// complete bipartite transportation graph. Each round's Dijkstra is dense:
// it settles the unsettled node of least (distance, id) by a linear scan
// over the V = n + m nodes, so a solve costs O(rounds * V^2) (V = 50 at the
// metric's 5x5 grids) and rounds <= 8V + 64. Exact up to floating-point
// tolerance; suitable for the few-hundred-point supports the metric uses.
#pragma once

#include <vector>

#include "transport/measure.hpp"
#include "transport/workspace.hpp"

namespace dwv::transport {

struct EmdResult {
  double cost = 0.0;  ///< W1 distance (total transport cost)
  /// Transport plan (flow from a_i to b_j); row-major a.size() x b.size().
  std::vector<std::vector<double>> plan;
};

/// Exact W1 between two discrete measures (weights must each sum to 1).
EmdResult emd_exact(const DiscreteMeasure& a, const DiscreteMeasure& b);

/// Cost-only convenience wrapper.
double w1_exact(const DiscreteMeasure& a, const DiscreteMeasure& b);

/// Workspace variants: identical arithmetic in the same order (the result
/// is bit-identical), but the cost matrix and solver state live in the
/// caller-owned workspace — no per-call allocation on the metric hot path.
EmdResult emd_exact(const DiscreteMeasure& a, const DiscreteMeasure& b,
                    TransportWorkspace& ws);
double w1_exact(const DiscreteMeasure& a, const DiscreteMeasure& b,
                TransportWorkspace& ws);

}  // namespace dwv::transport
