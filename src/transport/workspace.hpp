// Caller-owned scratch buffers for the discrete-transport solvers. The
// Wasserstein feedback metric calls the solvers on every learner iteration
// with supports of a fixed grid size; allocating the cost matrix and the
// Dijkstra state per call dominates the small-support hot path. A workspace keeps those buffers alive across
// calls (each call overwrites them, so one workspace serves any sequence
// of sequential calls; use one workspace per thread for concurrent calls).
//
// The workspace paths run exactly the arithmetic of the allocating paths
// in the same order — the reported distances are bit-identical. The EMD
// state is O(n*m) (cost matrix and plan) plus O(n+m) per-node vectors:
// the dense Dijkstra scan keeps no frontier structure.
#pragma once

#include <vector>

namespace dwv::transport {

struct TransportWorkspace {
  /// n*m row-major Euclidean cost matrix.
  std::vector<double> cost;

  // Successive-shortest-path EMD state.
  std::vector<double> flow;  ///< n*m row-major transport plan
  std::vector<double> supply;
  std::vector<double> demand;
  std::vector<double> pot;   ///< Johnson potentials, sources then sinks
  std::vector<double> dist;
  std::vector<int> prev;
  std::vector<char> done;    ///< settled flags of the dense Dijkstra scan
};

}  // namespace dwv::transport
