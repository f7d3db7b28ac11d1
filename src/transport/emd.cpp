#include "transport/emd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dwv::transport {

namespace {
constexpr double kEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Successive-shortest-path core over the flat workspace buffers: fills
// ws.flow (n*m row-major) and returns the transport cost.
//
// Each round runs Dijkstra with a dense frontier: every step settles the
// unsettled node of least (dist, id), found by a linear scan over the
// V = n+m nodes, so a round costs O(V^2) on the complete bipartite graph.
// That is the order a binary heap with lazy deletion pops in (every
// relaxation strictly lowers dist; std::pair breaks ties by id), so the
// cost and plan keep the heap solver's bits (DESIGN.md §6; the EmdGolden
// entries of tests/golden_search.txt pin them).
double emd_core(const DiscreteMeasure& a, const DiscreteMeasure& b,
                TransportWorkspace& ws) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  assert(n > 0 && m > 0);
  cost_matrix_into(a, b, ws.cost);
  const double* c = ws.cost.data();

  ws.supply.assign(a.weights.begin(), a.weights.end());
  ws.demand.assign(b.weights.begin(), b.weights.end());
  double* supply = ws.supply.data();
  double* demand = ws.demand.data();
  ws.flow.assign(n * m, 0.0);
  double* flow = ws.flow.data();

  // Node ids: sources 0..n-1, sinks n..n+m-1.
  const std::size_t nodes = n + m;
  ws.pot.assign(nodes, 0.0);
  double* pot = ws.pot.data();

  double remaining = 0.0;
  for (std::size_t i = 0; i < n; ++i) remaining += supply[i];

  const std::size_t max_rounds = 8 * nodes + 64;
  std::size_t rounds = 0;
  while (remaining > kEps) {
    if (++rounds > max_rounds)
      throw std::runtime_error("emd_exact: did not converge");

    // Dijkstra from all sources with remaining supply.
    ws.dist.assign(nodes, kInf);
    ws.prev.assign(nodes, -1);  // predecessor node
    double* dist = ws.dist.data();
    int* prev = ws.prev.data();
    for (std::size_t i = 0; i < n; ++i) {
      if (supply[i] > kEps) dist[i] = 0.0;
    }
    ws.done.assign(nodes, 0);
    char* done = ws.done.data();
    // Least (dist, id) among unsettled reachable nodes, scanned in id
    // order: strict < keeps the lowest id on ties. The first pick is a
    // plain scan; afterwards each settle's relaxation pass over the other
    // side doubles as the scan for the next pick.
    std::size_t v = nodes;
    double best = kInf;
    const auto consider = [&](std::size_t u) {
      if (dist[u] < best) {
        best = dist[u];
        v = u;
      }
    };
    for (std::size_t u = 0; u < nodes; ++u) consider(u);
    while (v != nodes) {
      const std::size_t s = v;
      const double d = best;
      done[s] = 1;
      v = nodes;
      best = kInf;
      if (s < n) {
        // Source -> every sink (forward edges, infinite capacity).
        for (std::size_t i = 0; i < n; ++i)
          if (!done[i]) consider(i);
        for (std::size_t j = 0; j < m; ++j) {
          const std::size_t w = n + j;
          if (done[w]) continue;
          const double rc = c[s * m + j] + pot[s] - pot[w];
          if (d + rc < dist[w] - kEps) {
            dist[w] = d + rc;
            prev[w] = static_cast<int>(s);
          }
          consider(w);
        }
      } else {
        // Sink -> sources with positive flow (residual edges).
        const std::size_t j = s - n;
        for (std::size_t i = 0; i < n; ++i) {
          if (done[i]) continue;
          if (flow[i * m + j] > kEps) {
            const double rc = -c[i * m + j] + pot[s] - pot[i];
            if (d + rc < dist[i] - kEps) {
              dist[i] = d + rc;
              prev[i] = static_cast<int>(s);
            }
          }
          consider(i);
        }
        for (std::size_t w = n; w < nodes; ++w)
          if (!done[w]) consider(w);
      }
    }

    // Cheapest reachable sink with remaining demand.
    std::size_t t = nodes;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t w = n + j;
      if (demand[j] > kEps && dist[w] < kInf &&
          (t == nodes || dist[w] < dist[t])) {
        t = w;
      }
    }
    if (t == nodes)
      throw std::runtime_error("emd_exact: no augmenting path");

    // Bottleneck along the path.
    double push = demand[t - n];
    {
      std::size_t v = t;
      while (prev[v] != -1) {
        const std::size_t u = static_cast<std::size_t>(prev[v]);
        if (u >= n) {
          // Residual edge sink u -> source v carries flow[v][u-n].
          push = std::min(push, flow[v * m + (u - n)]);
        }
        v = u;
      }
      push = std::min(push, supply[v]);
    }
    assert(push > 0.0);

    // Apply the augmentation.
    {
      std::size_t v = t;
      while (prev[v] != -1) {
        const std::size_t u = static_cast<std::size_t>(prev[v]);
        if (u < n) {
          flow[u * m + (v - n)] += push;  // forward source->sink
        } else {
          flow[v * m + (u - n)] -= push;  // residual sink->source
        }
        v = u;
      }
      supply[v] -= push;
    }
    demand[t - n] -= push;
    remaining -= push;

    // Johnson potential update.
    const double dt = ws.dist[t];
    for (std::size_t v = 0; v < nodes; ++v) {
      if (ws.dist[v] < kInf) pot[v] += std::min(ws.dist[v], dt);
      else pot[v] += dt;
    }
  }

  double cost = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      cost += flow[i * m + j] * c[i * m + j];
  return cost;
}

}  // namespace

EmdResult emd_exact(const DiscreteMeasure& a, const DiscreteMeasure& b,
                    TransportWorkspace& ws) {
  EmdResult r;
  r.cost = emd_core(a, b, ws);
  const std::size_t m = b.size();
  r.plan.assign(a.size(), std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < m; ++j) r.plan[i][j] = ws.flow[i * m + j];
  return r;
}

EmdResult emd_exact(const DiscreteMeasure& a, const DiscreteMeasure& b) {
  TransportWorkspace ws;
  return emd_exact(a, b, ws);
}

double w1_exact(const DiscreteMeasure& a, const DiscreteMeasure& b,
                TransportWorkspace& ws) {
  return emd_core(a, b, ws);
}

double w1_exact(const DiscreteMeasure& a, const DiscreteMeasure& b) {
  TransportWorkspace ws;
  return emd_core(a, b, ws);
}

}  // namespace dwv::transport
