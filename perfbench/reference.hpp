// Sequential references the driver checks every result against. They
// run on one host-local CSR copy of the graph, outside the timed region.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

using pgb::Index;

struct SeqBfs {
  std::vector<Index> parent;
  std::vector<Index> level_sizes;
};

/// Level-synchronous BFS along edge direction r -> c. A vertex's parent
/// is the smallest frontier vertex with an edge into it — the
/// (min, select1st) semiring the library's BFS multiplies with. With
/// `max_depth` >= 0 the traversal stops after that many levels.
inline SeqBfs seq_bfs(const pgb::Csr<double>& g, Index source,
                      Index max_depth = -1) {
  const Index n = g.nrows();
  SeqBfs r;
  r.parent.assign(static_cast<std::size_t>(n), Index{-1});
  r.parent[static_cast<std::size_t>(source)] = source;
  r.level_sizes.push_back(1);
  std::vector<Index> frontier{source}, next;
  const auto rowptr = g.rowptr();
  const auto col = g.colids();
  for (Index level = 1; max_depth < 0 || level <= max_depth; ++level) {
    next.clear();
    for (Index u : frontier) {  // ascending, so the first claim is the min
      for (Index k = rowptr[static_cast<std::size_t>(u)];
           k < rowptr[static_cast<std::size_t>(u) + 1]; ++k) {
        const Index c = col[static_cast<std::size_t>(k)];
        if (r.parent[static_cast<std::size_t>(c)] == -1) {
          r.parent[static_cast<std::size_t>(c)] = u;
          next.push_back(c);
        }
      }
    }
    if (next.empty()) break;
    std::sort(next.begin(), next.end());
    r.level_sizes.push_back(static_cast<Index>(next.size()));
    frontier.swap(next);
  }
  return r;
}

/// Dijkstra over the matrix values as edge weights; unreachable
/// vertices keep max double, as the library's SsspResult does.
inline std::vector<double> seq_dijkstra(const pgb::Csr<double>& g,
                                        Index source) {
  const Index n = g.nrows();
  std::vector<double> dist(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::max());
  using Item = std::pair<double, Index>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[static_cast<std::size_t>(source)] = 0.0;
  pq.push({0.0, source});
  const auto rowptr = g.rowptr();
  const auto col = g.colids();
  const auto val = g.values();
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (Index k = rowptr[static_cast<std::size_t>(u)];
         k < rowptr[static_cast<std::size_t>(u) + 1]; ++k) {
      const Index c = col[static_cast<std::size_t>(k)];
      const double nd = d + val[static_cast<std::size_t>(k)];
      if (nd < dist[static_cast<std::size_t>(c)]) {
        dist[static_cast<std::size_t>(c)] = nd;
        pq.push({nd, c});
      }
    }
  }
  return dist;
}

/// Vertices within `depth` hops of `source`, ascending.
inline std::vector<Index> seq_ego(const pgb::Csr<double>& g, Index source,
                                  Index depth) {
  const SeqBfs b = seq_bfs(g, source, depth);
  std::vector<Index> out;
  for (Index v = 0; v < g.nrows(); ++v) {
    if (b.parent[static_cast<std::size_t>(v)] != -1) out.push_back(v);
  }
  return out;
}

/// Pagerank on the subgraph induced by `verts` (ascending), with the
/// library's iteration: push along edges, dangling mass spread
/// uniformly, stop when the L1 change drops below `tol` or after
/// `max_iters` iterations.
inline std::vector<double> seq_pagerank(const pgb::Csr<double>& g,
                                        const std::vector<Index>& verts,
                                        double damping, double tol,
                                        int max_iters) {
  const Index m = static_cast<Index>(verts.size());
  const Index n = std::max<Index>(m, 1);
  std::vector<Index> pos(static_cast<std::size_t>(g.nrows()), Index{-1});
  for (Index i = 0; i < m; ++i) {
    pos[static_cast<std::size_t>(verts[static_cast<std::size_t>(i)])] = i;
  }
  std::vector<std::vector<std::pair<Index, double>>> rows(
      static_cast<std::size_t>(n));
  const auto rowptr = g.rowptr();
  const auto col = g.colids();
  const auto val = g.values();
  for (Index i = 0; i < m; ++i) {
    const Index u = verts[static_cast<std::size_t>(i)];
    for (Index k = rowptr[static_cast<std::size_t>(u)];
         k < rowptr[static_cast<std::size_t>(u) + 1]; ++k) {
      const Index pc = pos[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
      if (pc >= 0) rows[static_cast<std::size_t>(i)].push_back(
          {pc, val[static_cast<std::size_t>(k)]});
    }
  }
  std::vector<double> deg(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    for (const auto& e : rows[static_cast<std::size_t>(i)]) {
      deg[static_cast<std::size_t>(i)] += e.second;
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(static_cast<std::size_t>(n), inv_n);
  std::vector<double> pulled(static_cast<std::size_t>(n));
  for (int it = 1; it <= max_iters; ++it) {
    double dangling = 0.0;
    std::fill(pulled.begin(), pulled.end(), 0.0);
    for (Index i = 0; i < n; ++i) {
      const double ri = rank[static_cast<std::size_t>(i)];
      if (deg[static_cast<std::size_t>(i)] > 0.0) {
        const double s = ri / deg[static_cast<std::size_t>(i)];
        for (const auto& e : rows[static_cast<std::size_t>(i)]) {
          pulled[static_cast<std::size_t>(e.first)] += s * e.second;
        }
      } else {
        dangling += ri;
      }
    }
    const double base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
    double delta = 0.0;
    for (Index i = 0; i < n; ++i) {
      const double next = base + damping * pulled[static_cast<std::size_t>(i)];
      delta += std::abs(next - rank[static_cast<std::size_t>(i)]);
      rank[static_cast<std::size_t>(i)] = next;
    }
    if (delta < tol) break;
  }
  rank.resize(static_cast<std::size_t>(m));
  return rank;
}

}  // namespace perfbench
