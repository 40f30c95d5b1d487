// Breadth-first search in the language of linear algebra — "often the
// 'hello world' example of GraphBLAS" (paper Section III). The paper's
// four operations were chosen precisely so they compose into this:
//
//   per level:
//     frontier values <- their own vertex ids        (Apply-style pass)
//     y  <- frontier . A  on the (min, select1st) semiring   (SpMSpV)
//     y  <- y filtered by NOT visited                (mask / eWiseMult)
//     parents[y's indices] <- y's values             (Assign-style pass)
//     visited |= y's pattern; frontier <- y
//
// The stepper runs k traversals in lockstep (the service front end's
// fused batch): every active lane's frontier exchange rides one masked
// SpMSpV wave of width k (core/spmspv.hpp), so the comm schedule is
// priced and paid once per level instead of once per lane. A solo BFS is
// the width-1 wave.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "core/mask.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "obs/span.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

struct BfsResult {
  /// parent[v] = BFS-tree parent of v (source's parent is itself);
  /// -1 for unreached vertices.
  std::vector<Index> parent;
  /// Number of vertices discovered at each level (level 0 = source).
  std::vector<Index> level_sizes;
};

/// The loop state of one BFS traversal (one lane), exposed so the
/// recovery driver (fault/recovery.hpp via algo/algo_recovery.hpp) can
/// snapshot it between levels and rebuild it after a locale failure.
/// `bfs()` below is exactly bfs_init + bfs_step-until-done.
template <typename T>
struct BfsState {
  DistDenseVec<std::uint8_t> visited;
  DistSparseVec<T> frontier;
  BfsResult res;
  Index level = 0;
  bool done = false;
};

template <typename T>
BfsState<T> bfs_init(const DistCsr<T>& a, Index source) {
  PGB_REQUIRE_SHAPE(a.nrows() == a.ncols(), "bfs: matrix must be square");
  PGB_REQUIRE(source >= 0 && source < a.nrows(), "bfs: bad source vertex");
  auto& grid = a.grid();
  const Index n = a.nrows();

  BfsState<T> st{DistDenseVec<std::uint8_t>(grid, n, 0),
                 DistSparseVec<T>::from_sorted(grid, n, {source},
                                               {static_cast<T>(source)}),
                 {}, 0, false};
  st.res.parent.assign(static_cast<std::size_t>(n), Index{-1});
  st.res.parent[static_cast<std::size_t>(source)] = source;
  st.visited.at(source) = 1;
  st.res.level_sizes.push_back(1);

  grid.metrics().counter("algo.calls", {{"algo", "bfs"}}).inc();
  return st;
}

/// One lane per source: the state of k traversals stepped together.
template <typename T>
std::vector<BfsState<T>> bfs_init(const DistCsr<T>& a,
                                  const std::vector<Index>& sources) {
  PGB_REQUIRE(!sources.empty(), "bfs: need at least one source");
  std::vector<BfsState<T>> lanes;
  lanes.reserve(sources.size());
  for (Index s : sources) lanes.push_back(bfs_init(a, s));
  return lanes;
}

/// Advances every active lane one level through one masked SpMSpV wave of
/// width k = the number of active lanes. Each lane's data goes through
/// exactly the width-1 transformations — same frontier values, same mask,
/// same per-owner finalize — so every lane's BfsResult is byte-identical
/// to a solo bfs() from its source. A lane retires in the level that
/// finds no new vertex; returns true once every lane has retired, in the
/// step that retires the last one.
template <typename T>
bool bfs_step(const DistCsr<T>& a, std::span<BfsState<T>> lanes,
              const SpmspvOptions& opt = {}) {
  auto& grid = a.grid();
  std::vector<int> act;
  Index frontier = 0;
  for (int q = 0; q < static_cast<int>(lanes.size()); ++q) {
    auto& ln = lanes[q];
    if (ln.frontier.nnz() == 0) ln.done = true;
    if (ln.done) continue;
    act.push_back(q);
    frontier += ln.frontier.nnz();
  }
  if (act.empty()) return true;
  const Index level = lanes[act.front()].level + 1;  // lanes run in lockstep
  PGB_TRACE_SPAN(grid, "bfs.level",
                 {{"level", std::to_string(level)},
                  {"frontier", std::to_string(frontier)}});
  grid.metrics().counter("algo.iterations", {{"algo", "bfs"}}).inc();
  obs::LaneLevelSpans lane_spans(grid);
  for (int q : act) lane_spans.add(q, lanes[q].frontier.nnz());

  // Frontier values carry the discovering vertex: x[r] = r.
  grid.coforall_locales([&](LocaleCtx& ctx) {
    for (int q : act) {
      auto& lf = lanes[q].frontier.local(ctx.locale());
      for (Index p = 0; p < lf.nnz(); ++p) {
        lf.value_at(p) = static_cast<T>(lf.index_at(p));
      }
      CostVector c;
      c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(lf.nnz()));
      c.add(CostKind::kCpuOps,
            kApplyOpsPerElem * static_cast<double>(lf.nnz()));
      ctx.parallel_region(c);
    }
  });

  // Fused masked vxm: unvisited-only outputs are built directly at
  // their owners (the paper's future-work "masks in distributed
  // memory").
  std::vector<const DistSparseVec<T>*> xs;
  std::vector<const DistDenseVec<std::uint8_t>*> masks;
  for (int q : act) {
    lanes[q].level = level;
    xs.push_back(&lanes[q].frontier);
    masks.push_back(&lanes[q].visited);
  }
  std::vector<DistSparseVec<T>> fresh = spmspv_dist_multi(
      a, xs, masks, MaskMode::kComplement, min_first_semiring<T>(), opt);

  // Record parents and extend the visited set of every lane that found
  // new vertices; the others retire.
  std::vector<std::size_t> live;  // positions in act
  for (std::size_t i = 0; i < act.size(); ++i) {
    if (fresh[i].nnz() == 0) {
      lanes[act[i]].done = true;
    } else {
      live.push_back(i);
    }
  }
  if (!live.empty()) {
    grid.coforall_locales([&](LocaleCtx& ctx) {
      for (std::size_t i : live) {
        auto& parent = lanes[act[i]].res.parent;
        const auto& lf = fresh[i].local(ctx.locale());
        for (Index p = 0; p < lf.nnz(); ++p) {
          parent[static_cast<std::size_t>(lf.index_at(p))] =
              static_cast<Index>(lf.value_at(p));
        }
        CostVector c;
        c.add(CostKind::kRandAccess, static_cast<double>(lf.nnz()));
        c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(lf.nnz()));
        ctx.parallel_region(c);
      }
    });
    for (std::size_t i : live) {
      auto& ln = lanes[act[i]];
      mask_union(ln.visited, fresh[i]);
      ln.res.level_sizes.push_back(fresh[i].nnz());
      ln.frontier = std::move(fresh[i]);
    }
  }
  lane_spans.end(level);
  return std::all_of(lanes.begin(), lanes.end(),
                     [](const BfsState<T>& ln) { return ln.done; });
}

/// Advances one traversal one level (the width-1 wave); sets st.done when
/// it is finished.
template <typename T>
void bfs_step(const DistCsr<T>& a, BfsState<T>& st,
              const SpmspvOptions& opt = {}) {
  bfs_step(a, std::span<BfsState<T>>(&st, 1), opt);
}

/// Direction note: edges are matrix entries A[r, c] = edge r -> c; BFS
/// explores along edge direction (use a symmetric matrix for undirected
/// graphs).
///
/// The per-level frontier exchange is the masked SpMSpV below; its
/// gather/scatter schedule follows opt.comm, so
/// `opt.comm = CommMode::kAggregated` runs every level's frontier
/// exchange through the conveyor-style aggregators. Results are
/// identical across schedules.
template <typename T>
BfsResult bfs(const DistCsr<T>& a, Index source,
              const SpmspvOptions& opt = {}) {
  BfsState<T> st = bfs_init(a, source);
  while (!st.done) bfs_step(a, st, opt);
  return std::move(st.res);
}

/// The lanes' results, moved out.
template <typename T>
std::vector<BfsResult> bfs_results(std::vector<BfsState<T>>& lanes) {
  std::vector<BfsResult> out;
  out.reserve(lanes.size());
  for (auto& ln : lanes) out.push_back(std::move(ln.res));
  return out;
}

/// Runs k BFS traversals through the fused per-level wave; out[i] is
/// byte-identical to bfs(a, sources[i], opt).
template <typename T>
std::vector<BfsResult> bfs_batch(const DistCsr<T>& a,
                                 const std::vector<Index>& sources,
                                 const SpmspvOptions& opt = {}) {
  std::vector<BfsState<T>> lanes = bfs_init(a, sources);
  while (!bfs_step(a, std::span(lanes), opt)) {
  }
  return bfs_results(lanes);
}

}  // namespace pgb
