// Single-source shortest paths via Bellman-Ford iterations on the
// (min, +) semiring — the classic non-Boolean semiring showcase of
// GraphBLAS: each round relaxes the edges leaving the vertices whose
// distance improved, exactly a masked SpMSpV on min-plus.
//
// The stepper relaxes k independent queries in lockstep (the service
// front end's fused batch): every active lane's round rides one min-plus
// SpMSpV wave of width k (core/spmspv.hpp). A solo SSSP is the width-1
// wave.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "obs/span.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

struct SsspResult {
  /// dist[v] = shortest distance from the source; "unreachable" marker
  /// (max double) if no path exists.
  std::vector<double> dist;
  int rounds = 0;

  static constexpr double kUnreachable =
      std::numeric_limits<double>::max();
};

/// The loop state of one SSSP run (one lane), exposed for the recovery
/// driver (fault/recovery.hpp via algo/algo_recovery.hpp): snapshot
/// between rounds, rebuild after a locale failure. `sssp()` below is
/// exactly sssp_init + sssp_step-until-done + sssp_finalize.
struct SsspState {
  DistDenseVec<double> dist;
  DistSparseVec<double> frontier;  ///< vertices improved last round
  SsspResult res;                  ///< rounds only; dist filled at finalize
  bool done = false;
};

template <typename T>
SsspState sssp_init(const DistCsr<T>& a, Index source) {
  PGB_REQUIRE_SHAPE(a.nrows() == a.ncols(), "sssp: matrix must be square");
  PGB_REQUIRE(source >= 0 && source < a.nrows(), "sssp: bad source");
  auto& grid = a.grid();
  const Index n = a.nrows();

  SsspState st{DistDenseVec<double>(grid, n, SsspResult::kUnreachable),
               DistSparseVec<double>::from_sorted(grid, n, {source}, {0.0}),
               {}, false};
  st.dist.at(source) = 0.0;
  grid.metrics().counter("algo.calls", {{"algo", "sssp"}}).inc();
  return st;
}

/// One lane per source: the state of k queries relaxed together.
template <typename T>
std::vector<SsspState> sssp_init(const DistCsr<T>& a,
                                 const std::vector<Index>& sources) {
  PGB_REQUIRE(!sources.empty(), "sssp: need at least one source");
  std::vector<SsspState> lanes;
  lanes.reserve(sources.size());
  for (Index s : sources) lanes.push_back(sssp_init(a, s));
  return lanes;
}

/// One Bellman-Ford relaxation round for every active lane, through one
/// min-plus SpMSpV wave of width k = the number of active lanes. Each
/// lane's improvement filter and next-frontier build run over that lane's
/// data alone, so lane distances are byte-identical to solo sssp() runs.
/// A lane retires at the end of the round that reaches its fixed point
/// (an empty next frontier) or the n-round cap; returns true once every
/// lane has retired, in the step that retires the last one.
template <typename T>
bool sssp_step(const DistCsr<T>& a, std::span<SsspState> lanes,
               const SpmspvOptions& opt = {}) {
  auto& grid = a.grid();
  const Index n = a.nrows();
  std::vector<int> act;
  Index frontier = 0;
  for (int q = 0; q < static_cast<int>(lanes.size()); ++q) {
    auto& ln = lanes[q];
    if (ln.frontier.nnz() == 0 || ln.res.rounds >= n) ln.done = true;
    if (ln.done) continue;
    act.push_back(q);
    frontier += ln.frontier.nnz();
  }
  if (act.empty()) return true;
  const int round = lanes[act.front()].res.rounds + 1;  // lanes in lockstep
  PGB_TRACE_SPAN(grid, "sssp.round",
                 {{"round", std::to_string(round)},
                  {"frontier", std::to_string(frontier)}});
  grid.metrics().counter("algo.iterations", {{"algo", "sssp"}}).inc();
  obs::LaneLevelSpans lane_spans(grid);
  // candidate[c] = min over frontier rows r of (dist-candidate of r +
  // weight(r, c)); matrix values are cast to double by the semiring.
  std::vector<const DistSparseVec<double>*> xs;
  for (int q : act) {
    lane_spans.add(q, lanes[q].frontier.nnz());
    lanes[q].res.rounds = round;
    xs.push_back(&lanes[q].frontier);
  }
  std::vector<DistSparseVec<double>> cand = spmspv_dist_multi(
      a, xs, {}, MaskMode::kNone, min_plus_semiring<double>(), opt);

  // Per lane: keep the candidates that improve, update dist, and build
  // the next frontier.
  const int nloc = grid.num_locales();
  for (std::size_t i = 0; i < act.size(); ++i) {
    auto& ln = lanes[act[i]];
    std::vector<std::vector<Index>> imp_idx(static_cast<std::size_t>(nloc));
    std::vector<std::vector<double>> imp_val(static_cast<std::size_t>(nloc));
    grid.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      const auto& lc = cand[i].local(l);
      auto& ld = ln.dist.local(l);
      for (Index p = 0; p < lc.nnz(); ++p) {
        const Index v = lc.index_at(p);
        if (lc.value_at(p) < ld[v]) {
          ld[v] = lc.value_at(p);
          imp_idx[static_cast<std::size_t>(l)].push_back(v);
          imp_val[static_cast<std::size_t>(l)].push_back(lc.value_at(p));
        }
      }
      CostVector c;
      c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(lc.nnz()));
      c.add(CostKind::kRandAccess, static_cast<double>(lc.nnz()));
      c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(lc.nnz()));
      ctx.parallel_region(c);
    });
    DistSparseVec<double> next(grid, n);
    for (int l = 0; l < nloc; ++l) {
      next.local(l) = SparseVec<double>::from_sorted(
          next.dist().local_size(l),
          std::move(imp_idx[static_cast<std::size_t>(l)]),
          std::move(imp_val[static_cast<std::size_t>(l)]));
    }
    ln.frontier = std::move(next);
    if (ln.frontier.nnz() == 0 || ln.res.rounds >= n) ln.done = true;
  }
  lane_spans.end(round);
  return std::all_of(lanes.begin(), lanes.end(),
                     [](const SsspState& ln) { return ln.done; });
}

/// One relaxation round of a single query (the width-1 wave); sets
/// st.done at the fixed point (or at the n-round cap).
template <typename T>
void sssp_step(const DistCsr<T>& a, SsspState& st,
               const SpmspvOptions& opt = {}) {
  sssp_step(a, std::span<SsspState>(&st, 1), opt);
}

/// Gathers the distributed distances into the result (no charging; same
/// convention as the other algos' result extraction).
inline SsspResult sssp_finalize(SsspState& st) {
  const Index n = st.dist.size();
  st.res.dist.resize(static_cast<std::size_t>(n));
  for (int l = 0; l < st.dist.grid().num_locales(); ++l) {
    const auto& ld = st.dist.local(l);
    for (Index i = ld.lo(); i < ld.hi(); ++i) {
      st.res.dist[static_cast<std::size_t>(i)] = ld[i];
    }
  }
  return std::move(st.res);
}

/// Every lane's result (see sssp_finalize).
inline std::vector<SsspResult> sssp_results(std::vector<SsspState>& lanes) {
  std::vector<SsspResult> out;
  out.reserve(lanes.size());
  for (auto& ln : lanes) out.push_back(sssp_finalize(ln));
  return out;
}

/// Edge weights are the matrix values (must be non-negative for the
/// result to be meaningful in bounded rounds; negative cycles are not
/// detected — rounds are capped at n).
///
/// Each relaxation round's frontier exchange is the SpMSpV below; set
/// `opt.comm = CommMode::kAggregated` to run it through the
/// conveyor-style aggregation layer (identical distances, far fewer
/// modeled messages).
template <typename T>
SsspResult sssp(const DistCsr<T>& a, Index source,
                const SpmspvOptions& opt = {}) {
  SsspState st = sssp_init(a, source);
  while (!st.done) sssp_step(a, st, opt);
  return sssp_finalize(st);
}

/// Runs k SSSP queries through the fused per-round wave; out[i] is
/// byte-identical to sssp(a, sources[i], opt).
template <typename T>
std::vector<SsspResult> sssp_batch(const DistCsr<T>& a,
                                   const std::vector<Index>& sources,
                                   const SpmspvOptions& opt = {}) {
  std::vector<SsspState> lanes = sssp_init(a, sources);
  while (!sssp_step(a, std::span(lanes), opt)) {
  }
  return sssp_results(lanes);
}

}  // namespace pgb
