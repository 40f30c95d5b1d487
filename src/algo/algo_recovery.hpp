// Recovery wrappers for the round-structured algorithms: BFS, SSSP, and
// pagerank expressed as RecoverableLoops over their *_init/*_step state
// machines (bfs.hpp, sssp.hpp, pagerank.hpp).
//
// Each algorithm has one loop *builder* (the serialization contract:
// which blocks make up its state). BFS and SSSP loops step a vector of
// lanes — one per source, k = 1 for a solo query — so the same builder
// serves the solo wrappers and the service executor's fused batches. The
// builders are shared by two drivers:
//
//   *_with_recovery  checkpoint rollback to a stable store
//                    (fault/recovery.hpp) — restores everyone, replays
//                    up to checkpoint_every rounds;
//   *_with_rebuild   localized rebuild from in-memory replicas
//                    (fault/rebuild.hpp) — rebuilds only the dead
//                    locale's blocks onto a spare or, degraded, onto
//                    its buddy host, replaying at most one round.
//
// A wrapper run with a null plan (or a plan whose kills never fire) is
// the plain algorithm plus periodic checkpoint/replication charges; when
// a locale is killed mid-run, the driver restores and re-executes the
// lost rounds over bit-identical inputs, so the recovered result is
// bit-for-bit the fault-free result.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "fault/rebuild.hpp"
#include "fault/recovery.hpp"

namespace pgb {

/// Serialized size of the matrix's distributed blocks: what a
/// replacement locale must re-ship from the stable store on restore
/// (the matrix is static state, written once, never checkpointed again).
template <typename T>
std::int64_t matrix_static_bytes(const DistCsr<T>& a) {
  return a.nnz() * static_cast<std::int64_t>(sizeof(Index) + sizeof(T)) +
         (a.nrows() + 1) * static_cast<std::int64_t>(sizeof(Index));
}

// -- loop builders (the per-algorithm snapshot contracts) ----------------
// The matrix is captured by pointer: it must outlive the returned loop
// (every caller runs the loop inside the scope that owns the matrix).
// BFS and SSSP snapshots hold only per-lane blocks under lane-indexed
// keys ("bfs.<q>.visited", ...); the loader knows the width from the
// sources, so a rebuild mid-batch restores every lane and the fused wave
// replays bit-identical to the fault-free run.

template <typename T>
RecoverableLoop<std::vector<BfsState<T>>> bfs_loop(
    const DistCsr<T>& a, const std::vector<Index>& sources,
    const SpmspvOptions& opt) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  const std::size_t width = sources.size();
  RecoverableLoop<std::vector<BfsState<T>>> loop;
  loop.init = [ap, sources] { return bfs_init(*ap, sources); };
  loop.step = [ap, opt](std::vector<BfsState<T>>& st) {
    bfs_step(*ap, std::span(st), opt);
  };
  loop.done = [](const std::vector<BfsState<T>>& st) {
    return std::all_of(st.begin(), st.end(),
                       [](const BfsState<T>& ln) { return ln.done; });
  };
  loop.save = [](const std::vector<BfsState<T>>& st, Checkpoint& c) {
    for (std::size_t q = 0; q < st.size(); ++q) {
      const auto& ln = st[q];
      const std::string p = "bfs." + std::to_string(q) + ".";
      c.put_dense(p + "visited", ln.visited);
      c.put_sparse(p + "frontier", ln.frontier);
      c.put_host(p + "parent", ln.res.parent);
      c.put_host(p + "level_sizes", ln.res.level_sizes);
      c.put_scalar(p + "level", ln.level);
      c.put_scalar(p + "done", ln.done);
    }
  };
  loop.load = [&grid, n, width](const Checkpoint& c) {
    std::vector<BfsState<T>> st;
    st.reserve(width);
    for (std::size_t q = 0; q < width; ++q) {
      const std::string p = "bfs." + std::to_string(q) + ".";
      BfsState<T> ln{DistDenseVec<std::uint8_t>(grid, n, 0),
                     DistSparseVec<T>(grid, n), {}, 0, false};
      c.get_dense(p + "visited", ln.visited);
      c.get_sparse(p + "frontier", ln.frontier);
      ln.res.parent = c.get_host<Index>(p + "parent");
      ln.res.level_sizes = c.get_host<Index>(p + "level_sizes");
      ln.level = c.get_scalar<Index>(p + "level");
      ln.done = c.get_scalar<bool>(p + "done");
      st.push_back(std::move(ln));
    }
    return st;
  };
  return loop;
}

template <typename T>
RecoverableLoop<std::vector<SsspState>> sssp_loop(
    const DistCsr<T>& a, const std::vector<Index>& sources,
    const SpmspvOptions& opt) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  const std::size_t width = sources.size();
  RecoverableLoop<std::vector<SsspState>> loop;
  loop.init = [ap, sources] { return sssp_init(*ap, sources); };
  loop.step = [ap, opt](std::vector<SsspState>& st) {
    sssp_step(*ap, std::span(st), opt);
  };
  loop.done = [](const std::vector<SsspState>& st) {
    return std::all_of(st.begin(), st.end(),
                       [](const SsspState& ln) { return ln.done; });
  };
  loop.save = [](const std::vector<SsspState>& st, Checkpoint& c) {
    for (std::size_t q = 0; q < st.size(); ++q) {
      const auto& ln = st[q];
      const std::string p = "sssp." + std::to_string(q) + ".";
      c.put_dense(p + "dist", ln.dist);
      c.put_sparse(p + "frontier", ln.frontier);
      c.put_scalar(p + "rounds", ln.res.rounds);
      c.put_scalar(p + "done", ln.done);
    }
  };
  loop.load = [&grid, n, width](const Checkpoint& c) {
    std::vector<SsspState> st;
    st.reserve(width);
    for (std::size_t q = 0; q < width; ++q) {
      const std::string p = "sssp." + std::to_string(q) + ".";
      SsspState ln{DistDenseVec<double>(grid, n, SsspResult::kUnreachable),
                   DistSparseVec<double>(grid, n), {}, false};
      c.get_dense(p + "dist", ln.dist);
      c.get_sparse(p + "frontier", ln.frontier);
      ln.res.rounds = c.get_scalar<int>(p + "rounds");
      ln.done = c.get_scalar<bool>(p + "done");
      st.push_back(std::move(ln));
    }
    return st;
  };
  return loop;
}

template <typename T>
RecoverableLoop<PagerankState<T>> pagerank_loop(const DistCsr<T>& a,
                                                double damping, double tol,
                                                int max_iters) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  RecoverableLoop<PagerankState<T>> loop;
  loop.init = [ap] { return pagerank_init(*ap); };
  loop.step = [ap, damping, tol, max_iters](PagerankState<T>& st) {
    pagerank_step(*ap, st, damping, tol, max_iters);
  };
  loop.done = [](const PagerankState<T>& st) { return st.done; };
  loop.save = [](const PagerankState<T>& st, Checkpoint& c) {
    c.put_dense("pagerank.deg", st.deg);
    c.put_dense("pagerank.rank", st.rank);
    c.put_scalar("pagerank.iterations", st.res.iterations);
    c.put_scalar("pagerank.residual", st.res.residual);
    c.put_scalar("pagerank.done", st.done);
  };
  loop.load = [&grid, n](const Checkpoint& c) {
    PagerankState<T> st{DistDenseVec<T>(grid, n, T{}),
                        DistDenseVec<double>(grid, n, 0.0), {}, false};
    c.get_dense("pagerank.deg", st.deg);
    c.get_dense("pagerank.rank", st.rank);
    st.res.iterations = c.get_scalar<int>("pagerank.iterations");
    st.res.residual = c.get_scalar<double>("pagerank.residual");
    st.done = c.get_scalar<bool>("pagerank.done");
    return st;
  };
  return loop;
}

// -- checkpoint-rollback drivers -----------------------------------------

template <typename T>
BfsResult bfs_with_recovery(const DistCsr<T>& a, Index source,
                            const SpmspvOptions& opt, FaultPlan* plan,
                            RecoveryOptions ropt = {},
                            RecoveryReport* report = nullptr) {
  if (ropt.static_bytes == 0) ropt.static_bytes = matrix_static_bytes(a);
  auto st = run_with_recovery(a.grid(), plan, bfs_loop(a, {source}, opt),
                              ropt, report);
  return std::move(st.front().res);
}

template <typename T>
SsspResult sssp_with_recovery(const DistCsr<T>& a, Index source,
                              const SpmspvOptions& opt, FaultPlan* plan,
                              RecoveryOptions ropt = {},
                              RecoveryReport* report = nullptr) {
  if (ropt.static_bytes == 0) ropt.static_bytes = matrix_static_bytes(a);
  auto st = run_with_recovery(a.grid(), plan, sssp_loop(a, {source}, opt),
                              ropt, report);
  return sssp_finalize(st.front());
}

template <typename T>
PagerankResult pagerank_with_recovery(const DistCsr<T>& a, FaultPlan* plan,
                                      double damping = 0.85, double tol = 1e-8,
                                      int max_iters = 100,
                                      RecoveryOptions ropt = {},
                                      RecoveryReport* report = nullptr) {
  if (ropt.static_bytes == 0) ropt.static_bytes = matrix_static_bytes(a);
  PagerankState<T> st = run_with_recovery(
      a.grid(), plan, pagerank_loop<T>(a, damping, tol, max_iters), ropt,
      report);
  return pagerank_finalize(st);
}

// -- localized-rebuild drivers -------------------------------------------
// One call serves a solo query ({source}) and a fused batch alike: the
// whole lane vector is replicated/rebuilt as one loop, and the recovered
// per-lane results are bit-for-bit the fault-free ones (which are
// themselves byte-identical to solo runs).

template <typename T>
std::vector<BfsResult> bfs_with_rebuild(const DistCsr<T>& a,
                                        const std::vector<Index>& sources,
                                        const SpmspvOptions& opt,
                                        FaultPlan* plan,
                                        RebuildOptions ropt = {},
                                        RecoveryReport* report = nullptr) {
  if (ropt.replica.static_bytes == 0) {
    ropt.replica.static_bytes = matrix_static_bytes(a);
  }
  auto st = run_with_rebuild(a.grid(), plan, bfs_loop(a, sources, opt), ropt,
                             report);
  return bfs_results(st);
}

template <typename T>
std::vector<SsspResult> sssp_with_rebuild(const DistCsr<T>& a,
                                          const std::vector<Index>& sources,
                                          const SpmspvOptions& opt,
                                          FaultPlan* plan,
                                          RebuildOptions ropt = {},
                                          RecoveryReport* report = nullptr) {
  if (ropt.replica.static_bytes == 0) {
    ropt.replica.static_bytes = matrix_static_bytes(a);
  }
  auto st = run_with_rebuild(a.grid(), plan, sssp_loop(a, sources, opt), ropt,
                             report);
  return sssp_results(st);
}

template <typename T>
PagerankResult pagerank_with_rebuild(const DistCsr<T>& a, FaultPlan* plan,
                                     double damping = 0.85, double tol = 1e-8,
                                     int max_iters = 100,
                                     RebuildOptions ropt = {},
                                     RecoveryReport* report = nullptr) {
  if (ropt.replica.static_bytes == 0) {
    ropt.replica.static_bytes = matrix_static_bytes(a);
  }
  PagerankState<T> st = run_with_rebuild(
      a.grid(), plan, pagerank_loop<T>(a, damping, tol, max_iters), ropt,
      report);
  return pagerank_finalize(st);
}

}  // namespace pgb
