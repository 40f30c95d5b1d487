// Recovery wrappers for the round-structured algorithms: BFS, SSSP, and
// pagerank expressed as RecoverableLoops over their *_init/*_step state
// machines (bfs.hpp, sssp.hpp, pagerank.hpp).
//
// Each algorithm has one wrapper, which builds its loop — including the
// serialization contract: which blocks make up its state — and runs it
// under the recovery driver (fault/recovery.hpp). The RecoveryPolicy's
// mode picks checkpoint rollback to a stable store (restores everyone,
// replays up to checkpoint_every rounds) or localized rebuild from
// in-memory replicas onto a spare or, degraded, onto the dead locale's
// buddy host (rebuilds only its blocks, replays at most one round). BFS
// and SSSP loops step a vector of lanes — one per source, k = 1 for a
// solo query — so the same call serves solo runs and the service
// executor's fused batches.
//
// A wrapper run with a null plan (or a plan whose kills never fire) is
// the plain algorithm plus its safe-point charges; when a locale is
// killed mid-run, the driver restores and re-executes the lost rounds
// over bit-identical inputs, so the recovered result is bit-for-bit the
// fault-free result.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
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

// -- snapshot contracts ----------------------------------------------------
// Each algorithm lists its state's blocks once, as `fields(state, io)`
// calling io(key, block) per block: a save walks the list with
// Checkpoint::put, a load walks it with Checkpoint::get into a blank
// state. BFS and SSSP step a vector of lanes and snapshot lane q under
// "<algo>.<q>." keys; the loader knows the width from the sources, so a
// rebuild mid-batch restores every lane and the fused wave replays
// bit-identical to the fault-free run.

/// A RecoverableLoop whose save/load walk `fields`; a load fills a
/// `blank()` state.
template <typename State, typename Fields>
RecoverableLoop<State> snapshot_loop(std::function<State()> init,
                                     std::function<void(State&)> step,
                                     std::function<bool(const State&)> done,
                                     std::function<State()> blank,
                                     Fields fields) {
  return {std::move(init), std::move(step), std::move(done),
          [fields](const State& st, Checkpoint& c) {
            fields(st, [&](const std::string& key, const auto& v) {
              c.put(key, v);
            });
          },
          [blank, fields](const Checkpoint& c) {
            State st = blank();
            fields(st, [&](const std::string& key, auto& v) { c.get(key, v); });
            return st;
          }};
}

/// The fields of a lane vector: lane q's `lane` fields under
/// "<name>.<q>." keys.
template <typename LaneFields>
auto lane_fields(std::string name, LaneFields lane) {
  return [name, lane](auto& lanes, auto&& io) {
    for (std::size_t q = 0; q < lanes.size(); ++q) {
      const std::string p = name + "." + std::to_string(q) + ".";
      lane(lanes[q], [&](const char* key, auto& v) { io(p + key, v); });
    }
  };
}

template <typename Lane>
bool all_done(const std::vector<Lane>& lanes) {
  return std::all_of(lanes.begin(), lanes.end(),
                     [](const Lane& ln) { return ln.done; });
}

// -- recovered runs --------------------------------------------------------
// One call per algorithm serves every RecoveryPolicy mode, and a solo
// query ({source}) and a fused batch alike: the whole lane vector is
// protected as one loop, and the recovered per-lane results are
// bit-for-bit the fault-free ones (themselves byte-identical to solo
// runs).

template <typename T>
std::vector<BfsResult> bfs_with_recovery(
    const DistCsr<T>& a, const std::vector<Index>& sources,
    const SpmspvOptions& opt, FaultPlan* plan,
    const RecoveryPolicy& policy = {}, RecoveryReport* report = nullptr) {
  using Lanes = std::vector<BfsState<T>>;
  auto& g = a.grid();
  const auto loop = snapshot_loop<Lanes>(
      [&] { return bfs_init(a, sources); },
      [&](Lanes& st) { bfs_step(a, std::span(st), opt); },
      all_done<BfsState<T>>,
      [&] {
        return Lanes(sources.size(),
                     {DistDenseVec<std::uint8_t>(g, a.nrows(), 0),
                      DistSparseVec<T>(g, a.nrows()), {}, 0, false});
      },
      lane_fields("bfs", [](auto& ln, auto&& io) {
        io("visited", ln.visited);
        io("frontier", ln.frontier);
        io("parent", ln.res.parent);
        io("level_sizes", ln.res.level_sizes);
        io("level", ln.level);
        io("done", ln.done);
      }));
  auto st = run_with_recovery(g, plan, loop, policy, matrix_static_bytes(a),
                              report);
  return bfs_results(st);
}

template <typename T>
std::vector<SsspResult> sssp_with_recovery(
    const DistCsr<T>& a, const std::vector<Index>& sources,
    const SpmspvOptions& opt, FaultPlan* plan,
    const RecoveryPolicy& policy = {}, RecoveryReport* report = nullptr) {
  using Lanes = std::vector<SsspState>;
  auto& g = a.grid();
  const auto loop = snapshot_loop<Lanes>(
      [&] { return sssp_init(a, sources); },
      [&](Lanes& st) { sssp_step(a, std::span(st), opt); },
      all_done<SsspState>,
      [&] {
        return Lanes(sources.size(),
                     {DistDenseVec<double>(g, a.nrows(),
                                           SsspResult::kUnreachable),
                      DistSparseVec<double>(g, a.nrows()), {}, false});
      },
      lane_fields("sssp", [](auto& ln, auto&& io) {
        io("dist", ln.dist);
        io("frontier", ln.frontier);
        io("rounds", ln.res.rounds);
        io("done", ln.done);
      }));
  auto st = run_with_recovery(g, plan, loop, policy, matrix_static_bytes(a),
                              report);
  return sssp_results(st);
}

template <typename T>
PagerankResult pagerank_with_recovery(
    const DistCsr<T>& a, FaultPlan* plan, double damping = 0.85,
    double tol = 1e-8, int max_iters = 100, const RecoveryPolicy& policy = {},
    RecoveryReport* report = nullptr) {
  auto& g = a.grid();
  const auto loop = snapshot_loop<PagerankState<T>>(
      [&] { return pagerank_init(a); },
      [&](PagerankState<T>& st) {
        pagerank_step(a, st, damping, tol, max_iters);
      },
      [](const PagerankState<T>& st) { return st.done; },
      [&] {
        return PagerankState<T>{DistDenseVec<T>(g, a.nrows(), T{}),
                                DistDenseVec<double>(g, a.nrows(), 0.0),
                                {}, false};
      },
      [](auto& st, auto&& io) {
        io("pagerank.deg", st.deg);
        io("pagerank.rank", st.rank);
        io("pagerank.iterations", st.res.iterations);
        io("pagerank.residual", st.res.residual);
        io("pagerank.done", st.done);
      });
  PagerankState<T> st = run_with_recovery(g, plan, loop, policy,
                                          matrix_static_bytes(a), report);
  return pagerank_finalize(st);
}

}  // namespace pgb
