// The recovery driver: runs a round-structured loop to completion under
// a fault plan, surviving locale kills.
//
// Iterative algorithms in this codebase are round-structured (BFS levels,
// Bellman-Ford relaxations, pagerank iterations). The driver keeps a safe
// copy of the loop state at round boundaries; when the grid's coforall
// dispatch reports a permanently failed locale (LocaleFailed), it fails
// over, restores the safe copy and resumes. Re-executed rounds recompute
// over bit-identical inputs, so the recovered result is bit-for-bit the
// fault-free result — only modeled time and re-paid traffic differ.
//
// One RecoveryPolicy configures the driver. Its mode decides two things:
//
//   safe points  kRollback snapshots to a stable-store Checkpoint every
//                checkpoint_every rounds; a restore reloads every locale
//                and replays up to checkpoint_every rounds. kSpare and
//                kDegraded flush an in-memory ReplicaStore
//                (fault/replica.hpp) every round; a restore rebuilds only
//                the dead locale's blocks and replays at most the
//                interrupted round.
//   failover     kRollback and kSpare replace the dead host: a spare
//                adopts its physical id, so the plan marks it recovered.
//                kDegraded remaps the dead logical locale onto its buddy's
//                host (a membership-epoch bump that every comm helper,
//                distribution view and clock charge consults) and the run
//                keeps going co-hosted on the survivors.
//
// retry_failover is the driver's core: run an attempt, fail over on each
// LocaleFailed, retry. Ingest's idempotent stages call it directly.
// RecoverableLoop is the contract an algorithm exposes;
// algo/algo_recovery.hpp adapts BFS/SSSP/pagerank to it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "fault/replica.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {

enum class RebuildMode {
  kRollback,  ///< replace the host, restore everyone from the stable store
  kSpare,     ///< a spare adopts the dead host, rebuilt from replicas
  kDegraded,  ///< remap the dead logical locale onto its buddy's host
};

inline const char* to_string(RebuildMode m) {
  return m == RebuildMode::kRollback ? "rollback"
         : m == RebuildMode::kSpare  ? "spare-rebuild"
                                     : "degraded";
}

/// Locale failures one run (or one ingest stage) survives; the next one
/// propagates LocaleFailed.
inline constexpr int kMaxLocaleFailures = 4;

struct RecoveryPolicy {
  RebuildMode mode = RebuildMode::kDegraded;
  /// kRollback: snapshot every this many completed rounds (0 disables
  /// checkpointing: a failure restarts the loop from scratch).
  int checkpoint_every = 4;
  /// kSpare / kDegraded: replication scheme and cadence knobs.
  ReplicaOptions replica;
  /// Leave a degraded-mode remap installed on exit instead of restoring
  /// identity membership. A long-lived caller that drives *many* loops
  /// under one plan (the serving front end) sets this so that after a
  /// kill every later loop starts on the surviving hosts directly —
  /// no logical locale maps to the dead host anymore, so no re-failure
  /// and no per-loop re-rebuild.
  bool keep_membership = false;
  /// Called after each failover, before the loop resumes, with the dead
  /// logical locale. Lets state that lives *outside* the loop — the
  /// ingest delta log and its base mirror — restore itself from its own
  /// replicas as part of the same recovery.
  std::function<void(int logical)> on_rebuild;
};

/// Structured outcome of recovered runs. Counts and totals accumulate,
/// so one report can be handed to many runs (the service executor shares
/// one across batches); `mode` is the last run's. `pgb` prints summary()
/// in its fault summary; the abl_recovery ablation compares
/// sim_time_lost across modes.
struct RecoveryReport {
  const char* mode = "none";  ///< rollback | spare-rebuild | degraded
  int restarts = 0;           ///< global checkpoint rollbacks taken
  int rebuilds = 0;           ///< localized rebuilds (spare / degraded)
  int checkpoints = 0;        ///< snapshots saved (or replica flushes)
  std::int64_t checkpoint_bytes = 0;  ///< sum over saved snapshots
  std::int64_t replica_bytes = 0;     ///< incremental replica bytes shipped
  std::int64_t bytes_restored = 0;    ///< bytes reloaded/shipped to rebuild
  std::int64_t rounds_replayed = 0;   ///< rounds re-executed after restores
  int degraded_locales = 0;  ///< logical locales co-hosted after remaps
  /// Simulated time a failure cost: discarded work since the last safe
  /// point plus the restore/rebuild itself, summed over failures.
  double sim_time_lost = 0.0;

  std::string summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "mode=%s restarts=%d rebuilds=%d replayed=%lld "
                  "lost=%.3fms restored=%lld B",
                  mode, restarts, rebuilds,
                  static_cast<long long>(rounds_replayed),
                  sim_time_lost * 1e3,
                  static_cast<long long>(bytes_restored));
    return buf;
  }
};

/// The algorithm-side contract of run_with_recovery.
template <typename State>
struct RecoverableLoop {
  std::function<State()> init;
  std::function<void(State&)> step;           ///< one round; sets done
  std::function<bool(const State&)> done;
  std::function<void(const State&, Checkpoint&)> save;
  std::function<State(const Checkpoint&)> load;
};

/// Runs `attempt` until it returns, failing over on each LocaleFailed:
/// kDegraded remaps the dead logical locale onto its buddy's host,
/// kRollback and kSpare mark the dead host recovered. Before the next
/// attempt it calls `on_failover(logical, dead_host)`; a kill detected
/// inside that hook is one more failure, and the interrupted hook runs
/// again after it. Rethrows without a fault plan on the grid, past
/// kMaxLocaleFailures, or when the buddy is down too (a second
/// overlapping failure exceeds the single-fault tolerance of the
/// replica scheme).
template <typename Attempt, typename OnFailover>
auto retry_failover(LocaleGrid& grid, RebuildMode mode, Attempt&& attempt,
                    OnFailover&& on_failover) {
  std::vector<std::pair<int, int>> pending;  // (logical, dead host)
  for (int failures = 0;;) {
    try {
      for (; !pending.empty(); pending.erase(pending.begin())) {
        on_failover(pending.front().first, pending.front().second);
      }
      return attempt();
    } catch (const LocaleFailed& lf) {
      FaultPlan* plan = grid.fault_plan();
      if (plan == nullptr || ++failures > kMaxLocaleFailures) throw;
      const int logical = lf.locale();
      const int dead_host = grid.host_of(logical);
      if (mode == RebuildMode::kDegraded) {
        const int buddy =
            grid.host_of(replica_buddy_of(logical, grid.num_locales()));
        if (buddy == dead_host || plan->is_down(buddy, grid.time())) throw;
        grid.remap_locale(logical, buddy);
      } else {
        plan->mark_recovered(dead_host);
      }
      grid.metrics().counter("recovery.restarts").inc();
      pending.emplace_back(logical, dead_host);
    }
  }
}

/// Runs `loop` to completion under `plan`, surviving locale kills as
/// `policy` says. Installs `plan` on the grid for the duration; on exit,
/// the throwing path included, restores the previous plan and (unless
/// policy.keep_membership) identity membership. `static_bytes` is the
/// unchanging state (the matrix blocks, grid total) a restore re-ships:
/// from the stable store, or from replicas set up once at start. `plan`
/// may be null — the loop then runs fault-free, still paying its
/// safe-point cadence (that steady-state cost is what the ablations
/// price).
template <typename State>
State run_with_recovery(LocaleGrid& grid, FaultPlan* plan,
                        const RecoverableLoop<State>& loop,
                        const RecoveryPolicy& policy,
                        std::int64_t static_bytes,
                        RecoveryReport* report = nullptr) {
  PGB_REQUIRE(policy.checkpoint_every >= 0,
              "recovery: checkpoint_every must be >= 0");
  struct Guard {
    LocaleGrid& g;
    FaultPlan* prev_plan;
    bool restore_identity;
    ~Guard() {
      g.set_fault_plan(prev_plan);
      if (restore_identity && g.membership().remapped()) {
        g.restore_membership();
      }
    }
  } guard{grid, grid.fault_plan(),
          !policy.keep_membership && !grid.membership().remapped()};
  grid.set_fault_plan(plan);
  RecoveryReport unused;
  RecoveryReport& rep = report != nullptr ? *report : unused;
  rep.mode = to_string(policy.mode);

  const bool rollback = policy.mode == RebuildMode::kRollback;
  Checkpoint ckpt;  // rollback's stable-store snapshot
  // Spare/degraded replicas. The store is built inside the retried
  // attempt: its one-time static replication is a comm phase, and a kill
  // landing there (or a dead host still in the mapping on a later call
  // under the same plan) must fail over like any mid-loop failure.
  std::optional<ReplicaStore> store;
  std::optional<State> state;
  std::int64_t rounds = 0;
  std::int64_t safe = -1;  // round of the last safe copy (-1: none)
  int last_failed = -1;
  // The last safe point in time: work since then is what a failure
  // discards. Starts at run begin (failing before the first safe copy
  // restarts from scratch).
  double t_safe = grid.time();
  bool restoring = false;
  // Saves a safe copy after `round` completed rounds, at the mode's
  // cadence: every round to the replicas, every checkpoint_every rounds
  // to the stable store.
  const auto safe_point = [&](std::int64_t round) {
    if (!rollback) {
      loop.save(*state, store->staging());
      store->flush(round);
    } else if (round > 0 && policy.checkpoint_every > 0 &&
               round % policy.checkpoint_every == 0) {
      ckpt.clear();
      loop.save(*state, ckpt);
      ckpt.round = round;
      charge_checkpoint_save(grid, ckpt);
      rep.checkpoint_bytes += ckpt.total_bytes();
    } else {
      return;
    }
    safe = round;
    t_safe = grid.time();
    if (round > 0) ++rep.checkpoints;
  };
  const auto attempt = [&]() -> State {
    if (!rollback && !store.has_value()) {
      store.emplace(grid, policy.replica, static_bytes);
    }
    if (!state.has_value()) {
      rounds = std::max<std::int64_t>(safe, 0);
      if (safe < 0) {
        // No safe copy yet: start from scratch — in degraded mode on the
        // already-remapped membership, so the rerun avoids the dead host.
        state.emplace(loop.init());
        safe_point(0);
      } else if (rollback) {
        charge_checkpoint_restore(grid, ckpt, static_bytes);
        state.emplace(loop.load(ckpt));
        rep.bytes_restored += ckpt.total_bytes() + static_bytes;
      } else {
        rep.bytes_restored += store->rebuild(last_failed);
        state.emplace(loop.load(store->restored()));
      }
      if (restoring) {
        // Everything between the last safe point and the end of the
        // restore is the failure's bill.
        rep.sim_time_lost += grid.time() - t_safe;
        restoring = false;
        t_safe = grid.time();
      }
    }
    while (!loop.done(*state)) {
      loop.step(*state);
      safe_point(++rounds);
    }
    if (store.has_value()) rep.replica_bytes += store->shipped_bytes();
    return std::move(*state);
  };
  return retry_failover(
      grid, policy.mode, attempt, [&](int logical, int dead_host) {
        last_failed = logical;
        if (policy.on_rebuild) policy.on_rebuild(logical);
        // A kill during the store's own static replication leaves no
        // replicas to restore: rebuild the store on the new mapping.
        if (safe < 0) store.reset();
        const std::int64_t from = std::max<std::int64_t>(safe, 0);
        if (auto* session = grid.trace_session()) {
          session->instant(
              dead_host,
              rollback ? "recovery.restart" : "recovery.rebuild_started",
              grid.time(),
              {{"logical", std::to_string(logical)},
               {"from_round", std::to_string(from)}});
        }
        ++(rollback ? rep.restarts : rep.rebuilds);
        if (policy.mode == RebuildMode::kDegraded) ++rep.degraded_locales;
        rep.rounds_replayed += rounds - from;
        restoring = true;
        state.reset();  // restored from the safe copy (or scratch) above
      });
}

}  // namespace pgb
