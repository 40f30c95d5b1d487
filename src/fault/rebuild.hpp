// Localized-rebuild recovery driver: the degraded-mode counterpart of
// run_with_recovery (recovery.hpp).
//
// Where checkpoint rollback restores *every* locale from the stable
// store and replays up to checkpoint_every rounds, this driver keeps
// the loop state replicated in locale memory (fault/replica.hpp),
// flushed incrementally at every round boundary. On LocaleFailed only
// the dead locale's blocks are rebuilt — from its buddy mirror or its
// parity group — onto either:
//
//   kSpare:    a spare that adopts the dead locale's physical id (the
//              fault plan marks it recovered, as rollback does), or
//   kDegraded: the surviving N-1 locales — the dead locale's *logical*
//              id is remapped onto its buddy's host (a membership-epoch
//              bump that every comm helper, distribution view, and clock
//              charge consults), and the run keeps going co-hosted.
//
// Either way the run resumes from the last flushed round — at a flush
// per round, at most the interrupted round is replayed. Re-executed
// rounds recompute over bit-identical inputs, so results stay bit-for-
// bit equal to the fault-free run; only modeled time and traffic differ.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "fault/recovery.hpp"
#include "fault/replica.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {

enum class RebuildMode {
  kSpare,     ///< a spare adopts the dead physical locale's identity
  kDegraded,  ///< remap the dead logical locale onto its buddy's host
};

inline const char* to_string(RebuildMode m) {
  return m == RebuildMode::kSpare ? "spare-rebuild" : "degraded";
}

struct RebuildOptions {
  RebuildMode mode = RebuildMode::kDegraded;
  /// Replication scheme + cadence knobs (see fault/replica.hpp).
  ReplicaOptions replica;
  /// Delivery guarantees installed on the grid for the run.
  RetryPolicy retry;
  /// Give up (rethrow LocaleFailed) after this many rebuilds.
  int max_failures = 4;
  /// Leave a degraded-mode remap installed on exit instead of restoring
  /// identity membership. A long-lived caller that drives *many* loops
  /// under one plan (the serving front end) sets this so that after a
  /// kill every later loop starts on the surviving hosts directly —
  /// no logical locale maps to the dead host anymore, so no re-failure
  /// and no per-loop re-rebuild.
  bool keep_membership = false;
  /// Called after a successful remap/adopt, before the loop resumes,
  /// with the dead logical locale. Lets state that lives *outside* the
  /// driver's ReplicaStore — the ingest delta log and its base mirror —
  /// restore itself from its own replicas as part of the same rebuild.
  std::function<void(int logical)> on_rebuild;
};

/// Runs `loop` to completion under `plan`, surviving locale kills by
/// localized rebuild from in-memory replicas. Installs `plan` and
/// `opt.retry` on the grid for the duration and restores the previous
/// plan, retry policy, and membership mapping on exit (a degraded run
/// leaves the grid remapped only while it executes, unless
/// opt.keep_membership asks for the remap to outlive the call). `plan`
/// may be null
/// — the loop then runs fault-free, still paying replication overhead
/// (that steady-state cost is what abl_recovery prices).
template <typename State>
State run_with_rebuild(LocaleGrid& grid, FaultPlan* plan,
                       const RecoverableLoop<State>& loop,
                       const RebuildOptions& opt,
                       RecoveryReport* report = nullptr) {
  PGB_REQUIRE(opt.max_failures >= 0, "rebuild: max_failures must be >= 0");
  struct Guard {
    LocaleGrid& g;
    FaultPlan* prev_plan;
    RetryPolicy prev_retry;
    bool prev_identity;
    bool keep_membership;
    ~Guard() {
      g.set_fault_plan(prev_plan);
      g.set_retry_policy(prev_retry);
      if (!keep_membership && prev_identity && g.membership().remapped()) {
        g.restore_membership();
      }
    }
  } guard{grid, grid.fault_plan(), grid.retry_policy(),
          !grid.membership().remapped(), opt.keep_membership};
  grid.set_fault_plan(plan);
  grid.set_retry_policy(opt.retry);
  if (report != nullptr) report->mode = to_string(opt.mode);

  // The store is built inside the guarded loop: its one-time static
  // replication is a comm phase, and a kill landing there (or a dead
  // host still in the mapping on a later driver call under the same
  // plan) must be handled like any mid-loop failure, not escape.
  std::optional<ReplicaStore> store;
  std::optional<State> state;
  std::int64_t rounds = 0;
  int failures = 0;
  int last_failed = -1;
  double t_safe = grid.time();
  bool restoring = false;
  for (;;) {
    try {
      if (!store.has_value()) store.emplace(grid, opt.replica);
      if (!state.has_value()) {
        if (store->protected_round() >= 0) {
          const std::int64_t restored_bytes = store->rebuild(last_failed);
          state.emplace(loop.load(store->restored()));
          rounds = store->protected_round();
          if (report != nullptr) report->bytes_restored += restored_bytes;
        } else {
          // Failed before the priming flush (or at first run): start
          // from scratch — with the membership already remapped in
          // degraded mode, so the rerun avoids the dead host.
          state.emplace(loop.init());
          rounds = 0;
          loop.save(*state, store->staging());
          store->flush(0);
          t_safe = grid.time();
        }
        if (restoring) {
          if (report != nullptr) report->sim_time_lost += grid.time() - t_safe;
          restoring = false;
          t_safe = grid.time();
        }
      }
      while (!loop.done(*state)) {
        loop.step(*state);
        ++rounds;
        // Phase boundary: stage the new state and ship the update log.
        loop.save(*state, store->staging());
        store->flush(rounds);
        t_safe = grid.time();
        if (report != nullptr) ++report->checkpoints;
      }
      if (report != nullptr) report->replica_bytes += store->shipped_bytes();
      return std::move(*state);
    } catch (const LocaleFailed& lf) {
      ++failures;
      if (failures > opt.max_failures || plan == nullptr) throw;
      const int logical = lf.locale();
      const int dead_host = grid.host_of(logical);
      if (opt.mode == RebuildMode::kDegraded) {
        const int new_host = grid.host_of(
            replica_buddy_of(logical, grid.num_locales()));
        if (new_host == dead_host ||
            plan->is_down(new_host, grid.time())) {
          // The buddy died too (or an earlier remap already routed the
          // logical there): a second overlapping failure exceeds the
          // single-fault tolerance of the replica scheme.
          throw;
        }
        grid.remap_locale(logical, new_host);
        if (report != nullptr) ++report->degraded_locales;
      } else {
        // A spare adopts the dead physical locale's identity, exactly
        // like rollback recovery replaces it.
        plan->mark_recovered(dead_host);
      }
      last_failed = logical;
      if (opt.on_rebuild) opt.on_rebuild(logical);
      // A kill during the store's own static replication leaves no
      // replicas to restore: drop the partial store and rebuild it from
      // scratch on the surviving mapping.
      const std::int64_t safe_round =
          store.has_value() ? store->protected_round() : -1;
      if (safe_round < 0) store.reset();
      grid.metrics().counter("recovery.restarts").inc();
      auto* session = grid.trace_session();
      if (session != nullptr) {
        session->instant(dead_host, "recovery.rebuild_started", grid.time(),
                         {{"logical", std::to_string(logical)},
                          {"mode", to_string(opt.mode)},
                          {"from_round", std::to_string(safe_round)}});
      }
      if (report != nullptr) {
        ++report->rebuilds;
        report->rounds_replayed += rounds - (safe_round >= 0 ? safe_round : 0);
      }
      restoring = true;
      state.reset();  // rebuilt from the replicas above
    }
  }
}

}  // namespace pgb
