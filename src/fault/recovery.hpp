// Checkpoint/restart recovery driver.
//
// Iterative algorithms in this codebase are round-structured (BFS levels,
// Bellman-Ford relaxations, pagerank iterations), so recovery is the
// classic coordinated scheme: snapshot the loop state every K completed
// rounds; when the grid's coforall dispatch reports a permanently failed
// locale (LocaleFailed), replace the locale, restore the last snapshot,
// and resume. Re-executed rounds recompute over bit-identical inputs, so
// the recovered run's result is bit-for-bit the fault-free result — the
// only difference is modeled time and re-paid communication.
//
// RecoverableLoop is the contract an algorithm exposes: construct the
// initial state, advance it one round, snapshot it, and rebuild it from
// a snapshot. algo/algo_recovery.hpp adapts BFS/SSSP/pagerank to it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {

struct RecoveryOptions {
  /// Snapshot every this many completed rounds (0 disables
  /// checkpointing: a failure restarts the loop from scratch).
  int checkpoint_every = 4;
  /// Delivery guarantees installed on the grid for the run.
  RetryPolicy retry;
  /// Modeled stable-store bandwidth, bytes/s (burst-buffer class).
  double stable_bw = 5e9;
  /// Unchanging bytes the replacement locale re-ships on restore (the
  /// algorithm's matrix blocks; algo wrappers fill this in).
  std::int64_t static_bytes = 0;
  /// Give up (rethrow LocaleFailed) after this many restarts.
  int max_restarts = 8;
};

/// Structured outcome of a recovered run, shared by the rollback driver
/// here and the localized-rebuild driver (fault/rebuild.hpp). Counts and
/// totals accumulate, so one report can be handed to many runs (the
/// service executor shares one across batches); `mode` is the last
/// run's. `pgb` prints summary() in its fault summary; the abl_recovery
/// ablation compares sim_time_lost across recovery paths.
struct RecoveryReport {
  const char* mode = "none";  ///< rollback | spare-rebuild | degraded
  int restarts = 0;           ///< global checkpoint rollbacks taken
  int rebuilds = 0;           ///< localized rebuilds (rebuild driver)
  int checkpoints = 0;        ///< snapshots saved (or replica flushes)
  std::int64_t checkpoint_bytes = 0;  ///< sum over saved snapshots
  std::int64_t replica_bytes = 0;     ///< incremental replica bytes shipped
  std::int64_t bytes_restored = 0;    ///< bytes reloaded/shipped to rebuild
  std::int64_t rounds_replayed = 0;   ///< rounds re-executed after restores
  int degraded_locales = 0;  ///< logical locales co-hosted after remaps
  /// Simulated time a failure cost: discarded work since the last safe
  /// snapshot plus the restore/rebuild itself, summed over failures.
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

/// Runs `loop` to completion under `plan`, surviving locale kills by
/// checkpoint/restart. Installs `plan` and `opt.retry` on the grid for
/// the duration (restoring whatever was attached before). `plan` may be
/// null — the loop then just runs fault-free.
template <typename State>
State run_with_recovery(LocaleGrid& grid, FaultPlan* plan,
                        const RecoverableLoop<State>& loop,
                        const RecoveryOptions& opt,
                        RecoveryReport* report = nullptr) {
  PGB_REQUIRE(opt.checkpoint_every >= 0,
              "recovery: checkpoint_every must be >= 0");
  PGB_REQUIRE(opt.max_restarts >= 0, "recovery: max_restarts must be >= 0");
  struct Guard {
    LocaleGrid& g;
    FaultPlan* prev_plan;
    RetryPolicy prev_retry;
    ~Guard() {
      g.set_fault_plan(prev_plan);
      g.set_retry_policy(prev_retry);
    }
  } guard{grid, grid.fault_plan(), grid.retry_policy()};
  grid.set_fault_plan(plan);
  grid.set_retry_policy(opt.retry);
  if (report != nullptr) report->mode = "rollback";

  Checkpoint ckpt;
  std::optional<State> state;
  std::int64_t rounds = 0;
  int restarts = 0;
  // The last moment the run was "safe": work since then is what a
  // failure discards. Starts at run begin (failing before the first
  // checkpoint restarts from scratch).
  double t_safe = grid.time();
  bool restoring = false;
  for (;;) {
    try {
      if (!state.has_value()) {
        if (ckpt.round >= 0) {
          charge_checkpoint_restore(grid, ckpt, opt.stable_bw,
                                    opt.static_bytes);
          state.emplace(loop.load(ckpt));
          rounds = ckpt.round;
          if (report != nullptr) {
            report->bytes_restored += ckpt.total_bytes() + opt.static_bytes;
          }
        } else {
          state.emplace(loop.init());
          rounds = 0;
        }
        if (restoring) {
          // Everything between the last safe point and the end of the
          // restore is the failure's bill.
          if (report != nullptr) report->sim_time_lost += grid.time() - t_safe;
          restoring = false;
          t_safe = grid.time();
        }
      }
      while (!loop.done(*state)) {
        loop.step(*state);
        ++rounds;
        if (opt.checkpoint_every > 0 && rounds % opt.checkpoint_every == 0) {
          ckpt.clear();
          loop.save(*state, ckpt);
          ckpt.round = rounds;
          charge_checkpoint_save(grid, ckpt, opt.stable_bw);
          t_safe = grid.time();
          if (report != nullptr) {
            ++report->checkpoints;
            report->checkpoint_bytes += ckpt.total_bytes();
          }
        }
      }
      return std::move(*state);
    } catch (const LocaleFailed& lf) {
      ++restarts;
      if (restarts > opt.max_restarts || plan == nullptr) throw;
      // The failed locale is replaced: the stand-in adopts its id and
      // its block assignment, so the plan stops reporting it down. (This
      // driver never remaps membership, so the logical locale carried by
      // the exception *is* the physical host.)
      plan->mark_recovered(lf.locale());
      grid.metrics().counter("recovery.restarts").inc();
      auto* session = grid.trace_session();
      if (session != nullptr) {
        session->instant(lf.locale(), "recovery.restart", grid.time(),
                         {{"restart", std::to_string(restarts)},
                          {"from_round",
                           std::to_string(ckpt.round >= 0 ? ckpt.round : 0)}});
      }
      if (report != nullptr) {
        ++report->restarts;
        report->rounds_replayed += rounds - (ckpt.round >= 0 ? ckpt.round : 0);
      }
      restoring = true;
      state.reset();  // rebuilt from the snapshot (or scratch) above
    }
  }
}

}  // namespace pgb
