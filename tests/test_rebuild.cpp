// Tests for recovery: membership remapping, the replica store (buddy
// mirrors, parity folds, incremental dirty-chunk flushes), the recovery
// driver in every mode producing bit-identical results across
// algorithms and comm schedules, its failure budget, straggler-aware
// barriers, and the SpMSpV work-shedding hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "fault/recovery.hpp"
#include "fault/replica.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/dist.hpp"
#include "sparse/dist_dense_vec.hpp"

namespace pgb {
namespace {

TEST(Membership, IdentityUntilRemapped) {
  Membership m(8);
  EXPECT_EQ(m.size(), 8);
  EXPECT_FALSE(m.remapped());
  EXPECT_EQ(m.active(), 8);
  const std::uint64_t e0 = m.epoch();
  for (int l = 0; l < 8; ++l) EXPECT_EQ(m.host(l), l);

  m.remap(3, 7);
  EXPECT_TRUE(m.remapped());
  EXPECT_EQ(m.host(3), 7);
  EXPECT_EQ(m.active(), 7);  // hosts {0,1,2,4,5,6,7}
  EXPECT_GT(m.epoch(), e0);

  m.reset();
  EXPECT_FALSE(m.remapped());
  EXPECT_EQ(m.host(3), 3);
  EXPECT_EQ(m.active(), 8);
}

TEST(Membership, RemapViewRefreshesWhenEpochMoves) {
  Membership m(4);
  RemapView view(m);
  EXPECT_FALSE(view.remapped());
  EXPECT_EQ(view.host(2), 2);
  m.remap(2, 0);
  // The cached view notices the epoch bump on the next query.
  EXPECT_TRUE(view.remapped());
  EXPECT_EQ(view.host(2), 0);
}

TEST(Membership, GridRemapBumpsEpochAndCounter) {
  auto grid = LocaleGrid::square(4, 1);
  const std::uint64_t e0 = grid.membership_epoch();
  grid.remap_locale(3, 1);
  EXPECT_EQ(grid.host_of(3), 1);
  EXPECT_GT(grid.membership_epoch(), e0);
  EXPECT_EQ(grid.metrics().counter("membership.remaps").value, 1);
  grid.restore_membership();
  EXPECT_EQ(grid.host_of(3), 3);
}

TEST(Membership, CoHostedCommIsFreeAfterRemap) {
  auto grid = LocaleGrid::square(4, 1);
  grid.remap_locale(3, 1);
  const auto msgs0 = grid.hot().messages->value;
  const auto bytes0 = grid.hot().bytes->value;
  const double t0 = grid.time();
  LocaleCtx ctx(grid, 3);
  // Logical 3 now lives on host 1: "remote" traffic between them is a
  // local memory operation — no messages, no bytes, no clock time.
  ctx.remote_bulk(1, 1 << 20);
  ctx.remote_msgs(1, 100, 16);
  ctx.remote_rt(1, 8);
  ctx.remote_chain(1, 50, 2.0, 16);
  EXPECT_EQ(grid.hot().messages->value, msgs0);
  EXPECT_EQ(grid.hot().bytes->value, bytes0);
  EXPECT_DOUBLE_EQ(grid.time(), t0);
  // A genuinely remote peer still pays.
  ctx.remote_bulk(2, 1 << 10);
  EXPECT_GT(grid.hot().messages->value, msgs0);
}

TEST(Replica, BuddyIsNeverSelfAndIsInvolutionForEvenRings) {
  for (int n = 2; n <= 9; ++n) {
    for (int l = 0; l < n; ++l) {
      const int b = replica_buddy_of(l, n);
      EXPECT_NE(b, l) << "n=" << n;
      EXPECT_GE(b, 0);
      EXPECT_LT(b, n);
      if (n % 2 == 0) {
        EXPECT_EQ(replica_buddy_of(b, n), l) << "n=" << n;  // pairs
      }
    }
  }
}

TEST(Replica, ParityHolderLivesOutsideItsGroup) {
  auto grid = LocaleGrid::square(8, 1);
  ReplicaOptions opt;
  opt.scheme = ReplicaScheme::kParity;
  opt.parity_group = 4;
  ReplicaStore store(grid, opt);
  for (int l = 0; l < 8; ++l) {
    const int holder = store.parity_holder(store.group_of(l));
    EXPECT_NE(store.group_of(holder), store.group_of(l)) << "l=" << l;
  }
  // parity_group >= n would force the parity into its own group.
  ReplicaOptions bad;
  bad.scheme = ReplicaScheme::kParity;
  bad.parity_group = 8;
  EXPECT_THROW(ReplicaStore(grid, bad), InvalidArgument);
}

TEST(Replica, SecondIdenticalFlushShipsNothing) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> v(grid, 1000, 1.5);
  ReplicaStore store(grid, {});
  store.staging().put("v", v);
  store.flush(0);
  const std::int64_t first = store.shipped_bytes();
  EXPECT_GT(first, 0);
  EXPECT_EQ(store.protected_round(), 0);

  // Same bytes staged again: the chunk diff finds nothing dirty.
  store.staging().put("v", v);
  store.flush(1);
  EXPECT_EQ(store.shipped_bytes(), first);
  EXPECT_EQ(store.protected_round(), 1);

  // One element changes: only its chunk (plus header) travels, far less
  // than the full vector.
  v.local(0).raw()[3] = 42.0;
  store.staging().put("v", v);
  store.flush(2);
  const std::int64_t delta = store.shipped_bytes() - first;
  EXPECT_GT(delta, 0);
  EXPECT_LT(delta, first / 2);
  EXPECT_EQ(grid.metrics().counter("replica.flushes").value, 3);
  EXPECT_EQ(grid.metrics().counter("replica.bytes").value,
            store.shipped_bytes());
}

TEST(Replica, BuddyRebuildReadsTheMirrorNotThePrimary) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> v(grid, 800, 0.0);
  for (int l = 0; l < 4; ++l) {
    auto raw = v.local(l).raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<double>(l * 10000 + static_cast<int>(i));
    }
  }
  ReplicaStore store(grid, {});
  store.staging().put("v", v);
  store.flush(0);

  // Locale 2 "dies": trash its primary copy. A rebuild that read the
  // primary would reproduce garbage (and fail the checksum).
  const int dead = 2;
  CheckpointEntry* e = store.primary_for_test().find_mutable("v");
  ASSERT_NE(e, nullptr);
  for (CheckpointBlock& blk : e->blocks) {
    if (blk.locale == dead) std::fill(blk.bytes.begin(), blk.bytes.end(), 0xFF);
  }

  const std::int64_t restored = store.rebuild(dead);
  EXPECT_GT(restored, 0);
  DistDenseVec<double> out(grid, 800, -1.0);
  store.restored().get("v", out);
  for (int l = 0; l < 4; ++l) {
    const auto raw = out.local(l).raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      ASSERT_DOUBLE_EQ(raw[i],
                       static_cast<double>(l * 10000 + static_cast<int>(i)))
          << "l=" << l << " i=" << i;
    }
  }
  EXPECT_EQ(grid.metrics().counter("recovery.rebuilds").value, 1);
  EXPECT_GT(grid.metrics().counter("replica.restored_bytes").value, 0);
}

TEST(Replica, ParityReconstructionSurvivesPrimaryLoss) {
  auto grid = LocaleGrid::square(8, 1);
  DistDenseVec<double> v(grid, 1600, 0.0);
  for (int l = 0; l < 8; ++l) {
    auto raw = v.local(l).raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<double>(l) + 0.25 * static_cast<double>(i);
    }
  }
  ReplicaOptions opt;
  opt.scheme = ReplicaScheme::kParity;
  opt.parity_group = 4;
  ReplicaStore store(grid, opt);
  store.staging().put("v", v);
  store.flush(0);

  const int dead = 5;
  CheckpointEntry* e = store.primary_for_test().find_mutable("v");
  ASSERT_NE(e, nullptr);
  for (CheckpointBlock& blk : e->blocks) {
    if (blk.locale == dead) std::fill(blk.bytes.begin(), blk.bytes.end(), 0);
  }

  store.rebuild(dead);  // parity XOR surviving members, checksum-checked
  DistDenseVec<double> out(grid, 1600, -1.0);
  store.restored().get("v", out);
  const auto raw = out.local(dead).raw();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ASSERT_DOUBLE_EQ(
        raw[i], static_cast<double>(dead) + 0.25 * static_cast<double>(i));
  }
}

TEST(Replica, ParityTracksIncrementalUpdates) {
  // The fold is maintained as parity ^= old ^ new: after several
  // mutating flushes, reconstruction must still reproduce the *latest*
  // flushed state.
  auto grid = LocaleGrid::square(8, 1);
  DistDenseVec<double> v(grid, 400, 1.0);
  ReplicaOptions opt;
  opt.scheme = ReplicaScheme::kParity;
  opt.parity_group = 4;
  ReplicaStore store(grid, opt);
  for (std::int64_t round = 0; round < 3; ++round) {
    for (int l = 0; l < 8; ++l) {
      auto raw = v.local(l).raw();
      for (std::size_t i = 0; i < raw.size(); ++i) {
        raw[i] += static_cast<double>(l + 1) * static_cast<double>(round);
      }
    }
    store.staging().put("v", v);
    store.flush(round);
  }
  const int dead = 1;
  CheckpointEntry* e = store.primary_for_test().find_mutable("v");
  for (CheckpointBlock& blk : e->blocks) {
    if (blk.locale == dead) std::fill(blk.bytes.begin(), blk.bytes.end(), 0);
  }
  store.rebuild(dead);
  DistDenseVec<double> out(grid, 400, -1.0);
  store.restored().get("v", out);
  const auto want = v.local(dead).raw();
  const auto got = out.local(dead).raw();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], want[i]);
  }
}

// ---- the chaos-determinism matrix: kill + recovery is bit-identical to
// fault-free, for every recovery mode, across all three comm schedules,
// and two same-seed executions are indistinguishable. -------------------

struct RebuildRun {
  BfsResult res;
  double time = 0.0;
  std::int64_t messages = 0;
  RecoveryReport report;
};

RebuildRun run_bfs_rebuild(LocaleGrid& grid, const DistCsr<double>& a,
                           CommMode mode, RebuildMode rmode,
                           const std::string& faults) {
  grid.reset();
  SpmspvOptions opt;
  opt.comm = mode;
  FaultPlan plan(FaultSpec::parse(faults), 21);
  RecoveryPolicy policy;
  policy.mode = rmode;
  RebuildRun out;
  out.res = bfs_with_recovery(a, {0}, opt, &plan, policy, &out.report)[0];
  out.time = grid.time();
  out.messages = grid.hot().messages->value;
  return out;
}

TEST(Rebuild, KillRebuildBitIdenticalAcrossModesAndDeterministic) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 600, 8.0, 11);
  for (const CommMode mode :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    grid.reset();
    SpmspvOptions opt;
    opt.comm = mode;
    const BfsResult base = bfs(a, 0, opt);
    const double total = grid.time();
    ASSERT_GT(total, 0.0);
    const std::string faults =
        "kill:locale=1,at=" + std::to_string(total * 0.4);

    for (const RebuildMode rmode : {RebuildMode::kDegraded,
                                    RebuildMode::kSpare,
                                    RebuildMode::kRollback}) {
      const RebuildRun r1 = run_bfs_rebuild(grid, a, mode, rmode, faults);
      const RebuildRun r2 = run_bfs_rebuild(grid, a, mode, rmode, faults);
      // Bit-identical to the fault-free run...
      EXPECT_EQ(r1.res.parent, base.parent)
          << to_string(mode) << "/" << to_string(rmode);
      EXPECT_EQ(r1.res.level_sizes, base.level_sizes);
      // ...and the two same-seed chaos executions are indistinguishable,
      // result AND modeled time AND traffic.
      EXPECT_EQ(r1.res.parent, r2.res.parent);
      EXPECT_DOUBLE_EQ(r1.time, r2.time);
      EXPECT_EQ(r1.messages, r2.messages);
      EXPECT_GE(rmode == RebuildMode::kRollback ? r1.report.restarts
                                                : r1.report.rebuilds,
                1);
      EXPECT_EQ(std::string(r1.report.mode), to_string(rmode));
      // The driver restored the identity mapping on exit.
      EXPECT_FALSE(grid.membership().remapped());
    }
  }
}

TEST(Rebuild, SsspDegradedBitIdentical) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 13);
  grid.reset();
  const SsspResult base = sssp(a, 0, {});
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=2,at=" + std::to_string(total * 0.5)), 3);
  const RecoveryPolicy policy;  // degraded by default
  RecoveryReport report;
  const SsspResult rec =
      sssp_with_recovery(a, {0}, {}, &plan, policy, &report)[0];
  EXPECT_EQ(rec.dist, base.dist);  // exact double equality
  EXPECT_EQ(rec.rounds, base.rounds);
  EXPECT_GE(report.rebuilds, 1);
  EXPECT_EQ(report.degraded_locales, 1);
  EXPECT_GT(report.sim_time_lost, 0.0);
  EXPECT_GT(report.bytes_restored, 0);
}

TEST(Rebuild, SsspCheckpointsEqualRelaxationRounds) {
  // A lane retires in the round that empties its frontier, so the
  // driver flushes one checkpoint per relaxation round and no trailing
  // empty step.
  auto grid = LocaleGrid::square(16, 1);
  auto a = erdos_renyi_dist<double>(grid, 20000, 8.0, 7);
  for (const std::vector<Index>& sources :
       {std::vector<Index>{0}, std::vector<Index>{0, 11, 523, 19999}}) {
    grid.reset();
    RecoveryReport report;
    const std::vector<SsspResult> res =
        sssp_with_recovery(a, sources, {}, nullptr, {}, &report);
    int rounds = 0;
    for (std::size_t q = 0; q < sources.size(); ++q) {
      EXPECT_EQ(res[q].dist, sssp(a, sources[q], {}).dist);
      rounds = std::max(rounds, res[q].rounds);
    }
    EXPECT_GT(rounds, 1);
    EXPECT_EQ(report.checkpoints, rounds) << sources.size() << " lanes";
  }
}

TEST(Rebuild, PagerankParityDegradedBitIdentical) {
  auto grid = LocaleGrid::square(8, 2);
  auto a = erdos_renyi_dist<double>(grid, 600, 6.0, 17);
  grid.reset();
  const PagerankResult base = pagerank(a, 0.85, 1e-8, 40);
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=5,at=" + std::to_string(total * 0.5)), 3);
  RecoveryPolicy policy;  // degraded by default
  policy.replica.scheme = ReplicaScheme::kParity;
  policy.replica.parity_group = 4;
  RecoveryReport report;
  const PagerankResult rec =
      pagerank_with_recovery(a, &plan, 0.85, 1e-8, 40, policy, &report);
  EXPECT_EQ(rec.rank, base.rank);  // exact double equality
  EXPECT_EQ(rec.iterations, base.iterations);
  EXPECT_EQ(rec.residual, base.residual);
  EXPECT_GE(report.rebuilds, 1);
}

TEST(Rebuild, FaultFreeRunMatchesPlainAndPricesReplication) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 11);
  grid.reset();
  const BfsResult base = bfs(a, 0, {});

  grid.reset();
  RecoveryReport report;
  const BfsResult rec =
      bfs_with_recovery(a, {0}, {}, nullptr, {}, &report)[0];
  EXPECT_EQ(rec.parent, base.parent);
  EXPECT_EQ(rec.level_sizes, base.level_sizes);
  EXPECT_EQ(report.rebuilds, 0);
  EXPECT_EQ(report.restarts, 0);
  EXPECT_GE(report.checkpoints, 1);   // per-round flush cadence
  EXPECT_GT(report.replica_bytes, 0);  // static + incremental replication
  EXPECT_GT(grid.metrics().counter("replica.flushes").value, 0);
}

TEST(Rebuild, ReportAccumulatesAcrossRuns) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 800, 8.0, 11);
  grid.reset();
  bfs(a, 0, {});
  const std::string kill =
      "kill:locale=1,at=" + std::to_string(grid.time() * 0.4);
  // Each run starts from a fresh grid under its own plan, so the two
  // runs are the same whether or not they share a report.
  auto run = [&](Index source, RecoveryReport* report) {
    grid.reset();
    FaultPlan plan(FaultSpec::parse(kill), 21);
    bfs_with_recovery(a, {source}, {}, &plan, {}, report);
  };
  RecoveryReport first, second, shared;
  run(0, &first);
  run(7, &second);
  run(0, &shared);
  run(7, &shared);
  ASSERT_GE(first.rebuilds, 1);
  ASSERT_GT(second.replica_bytes, 0);
  EXPECT_EQ(shared.rebuilds, first.rebuilds + second.rebuilds);
  EXPECT_EQ(shared.checkpoints, first.checkpoints + second.checkpoints);
  EXPECT_EQ(shared.replica_bytes, first.replica_bytes + second.replica_bytes);
  EXPECT_EQ(shared.bytes_restored,
            first.bytes_restored + second.bytes_restored);
  EXPECT_EQ(shared.rounds_replayed,
            first.rounds_replayed + second.rounds_replayed);
  EXPECT_EQ(shared.degraded_locales,
            first.degraded_locales + second.degraded_locales);
  EXPECT_EQ(shared.sim_time_lost, first.sim_time_lost + second.sim_time_lost);
}

TEST(Rebuild, SecondFailureTakingTheBuddyRethrows) {
  // Degraded mode remaps the dead logical onto its buddy; losing that
  // buddy too exceeds the single-fault tolerance and must surface.
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 11);
  grid.reset();
  bfs(a, 0, {});
  const double total = grid.time();

  grid.reset();
  // Locale 1's buddy is 3 (n/2 away); kill both.
  ASSERT_EQ(replica_buddy_of(1, 4), 3);
  FaultPlan plan(FaultSpec::parse(
                     "kill:locale=1,at=" + std::to_string(total * 0.3) +
                     ";kill:locale=3,at=" + std::to_string(total * 0.3)),
                 3);
  EXPECT_THROW(bfs_with_recovery(a, {0}, {}, &plan), LocaleFailed);
  // Even on the throwing path, the guard restored the grid.
  EXPECT_FALSE(grid.membership().remapped());
  EXPECT_EQ(grid.fault_plan(), nullptr);
}

// ---- one suite over the driver: mode x {bfs, sssp, pagerank} ----------

enum class Algo { kBfs, kSssp, kPagerank };

/// The graph, the kill and the rollback cadence of each algorithm's case.
struct AlgoCase {
  Index n;
  double d;
  std::uint64_t seed;
  int kill_locale;
  double kill_frac;  ///< of the fault-free run's modeled time
  int checkpoint_every;
};

AlgoCase case_of(Algo algo) {
  switch (algo) {
    case Algo::kBfs:
      return {500, 8.0, 11, 1, 0.4, 2};
    case Algo::kSssp:
      return {400, 6.0, 13, 2, 0.5, 2};
    case Algo::kPagerank:
      break;
  }
  return {300, 6.0, 17, 3, 0.5, 4};
}

/// Everything a recovered run must reproduce bit for bit.
struct AlgoOut {
  std::vector<Index> parent, level_sizes;  // bfs
  std::vector<double> values;  // sssp distances, pagerank ranks
  int rounds = 0;              // sssp rounds, pagerank iterations
  double residual = 0.0;       // pagerank
};

/// Runs `algo` from source 0: plainly when `policy` is null, else under
/// the recovery driver.
AlgoOut run_algo(Algo algo, const DistCsr<double>& a, FaultPlan* plan,
                 const RecoveryPolicy* policy, RecoveryReport* report) {
  AlgoOut out;
  if (algo == Algo::kBfs) {
    const BfsResult r =
        policy == nullptr
            ? bfs(a, 0, {})
            : bfs_with_recovery(a, {0}, {}, plan, *policy, report)[0];
    out.parent = r.parent;
    out.level_sizes = r.level_sizes;
  } else if (algo == Algo::kSssp) {
    const SsspResult r =
        policy == nullptr
            ? sssp(a, 0, {})
            : sssp_with_recovery(a, {0}, {}, plan, *policy, report)[0];
    out.values = r.dist;
    out.rounds = r.rounds;
  } else {
    const PagerankResult r =
        policy == nullptr ? pagerank(a, 0.85, 1e-8, 50)
                          : pagerank_with_recovery(a, plan, 0.85, 1e-8, 50,
                                                   *policy, report);
    out.values = r.rank;
    out.rounds = r.iterations;
    out.residual = r.residual;
  }
  return out;
}

void expect_bit_identical(const AlgoOut& got, const AlgoOut& want) {
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.level_sizes, want.level_sizes);
  EXPECT_EQ(got.values, want.values);  // exact double equality
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.residual, want.residual);
}

const char* mode_name(RebuildMode m) {
  return m == RebuildMode::kRollback ? "rollback"
         : m == RebuildMode::kSpare  ? "spare"
                                     : "degraded";
}

const auto kAllModes = ::testing::Values(
    RebuildMode::kRollback, RebuildMode::kSpare, RebuildMode::kDegraded);

class RecoveryDriverTest
    : public ::testing::TestWithParam<std::tuple<RebuildMode, Algo>> {
 protected:
  RebuildMode mode() const { return std::get<0>(GetParam()); }
  Algo algo() const { return std::get<1>(GetParam()); }
  RecoveryPolicy policy() const {
    RecoveryPolicy p;
    p.mode = mode();
    p.checkpoint_every = case_of(algo()).checkpoint_every;
    return p;
  }
};

TEST_P(RecoveryDriverTest, KillRecoversBitIdentical) {
  const AlgoCase c = case_of(algo());
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, c.n, c.d, c.seed);
  grid.reset();
  const AlgoOut base = run_algo(algo(), a, nullptr, nullptr, nullptr);
  const double total = grid.time();
  ASSERT_GT(total, 0.0);

  grid.reset();
  FaultPlan plan(FaultSpec::parse("kill:locale=" +
                                  std::to_string(c.kill_locale) + ",at=" +
                                  std::to_string(total * c.kill_frac)),
                 3);
  const RecoveryPolicy pol = policy();
  RecoveryReport report;
  expect_bit_identical(run_algo(algo(), a, &plan, &pol, &report), base);
  EXPECT_EQ(std::string(report.mode), to_string(mode()));
  if (mode() == RebuildMode::kRollback) {
    EXPECT_GE(report.restarts, 1);
    EXPECT_EQ(report.rebuilds, 0);
  } else {
    EXPECT_GE(report.rebuilds, 1);
    EXPECT_EQ(report.restarts, 0);
    EXPECT_GT(report.bytes_restored, 0);
  }
  EXPECT_EQ(report.degraded_locales, mode() == RebuildMode::kDegraded ? 1 : 0);
  EXPECT_GE(report.checkpoints, 1);
  EXPECT_GT(report.sim_time_lost, 0.0);
  EXPECT_GE(grid.metrics().counter("recovery.restarts").value, 1);
  EXPECT_EQ(
      grid.metrics().counter("fault.injected", {{"kind", "kill"}}).value, 1);
  // The driver restored the grid's previous (null) plan and identity
  // membership.
  EXPECT_EQ(grid.fault_plan(), nullptr);
  EXPECT_FALSE(grid.membership().remapped());
}

TEST_P(RecoveryDriverTest, FaultFreeRunMatchesPlainRun) {
  const AlgoCase c = case_of(algo());
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, c.n, c.d, c.seed);
  grid.reset();
  const AlgoOut base = run_algo(algo(), a, nullptr, nullptr, nullptr);

  grid.reset();
  const RecoveryPolicy pol = policy();
  RecoveryReport report;
  expect_bit_identical(run_algo(algo(), a, nullptr, &pol, &report), base);
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.rebuilds, 0);
  // The safe-point cadence is still paid (what the ablations price).
  EXPECT_GE(report.checkpoints, 1);
  if (mode() == RebuildMode::kRollback) {
    EXPECT_GT(report.checkpoint_bytes, 0);
    EXPECT_EQ(report.replica_bytes, 0);
  } else {
    EXPECT_GT(report.replica_bytes, 0);  // static + incremental replication
    EXPECT_GT(grid.metrics().counter("replica.flushes").value, 0);
  }
}

std::string driver_case_name(
    const ::testing::TestParamInfo<std::tuple<RebuildMode, Algo>>& info) {
  const Algo algo = std::get<1>(info.param);
  return std::string(mode_name(std::get<0>(info.param))) + "_" +
         (algo == Algo::kBfs    ? "bfs"
          : algo == Algo::kSssp ? "sssp"
                                : "pagerank");
}

INSTANTIATE_TEST_SUITE_P(
    ModesByAlgo, RecoveryDriverTest,
    ::testing::Combine(kAllModes, ::testing::Values(Algo::kBfs, Algo::kSssp,
                                                    Algo::kPagerank)),
    driver_case_name);

// ---- the failure budget: kMaxLocaleFailures kills survive, one more
// rethrows --------------------------------------------------------------

/// Kills `count` distinct locales 0, 1, ... of a 16-locale grid. Their
/// buddies (8, 9, ...) stay alive, so every kill is survivable alone.
std::string budget_kills(int count, double total) {
  std::string spec;
  for (int l = 0; l < count; ++l) {
    if (!spec.empty()) spec += ";";
    spec += "kill:locale=" + std::to_string(l) +
            ",at=" + std::to_string(total * (0.2 + 0.1 * l));
  }
  return spec;
}

class RecoveryBudgetTest : public ::testing::TestWithParam<RebuildMode> {};

TEST_P(RecoveryBudgetTest, BudgetKillsRecoverBitIdentical) {
  auto grid = LocaleGrid::square(16, 1);
  ASSERT_GT(grid.num_locales() / 2, kMaxLocaleFailures);
  auto a = erdos_renyi_dist<double>(grid, 600, 6.0, 17);
  grid.reset();
  const PagerankResult base = pagerank(a, 0.85, 1e-8, 50);
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse(budget_kills(kMaxLocaleFailures, total)), 3);
  RecoveryPolicy policy;
  policy.mode = GetParam();
  RecoveryReport report;
  const PagerankResult rec =
      pagerank_with_recovery(a, &plan, 0.85, 1e-8, 50, policy, &report);
  EXPECT_EQ(rec.rank, base.rank);  // exact double equality
  EXPECT_EQ(rec.iterations, base.iterations);
  EXPECT_EQ(rec.residual, base.residual);
  EXPECT_EQ(report.restarts + report.rebuilds, kMaxLocaleFailures);
  EXPECT_EQ(
      grid.metrics().counter("fault.injected", {{"kind", "kill"}}).value,
      kMaxLocaleFailures);
}

TEST_P(RecoveryBudgetTest, OneKillPastTheBudgetRethrows) {
  auto grid = LocaleGrid::square(16, 1);
  ASSERT_GT(grid.num_locales() / 2, kMaxLocaleFailures + 1);
  auto a = erdos_renyi_dist<double>(grid, 600, 6.0, 17);
  grid.reset();
  pagerank(a, 0.85, 1e-8, 50);
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse(budget_kills(kMaxLocaleFailures + 1, total)), 3);
  RecoveryPolicy policy;
  policy.mode = GetParam();
  EXPECT_THROW(pagerank_with_recovery(a, &plan, 0.85, 1e-8, 50, policy),
               LocaleFailed);
  EXPECT_EQ(
      grid.metrics().counter("fault.injected", {{"kind", "kill"}}).value,
      kMaxLocaleFailures + 1);
  // Even on the throwing path, the guard restored the grid.
  EXPECT_EQ(grid.fault_plan(), nullptr);
  EXPECT_FALSE(grid.membership().remapped());
}

INSTANTIATE_TEST_SUITE_P(Modes, RecoveryBudgetTest, kAllModes,
                         [](const auto& info) {
                           return std::string(mode_name(info.param));
                         });

// ---- straggler-aware barriers + the SpMSpV shedding hook ---------------

TEST(Straggler, BarrierSkewFlagsStalledLocale) {
  auto grid = LocaleGrid::square(4, 1);
  FaultPlan plan(FaultSpec::parse("stall:locale=2,ms=5"), 1);
  grid.set_fault_plan(&plan);
  grid.set_straggler_threshold(1e-3);
  grid.coforall_locales([&](LocaleCtx& ctx) {
    ctx.remote_msgs((ctx.locale() + 1) % 4, 10, 16);
  });
  grid.barrier_all();
  grid.set_fault_plan(nullptr);
  // Locale 2's sends each stalled 5 ms: it enters the barrier far behind.
  EXPECT_GE(grid.metrics().counter("straggler.detected").value, 1);
  EXPECT_GE(grid.straggler_hits(2), 1);
  EXPECT_EQ(grid.straggler_hits(0), 0);
  EXPECT_GE(grid.metrics().histogram("barrier.skew").count, 1);
}

TEST(Straggler, DetectionIsOffWithoutThresholdOrPlan) {
  auto grid = LocaleGrid::square(4, 1);
  grid.coforall_locales([&](LocaleCtx& ctx) {
    ctx.remote_msgs((ctx.locale() + 1) % 4, 10, 16);
  });
  grid.barrier_all();
  // No threshold, no plan: the skew histogram must not even register —
  // fault-free metric key sets are part of the profile-regression
  // contract.
  EXPECT_EQ(grid.metrics().find_histogram("barrier.skew"), nullptr);
  EXPECT_EQ(grid.metrics().find_counter("straggler.detected"), nullptr);
}

TEST(Straggler, SpmspvShedMovesChargingNotResults) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 2000, 8.0, 7);
  auto x = random_dist_sparse_vec<double>(grid, 2000, 300, 9);
  grid.reset();
  const auto base = spmspv_dist(a, x, arithmetic_semiring<double>(), {});

  grid.reset();
  // Manufacture a straggler record for locale 1's host, then run with
  // shedding enabled and the plan detached.
  {
    FaultPlan plan(FaultSpec::parse("stall:locale=1,ms=5"), 1);
    grid.set_fault_plan(&plan);
    grid.set_straggler_threshold(1e-3);
    grid.coforall_locales([&](LocaleCtx& ctx) {
      ctx.remote_msgs((ctx.locale() + 1) % 4, 10, 16);
    });
    grid.barrier_all();
    grid.set_fault_plan(nullptr);
  }
  ASSERT_GE(grid.straggler_hits(1), 1);
  SpmspvOptions opt;
  opt.straggler_shed = 0.4;
  const auto shed = spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
  EXPECT_GE(grid.metrics().counter("spmspv.rebalanced").value, 1);
  ASSERT_EQ(shed.nnz(), base.nnz());
  for (int l = 0; l < grid.num_locales(); ++l) {
    const auto bi = base.local(l).domain().indices();
    const auto si = shed.local(l).domain().indices();
    EXPECT_TRUE(std::equal(si.begin(), si.end(), bi.begin(), bi.end()))
        << "l=" << l;
    const auto bv = base.local(l).values();
    const auto sv = shed.local(l).values();
    EXPECT_TRUE(std::equal(sv.begin(), sv.end(), bv.begin(), bv.end()))
        << "l=" << l;
  }
}

}  // namespace
}  // namespace pgb
