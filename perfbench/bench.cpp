// pgb_perfbench — the repository's end-to-end benchmark driver.
//
// Runs one seeded workload against the library, in one process on one
// host thread, and prints its metrics as the last stdout line:
//
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
//   pgb_perfbench --workload bfs-solo|serve-mixed|ingest-chaos
//                 --seed N --seconds S --trace 0|1 [--size full|tiny]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up is
// repeated and its median reported, then measured passes repeat until
// --seconds have passed (at least one pass, and at least the modeled
// sample for bfs-solo). --trace 1 reports the per-layer metrics: one
// untraced pass, the same work again with an obs::TraceSession attached
// and the driver's own spans around every public call, then one more
// untraced pass; traced wall over the faster untraced wall is the
// tracing overhead.
//
// Every result is checked, outside the timed region, against a
// sequential reference (bfs-solo, serve-mixed) or the fault-free
// published graph (ingest-chaos). Modeled figures are pure functions of
// the seed: repeated passes, and the traced against the untraced pass,
// must agree bit for bit. A failed check sets "correct": false and the
// exit code to 1. The metric names and units are declared once, in the
// kE2e / kLayer tables below; BENCHMARK.json lists the same names.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "algo/bfs.hpp"
#include "fault/fault.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "host_spans.hpp"
#include "ingest/ingest.hpp"
#include "obs/trace.hpp"
#include "reference.hpp"
#include "service/service.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using pgb::CommStats;
using pgb::DistCsr;
using pgb::LocaleGrid;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- output --

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one (--trace 0).
const MetricDef kE2e[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"query_host_ms", "ms"},
    {"host_mteps", "Medges/s"},
    {"query_latency_ms.p50", "ms"},
};

/// Per-layer metrics (--trace 1); 0 on a workload that bypasses the
/// layer.
const MetricDef kLayer[] = {
    // workload-specific end-to-end figures
    {"bfs_host_ms.p50", "ms"},
    {"bfs_modeled_ms.p50", "ms"},
    {"query_latency_ms.p90", "ms"},
    {"capacity_qps", "1/s"},
    {"failed_frac", "fraction"},
    {"ingest_host_ms", "ms"},
    {"ingest_ack_ms.p50", "ms"},
    {"recovery_lost_ms", "ms"},
    // gen, sparse
    {"gen.host_s", "s"},
    {"sparse.build_host_s", "s"},
    {"sparse.nnz", "count"},
    {"sparse.bytes_computed", "bytes"},
    // algo
    {"algo.bfs_step.host_ms.p50", "ms"},
    {"algo.bfs.levels", "count"},
    {"algo.bfs.edges", "count"},
    // core
    {"core.spmspv.gather.host_s", "s"},
    {"core.spmspv.local.host_s", "s"},
    {"core.spmspv.scatter.host_s", "s"},
    {"core.spmspv.spa.host_s", "s"},
    {"core.spmspv.sort.host_s", "s"},
    {"core.spmspv.gather.modeled_ms", "ms"},
    {"core.spmspv.local.modeled_ms", "ms"},
    {"core.spmspv.scatter.modeled_ms", "ms"},
    // runtime
    {"runtime.comm.messages", "count"},
    {"runtime.comm.bytes", "bytes"},
    {"runtime.comm.bulks", "count"},
    {"runtime.comm.agg_flushes", "count"},
    {"runtime.agg.occupancy.mean", "count"},
    {"runtime.barrier_wait.modeled_ms", "ms"},
    {"runtime.inspector.decisions", "count"},
    {"runtime.inspector.cache_hit_frac", "fraction"},
    {"runtime.inspector.mispriced_frac", "fraction"},
    // service
    {"service.submit.host_us.p50", "us"},
    {"service.step.host_ms.p50", "ms"},
    {"service.step.host_ms.bfs", "ms"},
    {"service.step.host_ms.sssp", "ms"},
    {"service.step.host_ms.pagerank_subgraph", "ms"},
    {"service.step.host_ms.ego_net", "ms"},
    {"service.batches", "count"},
    {"service.batch_width.mean", "count"},
    {"service.fused_frac", "fraction"},
    {"service.queue_wait_ms.p50", "ms"},
    {"service.exec_ms.p50", "ms"},
    {"service.retries", "count"},
    {"service.shed", "count"},
    {"service.expired", "count"},
    {"service.generator_late_ms.max", "ms"},
    // ingest
    {"ingest.apply.host_ms.p50", "ms"},
    {"ingest.publish.host_ms.p50", "ms"},
    {"ingest.compact.host_ms", "ms"},
    {"ingest.apply.modeled_ms.p50", "ms"},
    {"ingest.publish.modeled_ms.p50", "ms"},
    {"ingest.deltas", "count"},
    {"ingest.compactions", "count"},
    {"ingest.log_bytes", "bytes"},
    {"ingest.base_bytes", "bytes"},
    {"ingest.pinned_versions.max", "count"},
    // fault
    {"fault.rebuild.host_s", "s"},
    {"fault.bytes_restored", "bytes"},
    {"fault.degraded_locales", "count"},
    {"ingest.replays", "count"},
    {"ingest.pages_replayed", "count"},
    {"ingest.pages_discarded", "count"},
    // layer self time and conservation
    {"layer.algo.self_s", "s"},
    {"layer.core.self_s", "s"},
    {"layer.runtime.self_s", "s"},
    {"layer.service.self_s", "s"},
    {"layer.ingest.self_s", "s"},
    {"layer.fault.self_s", "s"},
    {"obs.coverage_frac", "fraction"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.spans", "count"},
};

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct() const { return correct_; }

  /// Prints the result line with exactly the metrics of `defs`.
  template <std::size_t N>
  void print(const MetricDef (&defs)[N]) const {
    std::string out = std::string("{\"correct\": ") +
                      (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < N; ++i) {
      const auto it = values_.find(defs[i].name);
      const double v = it == values_.end() ? 0.0 : it->second;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
      out += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

// ----------------------------------------------------------------- stats --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}
double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Accumulates host time over the segments of a loop that belong to the
/// workload (checks and bookkeeping run between segments).
class Stopwatch {
 public:
  void start() { t0_ = Clock::now(); }
  void stop() { total_ += seconds_since(t0_); }
  double total() const { return total_; }

 private:
  Clock::time_point t0_{};
  double total_ = 0.0;
};

/// Sum of a registry counter family over all label sets.
std::int64_t counter_family(const pgb::obs::MetricsSnapshot& snap,
                            const std::string& name) {
  std::int64_t total = 0;
  for (const auto& [key, v] : snap.values) {
    if (v.kind != pgb::obs::MetricKind::kCounter) continue;
    if (key == name || key.rfind(name + "{", 0) == 0) total += v.counter;
  }
  return total;
}

/// splitmix64: the workload's own generator, so inputs depend on nothing
/// but the seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit() {  // (0, 1]
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
  }
};

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
template <typename T>
std::uint64_t fnv_vec(const std::vector<T>& v,
                      std::uint64_t h = 0xcbf29ce484222325ull) {
  return fnv(h, v.data(), v.size() * sizeof(T));
}

std::uint64_t bfs_hash(const pgb::BfsResult& r) {
  return fnv_vec(r.level_sizes, fnv_vec(r.parent));
}

// ------------------------------------------------------------- workloads --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// Row degrees of the distributed graph (nnz per global row).
std::vector<pgb::Index> row_degrees(const DistCsr<double>& a) {
  std::vector<pgb::Index> deg(static_cast<std::size_t>(a.nrows()), 0);
  for (int l = 0; l < a.grid().num_locales(); ++l) {
    const auto& b = a.block(l);
    for (pgb::Index r = 0; r < b.csr.nrows(); ++r) {
      deg[static_cast<std::size_t>(b.rlo + r)] +=
          static_cast<pgb::Index>(b.csr.row_colids(r).size());
    }
  }
  return deg;
}

std::int64_t csr_bytes(const DistCsr<double>& a) {
  std::int64_t b = 0;
  for (int l = 0; l < a.grid().num_locales(); ++l) {
    const auto& c = a.block(l).csr;
    b += static_cast<std::int64_t>(c.rowptr().size() * sizeof(pgb::Index) +
                                   c.colids().size() * sizeof(pgb::Index) +
                                   c.values().size() * sizeof(double));
  }
  return b;
}

std::unique_ptr<LocaleGrid> make_grid(int nodes) {
  return std::make_unique<LocaleGrid>(LocaleGrid::square(nodes, 24));
}

/// Modeled seconds spent in grid-wide spans of `name` (locale track 0).
double modeled_span_s(const pgb::obs::TraceSession& s, const std::string& name) {
  double t = 0.0;
  for (const auto& e : s.spans()) {
    if (e.track == 0 && e.name == name) t += e.sim_end - e.sim_begin;
  }
  return t;
}

/// Fills the per-layer figures every traced pass yields: self times by
/// layer and span, modeled phase times, comm per op, the conservation
/// checks shared by all workloads.
void report_traced(Report& rep, LocaleGrid& grid, const CallLog& log,
                   const pgb::obs::TraceSession& session, double wall_s,
                   double ops) {
  const SelfTimes st = analyze(log.spans(), session, grid.num_locales());
  std::map<std::string, double> layer_s;
  for (const auto& [name, us] : st.self_us) layer_s[layer_of(name)] += us * 1e-6;
  for (const char* l :
       {"algo", "core", "runtime", "service", "ingest", "fault"}) {
    rep.set(std::string("layer.") + l + ".self_s", layer_s[l]);
  }
  const auto self_s = [&](const char* n) {
    const auto it = st.self_us.find(n);
    return it == st.self_us.end() ? 0.0 : it->second * 1e-6;
  };
  const auto total_s = [&](const char* n) {
    const auto it = st.total_us.find(n);
    return it == st.total_us.end() ? 0.0 : it->second * 1e-6;
  };
  rep.set("core.spmspv.gather.host_s", self_s("spmspv.gather"));
  rep.set("core.spmspv.local.host_s", self_s("spmspv.local"));
  rep.set("core.spmspv.scatter.host_s", self_s("spmspv.scatter"));
  rep.set("core.spmspv.spa.host_s", total_s("spmspv.spa"));
  rep.set("core.spmspv.sort.host_s", total_s("spmspv.sort"));
  rep.set("ingest.compact.host_ms", total_s("ingest.compact") * 1e3);
  rep.set("fault.rebuild.host_s",
          total_s("recovery.rebuild") + total_s("ingest.replay"));
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  for (const char* ph : {"gather", "local", "scatter"}) {
    rep.set(std::string("core.spmspv.") + ph + ".modeled_ms",
            modeled_span_s(session, std::string("spmspv.") + ph) * 1e3 *
                per_op);
  }
  double barrier = 0.0;
  for (const auto& e : session.spans()) {
    if (e.track < grid.num_locales() && e.name == "barrier") {
      barrier += e.sim_end - e.sim_begin;
    }
  }
  rep.set("runtime.barrier_wait.modeled_ms",
          barrier / grid.num_locales() * 1e3 * per_op);

  // Conservation: the calls' comm deltas are the grid's totals, and the
  // layer self times account for the measured wall.
  const CommStats total = grid.comm_stats();
  rep.check(log.comm() == total,
            "per-call comm deltas do not sum to the grid totals");
  rep.set("runtime.comm.messages", static_cast<double>(total.messages) * per_op);
  rep.set("runtime.comm.bytes", static_cast<double>(total.bytes) * per_op);
  rep.set("runtime.comm.bulks", static_cast<double>(total.bulks) * per_op);
  rep.set("runtime.comm.agg_flushes",
          static_cast<double>(total.agg_flushes) * per_op);
  double layers = 0.0;
  for (const auto& [l, s] : layer_s) layers += s;
  const double coverage = layers / wall_s;
  rep.set("obs.coverage_frac", coverage);
  rep.check(std::abs(layers - st.roots_us * 1e-6) <= 1e-6 * layers + 1e-6,
            "layer self times do not sum to the top-level span time");
  // The top-level spans are the driver's public calls; what they leave
  // uncovered is the driver's own loop. Tolerance: 5% of the wall.
  rep.check(coverage >= 0.95 && coverage <= 1.0 + 1e-3,
            "layer self times cover " + std::to_string(coverage) +
                " of the measured wall (want 0.95..1)");
  rep.check(layer_s.count("other") == 0 || layer_s["other"] == 0.0,
            "spans outside every known layer");

  const auto snap = grid.metrics().snapshot();
  const auto* put = grid.metrics().find_histogram("agg.occupancy",
                                                  {{"dir", "put"}});
  const auto* get = grid.metrics().find_histogram("agg.occupancy",
                                                  {{"dir", "get"}});
  const double occ_n = (put ? put->count : 0) + (get ? get->count : 0);
  const double occ_s = (put ? put->sum : 0) + (get ? get->sum : 0);
  rep.set("runtime.agg.occupancy.mean", occ_n > 0 ? occ_s / occ_n : 0.0);
  const double decisions =
      static_cast<double>(counter_family(snap, "inspector.decisions"));
  const double hits =
      static_cast<double>(counter_family(snap, "inspector.cache.hits"));
  const double installs =
      static_cast<double>(counter_family(snap, "inspector.cache.installs"));
  rep.set("runtime.inspector.decisions", decisions);
  rep.set("runtime.inspector.cache_hit_frac",
          hits + installs > 0 ? hits / (hits + installs) : 0.0);
  rep.set("runtime.inspector.mispriced_frac",
          decisions > 0 ? static_cast<double>(counter_family(
                              snap, "inspector.mispriced")) /
                              decisions
                        : 0.0);
  rep.set("obs.spans", static_cast<double>(st.spans));
}

// ---- bfs-solo -------------------------------------------------------------

struct BfsSoloConfig {
  int nodes = 64;
  pgb::Index n = 262144;
  double d = 16.0;
  int sample = 8;  ///< BFS calls whose modeled time is reported
  int setups = 3;
};

struct BfsPass {
  std::vector<pgb::Index> sources;
  std::vector<std::uint64_t> hashes;
  std::vector<double> host_ms, modeled_ms, edges, levels;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< after the first `min_calls` calls
};

/// Solo BFS calls, driven as bfs_init + bfs_step so each level is one
/// timed public call. Runs `count` calls, or — with count < 0 — until
/// `seconds` have passed and at least `min_calls` were made.
BfsPass bfs_pass(LocaleGrid& grid, const DistCsr<double>& a,
                 const std::vector<pgb::Index>& deg, std::uint64_t seed,
                 int count, int min_calls, double seconds, CallLog& log) {
  pgb::SpmspvOptions opt;
  opt.comm = pgb::CommMode::kAggregated;
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull};
  BfsPass p;
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    if (count >= 0 ? i >= count
                   : i >= min_calls && seconds_since(t0) >= seconds) {
      break;
    }
    const pgb::Index s =
        static_cast<pgb::Index>(rng.next() % static_cast<std::uint64_t>(a.nrows()));
    const double m0 = grid.time();
    const auto w0 = Clock::now();
    std::optional<pgb::BfsState<double>> st;
    double host = log.run("algo.bfs_init()", [&] { st.emplace(pgb::bfs_init(a, s)); });
    while (!st->done) {
      host += log.run("algo.bfs_step()", [&] { pgb::bfs_step(a, *st, opt); });
    }
    p.wall_s += seconds_since(w0);
    p.sources.push_back(s);
    p.host_ms.push_back(host * 1e3);
    p.modeled_ms.push_back((grid.time() - m0) * 1e3);
    p.hashes.push_back(bfs_hash(st->res));
    double e = 0.0;
    for (std::size_t v = 0; v < st->res.parent.size(); ++v) {
      if (st->res.parent[v] != -1) e += static_cast<double>(deg[v]);
    }
    p.edges.push_back(e);
    p.levels.push_back(static_cast<double>(st->res.level_sizes.size()));
    // Memory is read at a fixed point of the work, not of the clock:
    // later calls only add allocator churn, and how many run depends on
    // the host's speed.
    if (i + 1 == min_calls) p.peak_rss_mb = peak_rss_mb();
  }
  return p;
}

void verify_bfs(Report& rep, const DistCsr<double>& a, const BfsPass& p) {
  const pgb::Csr<double> g = a.to_local();
  std::map<pgb::Index, std::uint64_t> ref;
  for (std::size_t i = 0; i < p.sources.size(); ++i) {
    const pgb::Index s = p.sources[i];
    if (!ref.count(s)) {
      const SeqBfs b = seq_bfs(g, s);
      ref[s] = fnv_vec(b.level_sizes, fnv_vec(b.parent));
    }
    rep.check(ref[s] == p.hashes[i],
              "bfs from " + std::to_string(s) +
                  ": parents/levels differ from the sequential BFS");
  }
}

void run_bfs_solo(const Args& args, Report& rep) {
  BfsSoloConfig cfg;
  if (args.tiny) {
    cfg.nodes = 16;
    cfg.n = 4096;
    cfg.d = 8.0;
    cfg.sample = 4;
    cfg.setups = 2;
  }
  std::vector<double> setup_s;
  std::unique_ptr<LocaleGrid> grid;
  std::optional<DistCsr<double>> a;
  for (int i = 0; i < (args.trace ? 1 : cfg.setups); ++i) {
    a.reset();
    grid = make_grid(cfg.nodes);
    const auto t0 = Clock::now();
    a.emplace(pgb::erdos_renyi_dist<double>(*grid, cfg.n, cfg.d, args.seed));
    setup_s.push_back(seconds_since(t0));
  }
  const std::vector<pgb::Index> deg = row_degrees(*a);
  rep.set("setup_s", median(setup_s));
  // erdos_renyi_dist generates and distributes in one call.
  rep.set("gen.host_s", median(setup_s));
  rep.set("sparse.nnz", static_cast<double>(a->nnz()));
  rep.set("sparse.bytes_computed", static_cast<double>(csr_bytes(*a)));

  grid->reset();
  CallLog log(*grid, nullptr);
  const BfsPass p = bfs_pass(*grid, *a, deg, args.seed,
                             args.trace ? cfg.sample : -1, cfg.sample,
                             args.seconds, log);
  rep.set("peak_rss_mb", p.peak_rss_mb);
  rep.attempted = static_cast<std::int64_t>(p.sources.size());
  const std::vector<double> sample(p.modeled_ms.begin(),
                                   p.modeled_ms.begin() + cfg.sample);
  rep.set("query_host_ms", median(p.host_ms));
  rep.set("host_mteps", sum(p.edges) / (sum(p.host_ms) * 1e-3) / 1e6);
  rep.set("query_latency_ms.p50", median(sample));
  rep.set("bfs_host_ms.p50", median(p.host_ms));
  rep.set("bfs_modeled_ms.p50", median(sample));
  rep.set("query_latency_ms.p90", quantile(sample, 0.9));
  rep.set("capacity_qps", cfg.sample / (sum(sample) * 1e-3));
  rep.set("algo.bfs.levels", mean(p.levels));
  rep.set("algo.bfs.edges", mean(p.edges));

  if (args.trace) {
    pgb::obs::TraceSession session;
    grid->set_trace_session(&session);
    grid->reset();
    CallLog tlog(*grid, &session);
    const BfsPass t = bfs_pass(*grid, *a, deg, args.seed, cfg.sample,
                               cfg.sample, 0.0, tlog);
    rep.check(t.modeled_ms == p.modeled_ms && t.hashes == p.hashes,
              "traced pass differs from the untraced pass");
    rep.set("algo.bfs_step.host_ms.p50",
            median(tlog.host_s().at("algo.bfs_step()")) * 1e3);
    report_traced(rep, *grid, tlog, session, t.wall_s,
                  static_cast<double>(t.sources.size()));
    grid->set_trace_session(nullptr);
    // Overhead base: the faster of the untraced passes before and after
    // the traced one, so warm-up does not read as negative overhead.
    grid->reset();
    CallLog ulog(*grid, nullptr);
    const BfsPass u = bfs_pass(*grid, *a, deg, args.seed, cfg.sample,
                               cfg.sample, 0.0, ulog);
    rep.set("obs.trace_overhead_frac",
            t.wall_s / std::min(p.wall_s, u.wall_s) - 1.0);
  }
  verify_bfs(rep, *a, p);
}

// ---- serve-mixed and ingest-chaos ----------------------------------------

struct ServeConfig {
  int nodes = 64;
  // graph
  bool rmat = true;
  int rmat_scale = 16;
  pgb::Index n = 50000;
  double d = 8.0;
  // traffic
  int tenants = 3;
  std::int64_t mix_bfs = 6, mix_sssp = 3, mix_pr = 1, mix_ego = 2;
  pgb::Index depth = 2;
  int batch_max = 16;
  int queue_depth = 64;
  int retry_max = 3;
  int steady_queries = 100;
  /// Open-loop offered rate: one arrival every 1/steady_qps simulated
  /// seconds, whether or not earlier queries have finished.
  double steady_qps = 10.0;
  int burst = 0;             ///< queries offered at once after steady
  // ingest + chaos
  int ingest_batches = 0;
  double ingest_rate = 100.0;  ///< batches per simulated second
  int ingest_batch = 64;
  std::int64_t compact_every = 8192;
  int kill_locale = -1;
  double kill_at = 0.0;
  int setups = 3;
};

/// One served query, kept for the checks after the pass.
struct Served {
  pgb::QueryKind kind = pgb::QueryKind::kBfs;
  pgb::Index source = 0;
  std::uint64_t hash = 0;
  std::vector<double> rank;
  std::int64_t id = -1;
  double arrival = 0.0, completion = 0.0;
};

struct ServePass {
  std::vector<Served> served;
  std::vector<double> latency_ms;  ///< due -> completion, steady phase
  double capacity_qps = 0.0;
  std::int64_t offered = 0, shed = 0, expired = 0, retries = 0;
  double generator_late_s = 0.0;
  double edges = 0.0;
  double wall_s = 0.0;
  std::map<std::string, std::vector<double>> step_host_ms;  // by kind
  std::vector<double> ingest_host_ms, apply_modeled_ms, publish_modeled_ms,
      ack_ms;
  std::int64_t pinned_max = 0;
  int degraded_locales = 0;  ///< logical locales remapped at the end
  std::uint64_t final_hash = 0;
  pgb::IngestStats ingest;
  pgb::RecoveryReport recovery;
  std::int64_t batches = 0, batched_queries = 0;
  double batch_width_mean = 0.0;
  /// Every modeled figure of the pass, for bit-exact comparisons.
  std::vector<double> modeled() const {
    std::vector<double> m = latency_ms;
    m.push_back(capacity_qps);
    m.insert(m.end(), ack_ms.begin(), ack_ms.end());
    m.push_back(recovery.sim_time_lost);
    m.push_back(static_cast<double>(final_hash));
    for (const auto& s : served) m.push_back(s.completion);
    return m;
  }
};

struct Event {
  double at = 0.0;
  std::uint64_t seq = 0;
  int attempts = 0;
  double due = 0.0;
  bool steady = true;
  pgb::QuerySpec spec;
};
struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// Query kinds in exact mix proportions: each deck holds every kind its
/// weight's number of times, in a seeded shuffle, so the mix of a run
/// does not drift with the seed.
class KindDeck {
 public:
  explicit KindDeck(const ServeConfig& c) {
    const std::pair<pgb::QueryKind, std::int64_t> w[] = {
        {pgb::QueryKind::kBfs, c.mix_bfs},
        {pgb::QueryKind::kSssp, c.mix_sssp},
        {pgb::QueryKind::kPagerankSubgraph, c.mix_pr},
        {pgb::QueryKind::kEgoNet, c.mix_ego}};
    for (const auto& [kind, n] : w) deck_.insert(deck_.end(), n, kind);
    next_ = deck_.size();
  }
  pgb::QueryKind draw(Rng& rng) {
    if (next_ == deck_.size()) {
      for (std::size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng.next() % i]);
      }
      next_ = 0;
    }
    return deck_[next_++];
  }

 private:
  std::vector<pgb::QueryKind> deck_;
  std::size_t next_ = 0;
};

pgb::ServiceConfig service_config(const ServeConfig& c, pgb::FaultPlan* plan,
                                  pgb::RecoveryReport* report) {
  pgb::ServiceConfig cfg;
  cfg.queue_depth = c.queue_depth;
  cfg.batch_max = c.batch_max;
  cfg.spmspv.comm = pgb::CommMode::kAuto;
  if (plan != nullptr) {
    cfg.plan = plan;
    cfg.rebuild.mode = pgb::RebuildMode::kDegraded;
    cfg.rebuild.replica.scheme = pgb::ReplicaScheme::kBuddy;
    cfg.rebuild.keep_membership = true;
    cfg.report = report;
  }
  return cfg;
}

pgb::IngestOptions ingest_options(const ServeConfig& c) {
  pgb::IngestOptions o;
  o.compact_every = c.compact_every;
  return o;
}

std::unique_ptr<pgb::FaultPlan> make_plan(const ServeConfig& c,
                                          std::uint64_t seed) {
  if (c.kill_locale < 0) return nullptr;
  char spec[96];
  std::snprintf(spec, sizeof spec, "kill:locale=%d,at=%.17g", c.kill_locale,
                c.kill_at);
  return std::make_unique<pgb::FaultPlan>(pgb::FaultSpec::parse(spec), seed);
}

pgb::MutationRng mutation_rng(std::uint64_t seed) {
  return pgb::MutationRng{seed * 0xa0761d6478bd642full + 0xe7037ed1a0b428dbull};
}

pgb::IngestMix ingest_mix() {
  pgb::IngestMix m;
  m.insert = 9;
  m.erase = 1;
  return m;
}

/// One pass of the serving workload on a freshly reset grid: the steady
/// constant-rate phase (with ingest batches interleaved when configured),
/// then the burst phase. Mirrors tools/pgb_serve's client loop.
ServePass serve_pass(LocaleGrid& grid, const DistCsr<double>& a,
                     const std::vector<pgb::Index>& deg, const ServeConfig& c,
                     std::uint64_t seed, CallLog& log) {
  ServePass p;
  // Per-pass set-up (timed as setup_s, not here): a fresh service, the
  // graph loaded, the ingest stream's base replicated. The grid reset
  // after it starts the measured pass from zeroed clocks and counters.
  std::unique_ptr<pgb::FaultPlan> plan = make_plan(c, seed);
  pgb::GraphService svc(grid, service_config(c, plan.get(), &p.recovery));
  const pgb::GraphStore::HandleId h =
      svc.store().load(std::make_shared<DistCsr<double>>(a));
  std::optional<pgb::IngestStream> stream;
  if (c.ingest_batches > 0) {
    stream.emplace(grid, svc.store(), h, a, ingest_options(c));
    svc.set_rebuild_hook(
        [&](int logical) { stream->recover_after_rebuild(logical); });
  }
  grid.reset();
  if (plan) grid.set_fault_plan(plan.get());

  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull};
  Rng retry_rng{seed * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull};
  pgb::MutationRng mrng = mutation_rng(seed);
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  KindDeck deck(c);
  const auto make_event = [&](double at, bool steady) {
    Event e;
    e.at = e.due = at;
    e.seq = seq++;
    e.steady = steady;
    e.spec.kind = deck.draw(rng);
    // Users ask about vertices that exist: sources have an edge.
    do {
      e.spec.source = static_cast<pgb::Index>(
          rng.next() % static_cast<std::uint64_t>(a.nrows()));
    } while (deg[static_cast<std::size_t>(e.spec.source)] == 0);
    e.spec.depth = c.depth;
    e.spec.tenant =
        static_cast<int>(rng.next() % static_cast<std::uint64_t>(c.tenants));
    return e;
  };
  double t = 0.0;
  for (int i = 0; i < c.steady_queries; ++i) {
    t += 1.0 / c.steady_qps;
    events.push(make_event(t, true));
  }
  std::map<std::int64_t, Event> admitted;  // record id -> its event
  int next_ingest = 0;
  bool burst_started = c.burst == 0;
  double burst_t0 = 0.0, burst_end = 0.0;

  // sw times the serve loop; digests of the results for the checks are
  // taken with it stopped.
  Stopwatch sw;
  std::int64_t next_harvest = 0;
  const auto harvest = [&] {
    std::string kind = "none";
    while (next_harvest < svc.records_retired() + svc.records_live()) {
      const pgb::QueryRecord& rec = svc.record(next_harvest);
      if (rec.state == pgb::QueryState::kQueued) break;
      sw.stop();
      const Event& ev = admitted.at(rec.id);
      if (rec.state == pgb::QueryState::kDone) {
        kind = pgb::to_string(rec.kind);
        Served s;
        s.kind = rec.kind;
        s.source = ev.spec.source;
        s.id = rec.id;
        s.arrival = rec.arrival;
        s.completion = rec.completion;
        const pgb::QueryResult& r = rec.result;
        switch (rec.kind) {
          case pgb::QueryKind::kBfs:
            s.hash = bfs_hash(r.bfs);
            for (std::size_t v = 0; v < r.bfs.parent.size(); ++v) {
              if (r.bfs.parent[v] != -1) p.edges += deg[v];
            }
            break;
          case pgb::QueryKind::kSssp:
            s.hash = fnv_vec(r.sssp.dist);
            for (std::size_t v = 0; v < r.sssp.dist.size(); ++v) {
              if (r.sssp.dist[v] != pgb::SsspResult::kUnreachable) {
                p.edges += deg[v];
              }
            }
            break;
          case pgb::QueryKind::kPagerankSubgraph:
            s.rank = r.rank;
            [[fallthrough]];
          case pgb::QueryKind::kEgoNet:
            s.hash = fnv_vec(r.ego);
            for (pgb::Index v : r.ego) p.edges += deg[static_cast<std::size_t>(v)];
            break;
        }
        if (ev.steady) {
          p.latency_ms.push_back((rec.completion - ev.due) * 1e3);
        } else {
          burst_end = std::max(burst_end, rec.completion);
        }
        p.served.push_back(std::move(s));
      } else {
        ++p.expired;
      }
      sw.start();
      log.run("service.release()", [&] { svc.release(next_harvest); });
      ++next_harvest;
    }
    return kind;
  };

  sw.start();
  for (;;) {
    if (events.empty() && svc.queue_size() == 0 &&
        next_ingest >= c.ingest_batches) {
      if (burst_started) break;
      // Burst phase: a block of queries offered at once, after the
      // steady phase has drained.
      burst_started = true;
      burst_t0 = grid.time();
      for (int i = 0; i < c.burst; ++i) events.push(make_event(burst_t0, false));
    }
    const double now = grid.time();
    if (next_ingest < c.ingest_batches) {
      const double at = static_cast<double>(next_ingest + 1) / c.ingest_rate;
      const double next_event_at = events.empty() ? -1.0 : events.top().at;
      if (at <= now || (svc.queue_size() == 0 &&
                        (events.empty() || at <= next_event_at))) {
        const pgb::MutationBatch b = pgb::make_mutation_batch(
            mrng, a.nrows(), c.ingest_batch, ingest_mix(), next_ingest + 1);
        // A batch cannot be applied before it is due: an idle service
        // waits for it, as it waits for a query's arrival.
        for (int l = 0; l < grid.num_locales(); ++l) {
          grid.clock(l).advance_to(at);
        }
        const double m0 = grid.time();
        double host = log.run("ingest.apply()", [&] { stream->apply(b); });
        const double m1 = grid.time();
        host += log.run("ingest.publish()", [&] { stream->publish(); });
        const double m2 = grid.time();
        sw.stop();
        p.ingest_host_ms.push_back(host * 1e3);
        p.apply_modeled_ms.push_back((m1 - m0) * 1e3);
        p.publish_modeled_ms.push_back((m2 - m1) * 1e3);
        p.ack_ms.push_back((m2 - at) * 1e3);
        p.pinned_max = std::max(p.pinned_max, svc.store().retired_live());
        sw.start();
        ++next_ingest;
        continue;
      }
    }
    while (!events.empty() &&
           (events.top().at <= now || svc.queue_size() == 0)) {
      Event ev = events.top();
      events.pop();
      if (ev.attempts == 0) ++p.offered;
      p.generator_late_s = std::max(p.generator_late_s, now - ev.at);
      pgb::GraphService::Submitted s;
      log.run("service.submit()",
              [&] { s = svc.submit(h, ev.spec, ev.at); });
      if (s.code == pgb::AdmitCode::kAdmitted) {
        admitted.emplace(s.id, ev);
      } else if (s.code == pgb::AdmitCode::kQueueFull &&
                 ev.attempts < c.retry_max) {
        const double backoff = s.retry_after_s * std::pow(2.0, ev.attempts) *
                               (0.75 + 0.5 * retry_rng.unit());
        ev.at = std::max(ev.at, now) + backoff;
        ev.seq = seq++;
        ++ev.attempts;
        ++p.retries;
        events.push(ev);
      } else {
        ++p.shed;
      }
    }
    const double step_s = log.run("service.step()", [&] { svc.step(); });
    const std::string kind = harvest();
    sw.stop();
    p.step_host_ms[kind].push_back(step_s * 1e3);
    sw.start();
  }
  harvest();
  sw.stop();
  p.wall_s = sw.total();
  if (c.burst > 0) p.capacity_qps = c.burst / (burst_end - burst_t0);
  if (stream) {
    p.ingest = stream->stats();
    p.final_hash = pgb::ingest_graph_hash(*svc.store().snapshot(h).graph);
  }
  const auto& mx = grid.metrics();
  if (const auto* b = mx.find_counter("service.batches")) p.batches = b->value;
  if (const auto* b = mx.find_counter("service.batched_queries")) {
    p.batched_queries = b->value;
  }
  if (const auto* w = mx.find_histogram("service.batch.width")) {
    p.batch_width_mean = w->mean();
  }
  p.degraded_locales = svc.health().degraded_locales;
  grid.set_fault_plan(nullptr);
  return p;
}

/// Every served query against its sequential reference (static graph).
void verify_served(Report& rep, const DistCsr<double>& a, const ServeConfig& c,
                   const ServePass& p) {
  const pgb::Csr<double> g = a.to_local();
  const pgb::QuerySpec defaults;
  for (const Served& s : p.served) {
    const std::string what = std::string(pgb::to_string(s.kind)) + " query " +
                             std::to_string(s.id) + " from " +
                             std::to_string(s.source);
    switch (s.kind) {
      case pgb::QueryKind::kBfs: {
        const SeqBfs b = seq_bfs(g, s.source);
        rep.check(fnv_vec(b.level_sizes, fnv_vec(b.parent)) == s.hash,
                  what + ": differs from the sequential BFS");
        break;
      }
      case pgb::QueryKind::kSssp:
        rep.check(fnv_vec(seq_dijkstra(g, s.source)) == s.hash,
                  what + ": differs from Dijkstra");
        break;
      case pgb::QueryKind::kEgoNet:
        rep.check(fnv_vec(seq_ego(g, s.source, c.depth)) == s.hash,
                  what + ": differs from the sequential ego set");
        break;
      case pgb::QueryKind::kPagerankSubgraph: {
        const std::vector<pgb::Index> ego = seq_ego(g, s.source, c.depth);
        rep.check(fnv_vec(ego) == s.hash,
                  what + ": ego set differs from the sequential one");
        const std::vector<double> want = seq_pagerank(
            g, ego, defaults.damping, defaults.tol, defaults.max_iters);
        bool close = want.size() == s.rank.size();
        for (std::size_t i = 0; close && i < want.size(); ++i) {
          close = std::abs(want[i] - s.rank[i]) <= 1e-6;
        }
        rep.check(close, what + ": pagerank differs by more than 1e-6");
        break;
      }
    }
  }
}

/// The published graph after a fault-free replay of the same mutation
/// stream; the chaos pass must end on exactly this graph.
std::uint64_t fault_free_hash(LocaleGrid& grid, const DistCsr<double>& a,
                              const ServeConfig& c, std::uint64_t seed) {
  grid.reset();
  pgb::GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  pgb::IngestStream stream(grid, store, h, a, ingest_options(c));
  pgb::MutationRng mrng = mutation_rng(seed);
  for (int k = 0; k < c.ingest_batches; ++k) {
    stream.apply(pgb::make_mutation_batch(mrng, a.nrows(), c.ingest_batch,
                                          ingest_mix(), k + 1));
    stream.publish();
  }
  return pgb::ingest_graph_hash(*store.snapshot(h).graph);
}

struct ServeSetup {
  std::unique_ptr<LocaleGrid> grid;
  std::optional<DistCsr<double>> a;
};

/// Generate + distribute + load (+ the ingest stream's base replication),
/// `reps` times; returns the last graph and fills the timing metrics.
ServeSetup serve_setup(const ServeConfig& c, std::uint64_t seed, int reps,
                       Report& rep) {
  ServeSetup out;
  std::vector<double> total, gen, build;
  for (int i = 0; i < reps; ++i) {
    out.a.reset();
    out.grid = make_grid(c.nodes);
    LocaleGrid& grid = *out.grid;
    const auto t0 = Clock::now();
    double g = 0.0;
    if (c.rmat) {
      pgb::RmatParams rp;
      rp.scale = c.rmat_scale;
      rp.seed = seed;
      const auto m = pgb::rmat_csr(rp);
      pgb::Coo<double> coo(m.nrows(), m.ncols());
      for (pgb::Index r = 0; r < m.nrows(); ++r) {
        for (pgb::Index col : m.row_colids(r)) coo.add(r, col, 1.0);
      }
      g = seconds_since(t0);
      const auto t1 = Clock::now();
      out.a.emplace(DistCsr<double>::from_coo(grid, coo));
      build.push_back(seconds_since(t1));
    } else {
      out.a.emplace(pgb::erdos_renyi_dist<double>(grid, c.n, c.d, seed));
      g = seconds_since(t0);
      build.push_back(0.0);
    }
    gen.push_back(g);
    pgb::GraphService svc(grid, service_config(c, nullptr, nullptr));
    const auto h = svc.store().load(std::make_shared<DistCsr<double>>(*out.a));
    if (c.ingest_batches > 0) {
      pgb::IngestStream stream(grid, svc.store(), h, *out.a, ingest_options(c));
    }
    total.push_back(seconds_since(t0));
  }
  rep.set("setup_s", median(total));
  rep.set("gen.host_s", median(gen));
  rep.set("sparse.build_host_s", median(build));
  rep.set("sparse.nnz", static_cast<double>(out.a->nnz()));
  rep.set("sparse.bytes_computed", static_cast<double>(csr_bytes(*out.a)));
  return out;
}

void report_serve(Report& rep, const ServeConfig& c, const ServePass& p) {
  rep.attempted = p.offered;
  rep.failed = p.shed + p.expired;
  rep.set("query_latency_ms.p50", median(p.latency_ms));
  rep.set("query_latency_ms.p90", quantile(p.latency_ms, 0.9));
  rep.set("capacity_qps", p.capacity_qps);
  rep.set("failed_frac", p.offered > 0 ? static_cast<double>(rep.failed) /
                                             static_cast<double>(p.offered)
                                       : 0.0);
  rep.set("service.batches", static_cast<double>(p.batches));
  rep.set("service.batch_width.mean", p.batch_width_mean);
  rep.set("service.fused_frac",
          p.served.empty() ? 0.0
                           : static_cast<double>(p.batched_queries) /
                                 static_cast<double>(p.served.size()));
  rep.set("service.retries", static_cast<double>(p.retries));
  rep.set("service.shed", static_cast<double>(p.shed));
  rep.set("service.expired", static_cast<double>(p.expired));
  rep.set("service.generator_late_ms.max", p.generator_late_s * 1e3);
  if (c.ingest_batches > 0) {
    rep.set("ingest_host_ms", median(p.ingest_host_ms));
    rep.set("ingest_ack_ms.p50", median(p.ack_ms));
    rep.set("ingest.apply.modeled_ms.p50", median(p.apply_modeled_ms));
    rep.set("ingest.publish.modeled_ms.p50", median(p.publish_modeled_ms));
    rep.set("ingest.deltas", static_cast<double>(p.ingest.deltas));
    rep.set("ingest.compactions", static_cast<double>(p.ingest.compactions));
    rep.set("ingest.log_bytes", static_cast<double>(p.ingest.log_bytes));
    rep.set("ingest.base_bytes", static_cast<double>(p.ingest.base_bytes));
    rep.set("ingest.pinned_versions.max", static_cast<double>(p.pinned_max));
    rep.set("ingest.replays", static_cast<double>(p.ingest.replays));
    rep.set("ingest.pages_replayed",
            static_cast<double>(p.ingest.pages_replayed));
    rep.set("ingest.pages_discarded",
            static_cast<double>(p.ingest.pages_discarded));
  }
  rep.set("recovery_lost_ms", p.recovery.sim_time_lost * 1e3);
  rep.set("fault.bytes_restored", static_cast<double>(p.recovery.bytes_restored));
  rep.set("fault.degraded_locales", static_cast<double>(p.degraded_locales));
}

/// Service-side latency split from the per-query trace tracks: the
/// queued + admitted spans (arrival -> batch start) and the fused span
/// (batch start -> completion) must add up to each query's latency.
void report_query_split(Report& rep, const pgb::obs::TraceSession& session,
                        const ServePass& p) {
  struct Split {
    double arrival = -1, start = -1, end = -1;
  };
  std::map<std::int64_t, Split> by_id;
  std::map<int, std::int64_t> track_id;
  for (const auto& e : session.spans()) {
    if (e.name != "query.queued") continue;
    for (const auto& arg : e.args) {
      if (arg.key == "id") track_id[e.track] = std::stoll(arg.value);
    }
  }
  for (const auto& e : session.spans()) {
    const auto it = track_id.find(e.track);
    if (it == track_id.end()) continue;
    Split& s = by_id[it->second];
    if (e.name == "query.queued") s.arrival = e.sim_begin;
    if (e.name == "query.fused") {
      s.start = e.sim_begin;
      s.end = e.sim_end;
    }
  }
  std::vector<double> wait_ms, exec_ms;
  for (const Served& q : p.served) {
    const auto it = by_id.find(q.id);
    if (it == by_id.end() || it->second.start < 0) {
      rep.fail("query " + std::to_string(q.id) + " has no fused span");
      continue;
    }
    const Split& s = it->second;
    const double wait = s.start - s.arrival, exec = s.end - s.start;
    const double lat = q.completion - q.arrival;
    rep.check(std::abs(wait + exec - lat) <= 1e-12 + 1e-9 * lat,
              "query " + std::to_string(q.id) +
                  ": queue wait + exec != latency");
    wait_ms.push_back(wait * 1e3);
    exec_ms.push_back(exec * 1e3);
  }
  rep.set("service.queue_wait_ms.p50", median(wait_ms));
  rep.set("service.exec_ms.p50", median(exec_ms));
}

ServeConfig serve_config(const Args& args) {
  ServeConfig c;
  if (args.workload == "serve-mixed") {
    c.steady_queries = 100;
    c.burst = 48;
    if (args.tiny) {
      c.nodes = 16;
      c.rmat_scale = 10;
      c.steady_queries = 12;
      c.burst = 8;
      c.setups = 2;
    }
  } else {  // ingest-chaos
    c.rmat = false;
    c.n = 50000;
    c.d = 8.0;
    c.mix_bfs = 2;
    c.mix_sssp = 1;
    c.mix_pr = c.mix_ego = 0;
    c.batch_max = 8;
    c.queue_depth = 16;
    c.steady_queries = 100;
    c.steady_qps = 6.0;  // the bfs:2,sssp:1 mix runs heavier batches
    c.ingest_batches = 24;
    c.ingest_rate = 1.5;
    c.compact_every = 512;
    c.kill_locale = 9;
    c.kill_at = 8.25;  // mid-run, inside a query batch
    if (args.tiny) {
      c.nodes = 16;
      c.n = 2000;
      c.steady_queries = 16;
      c.ingest_batches = 6;
      c.compact_every = 128;
      c.kill_at = 1.5;
      c.setups = 2;
    }
  }
  return c;
}

void run_serve(const Args& args, Report& rep) {
  const ServeConfig c = serve_config(args);
  ServeSetup su = serve_setup(c, args.seed, args.trace ? 1 : c.setups, rep);
  LocaleGrid& grid = *su.grid;
  const DistCsr<double>& a = *su.a;
  const std::vector<pgb::Index> deg = row_degrees(a);

  // Untraced passes: repeat while the run has time for another.
  std::vector<ServePass> passes;
  std::vector<double> host_ms, mteps;
  const auto t0 = Clock::now();
  do {
    CallLog log(grid, nullptr);
    passes.push_back(serve_pass(grid, a, deg, c, args.seed, log));
    // Peak memory of the first pass only: repeats add allocator churn,
    // and how many run depends on the host's speed.
    if (passes.size() == 1) rep.set("peak_rss_mb", peak_rss_mb());
    const ServePass& p = passes.back();
    host_ms.push_back(p.wall_s * 1e3 / static_cast<double>(p.served.size()));
    mteps.push_back(p.edges / p.wall_s / 1e6);
  } while (!args.trace &&
           seconds_since(t0) + seconds_since(t0) / passes.size() <=
               args.seconds);
  const ServePass& p = passes.front();
  for (const ServePass& q : passes) {
    rep.check(q.modeled() == p.modeled(),
              "repeated passes disagree on modeled figures");
  }
  rep.set("query_host_ms", median(host_ms));
  rep.set("host_mteps", median(mteps));
  report_serve(rep, c, p);

  if (args.trace) {
    pgb::obs::TraceSession session;
    grid.set_trace_session(&session);
    CallLog tlog(grid, &session);
    const ServePass t = serve_pass(grid, a, deg, c, args.seed, tlog);
    rep.check(t.modeled() == p.modeled(),
              "traced pass differs from the untraced pass");
    const auto& hs = tlog.host_s();
    const auto med_ms = [&](const char* call) {
      const auto it = hs.find(call);
      return it == hs.end() ? 0.0 : median(it->second) * 1e3;
    };
    rep.set("service.submit.host_us.p50", med_ms("service.submit()") * 1e3);
    rep.set("service.step.host_ms.p50", med_ms("service.step()"));
    for (const char* k : {"bfs", "sssp", "pagerank_subgraph", "ego_net"}) {
      const auto it = t.step_host_ms.find(k);
      rep.set(std::string("service.step.host_ms.") + k,
              it == t.step_host_ms.end() ? 0.0 : median(it->second));
    }
    rep.set("ingest.apply.host_ms.p50", med_ms("ingest.apply()"));
    rep.set("ingest.publish.host_ms.p50", med_ms("ingest.publish()"));
    report_query_split(rep, session, t);
    report_traced(rep, grid, tlog, session, t.wall_s,
                  static_cast<double>(t.served.size()));
    grid.set_trace_session(nullptr);
    CallLog ulog(grid, nullptr);
    const ServePass u = serve_pass(grid, a, deg, c, args.seed, ulog);
    rep.set("obs.trace_overhead_frac",
            t.wall_s / std::min(p.wall_s, u.wall_s) - 1.0);
  }

  if (c.ingest_batches > 0) {
    rep.check(p.ingest.compactions >= 2, "fewer than two compactions");
    rep.check(p.recovery.rebuilds + p.ingest.replays >= 1,
              "the locale kill was never recovered");
    rep.check(p.final_hash == fault_free_hash(grid, a, c, args.seed),
              "published graph differs from the fault-free result");
  } else {
    verify_served(rep, a, c, p);
  }
}

int parse_and_run(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::stoull(v);
    } else if (k == "--seconds") {
      args.seconds = std::stod(v);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--size") {
      args.tiny = v == "tiny";
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  Report rep;
  if (args.workload == "bfs-solo") {
    run_bfs_solo(args, rep);
  } else if (args.workload == "serve-mixed" ||
             args.workload == "ingest-chaos") {
    run_serve(args, rep);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("facts: {\"seed\": %llu, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"nproc\": %u, \"size\": \"%s\"}\n",
              static_cast<unsigned long long>(args.seed), __VERSION__,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              args.tiny ? "tiny" : "full");
  if (args.trace) {
    rep.print(kLayer);
  } else {
    rep.print(kE2e);
  }
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::parse_and_run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
