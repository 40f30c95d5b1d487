// Sparse matrix - sparse vector multiplication, y <- x A, on a semiring
// (paper Section III-D, Listings 7 and 8).
//
// Shared memory (spmspv_shm): the SPA algorithm of Gilbert-Moler-Schreiber:
//   1. SPA:    for every nonzero x[r], merge row A[r,:] into the sparse
//              accumulator (dense values + isthere flags + nzinds list);
//   2. Sort:   charge the modeled machine for sorting the accumulated
//              output indices (Chapel merge sort by default — the step
//              the paper finds dominant — or the radix sort it suggests
//              as future work). SortAlgo picks which; the host sorts
//              nothing here;
//   3. Output: build the sorted output vector from the SPA. The host
//              emits the indices in order from the isthere bitmap
//              (Spa::for_each_sorted) instead of sorting them.
//
// Distributed memory (spmspv_dist_multi), on the 2-D block distribution,
// for a wave of k frontier lanes (n x k, k = 1 for the paper's solo
// spmspv_dist):
//   1. Gather:  every locale (R, C) assembles the x entries for row-block
//               R from the pc owners along its processor row. The paper's
//               Listing 8 copies these *element by element* — the
//               fine-grained traffic that ends up dominating (Figs 8-9).
//               opts.bulk_gather switches to one bulk get per piece
//               (the paper's suggested bulk-synchronous remedy).
//   2. Local:   spmspv_shm on the local block, once per lane.
//   3. Scatter: partial outputs are accumulated into the 1-D distributed
//               result; the paper writes one element at a time into a
//               global atomic "isthere" array. opts.bulk_scatter batches
//               per destination instead.
//
// A wave of k > 1 lanes is the batching economy of CombBLAS 2.0's fused
// multi-vector traversals (and LAGraph's batched BC) brought to the
// serving layer: when k independent single-source queries traverse the
// same graph epoch, their per-level exchanges share one communication
// schedule — one size round trip per (reader, source) pair instead of k,
// one bulk/flush sequence per destination with lane-tagged updates, and
// one comm-mode decision per level instead of per user. Compute is not
// fused: each lane's local multiply, accumulation and owner-side finalize
// run over that lane's data alone, in the width-1 order, so every lane's
// output is byte-identical to the width-1 call on that lane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "obs/span.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/collectives.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "sparse/spa.hpp"

namespace pgb {

/// Which sort of the SPA's touched indices the modeled machine pays for.
/// The host never runs either: it emits the indices in order from the
/// SPA's isthere bitmap (Spa::for_each_sorted), so results are the same
/// under both and only the modeled sort time differs.
enum class SortAlgo {
  kMerge,  ///< Chapel's parallel merge sort (paper default)
  kRadix,  ///< LSD radix sort (paper's suggested improvement [9])
};

enum class SpmspvAlgo {
  /// The paper's Listing 7: one SPA over the whole column range, then
  /// sort the touched indices.
  kSpaSort,
  /// The work-efficient algorithm of the paper's reference [9] (Azad &
  /// Buluç, IPDPS 2017): route nonzeros into cache-resident column
  /// buckets, accumulate per bucket, and emit bucket-by-bucket — output
  /// comes out sorted with *no* global sort step.
  kBucket,
};

struct SpmspvOptions {
  SpmspvAlgo algo = SpmspvAlgo::kSpaSort;
  SortAlgo sort = SortAlgo::kMerge;  ///< sort used by kSpaSort
  /// Communication schedule for gather and scatter: fine-grained
  /// element-by-element (the paper's Listing 8), one hand-rolled bulk
  /// transfer per peer, or conveyor-style aggregation (per-peer buffers
  /// flushed as capacity-sized bulks; see runtime/aggregator.hpp).
  CommMode comm = CommMode::kFine;
  /// Buffering parameters when comm == CommMode::kAggregated.
  AggConfig agg;
  bool bulk_gather = false;   ///< legacy flag: batch the gather
  bool bulk_scatter = false;  ///< legacy flag: batch the scatter
  /// Use tree collectives (allgather along processor rows for the input,
  /// reduce-scatter along processor columns for the output) instead of
  /// point-to-point transfers — the facility the paper's Section IV asks
  /// Chapel to provide. Overrides every other comm setting.
  bool use_collectives = false;
  /// Straggler work-shedding (opt-in, 0 disables): when a locale's host
  /// has been flagged a barrier straggler (LocaleGrid straggler
  /// detection), this fraction of its local-multiply time is shed to the
  /// fastest non-straggler locale in the same processor row. The helper
  /// pays the shed compute time *and* pulls the shed share of the
  /// gathered inputs (thief-pays work stealing). Results are unchanged —
  /// only modeled charging moves between clocks.
  double straggler_shed = 0.0;

  bool aggregated() const { return comm == CommMode::kAggregated; }
  bool gather_is_bulk() const {
    return bulk_gather || comm == CommMode::kBulk;
  }
  bool scatter_is_bulk() const {
    return bulk_scatter || comm == CommMode::kBulk;
  }

  /// Convenience for sweeps: this options set with another schedule.
  SpmspvOptions with_comm(CommMode m) const {
    SpmspvOptions o = *this;
    o.comm = m;
    return o;
  }
};

namespace detail {

/// Charges the modeled sort of `nnz` SPA indices below `max_value`.
/// Final merge passes limit parallelism: ~8% of the sort is serial.
inline void charge_spa_sort(LocaleCtx& ctx, SortAlgo algo, Index nnz,
                            Index max_value) {
  const CostVector sc = algo == SortAlgo::kMerge
                            ? merge_sort_cost(nnz)
                            : radix_sort_cost(nnz, max_value);
  ctx.parallel_region(sc.scaled(0.92));
  ctx.serial_region(sc.scaled(0.08));
}

/// Host SPA buffers reused across calls on this thread, one set per value
/// type: a fresh SPA zeroes, and may page in, 8+ bytes per column on
/// every call. Callers retarget() before use. The modeled machine still
/// pays a per-call SPA allocation, as Chapel allocates isthere/localy
/// per call.
template <typename T>
Spa<T>& block_spa() {
  static thread_local Spa<T> spa;
  return spa;
}

/// The per-lane, per-owner accumulators of the distributed scatter.
template <typename T>
std::vector<std::vector<Spa<T>>>& lane_spas() {
  static thread_local std::vector<std::vector<Spa<T>>> spas;
  return spas;
}

/// The SPA's entries whose index passes `keep`, in index order, as a
/// vector of `capacity`.
template <typename T, typename Keep>
SparseVec<T> spa_to_sparse_vec(const Spa<T>& spa, Index capacity, Keep keep) {
  std::vector<Index> idx;
  std::vector<T> val;
  idx.reserve(static_cast<std::size_t>(spa.nnz()));
  val.reserve(static_cast<std::size_t>(spa.nnz()));
  spa.for_each_sorted([&](Index j, const T& v) {
    if (!keep(j)) return;
    idx.push_back(j);
    val.push_back(v);
  });
  return SparseVec<T>::from_sorted(capacity, std::move(idx), std::move(val));
}

template <typename T>
SparseVec<T> spa_to_sparse_vec(const Spa<T>& spa, Index capacity) {
  return spa_to_sparse_vec(spa, capacity, [](Index) { return true; });
}

/// Owner-side finalize of a distributed SpMSpV (the paper's denseToSparse
/// scan): emits output owner o's SPA in index order into y.local(o),
/// dropping entries that fail `mask`. Every lane of a spmspv_dist_multi
/// wave and the transpose-free mxv_direct finalize here, so their outputs
/// are byte-identical.
template <typename T>
void finalize_owner(LocaleCtx& ctx, const Spa<T>& spa, DistSparseVec<T>& y,
                    const DistDenseVec<std::uint8_t>* mask,
                    MaskMode mask_mode) {
  const int o = ctx.locale();
  const bool filter = mask != nullptr && mask_mode != MaskMode::kNone;
  y.local(o) = spa_to_sparse_vec(spa, y.dist().local_size(o), [&](Index j) {
    return !filter ||
           (mask->local(o)[j] != 0) == (mask_mode == MaskMode::kMask);
  });
  const auto kept = static_cast<double>(y.local(o).nnz());
  CostVector c;
  if (mask != nullptr) {
    c.add(CostKind::kRandAccess, 0.25 * static_cast<double>(spa.nnz()));
  }
  c.add(CostKind::kStreamBytes,
        1.0 * static_cast<double>(y.dist().local_size(o)));
  c.add(CostKind::kStreamBytes, 24.0 * kept);
  c.add(CostKind::kCpuOps, 8.0 * kept);
  ctx.parallel_region(c);
}

/// Bucket SpMSpV (SpmspvAlgo::kBucket). Buckets are sized to stay
/// cache-resident (~4K columns each); routing is a streaming pass and
/// per-bucket accumulation is a dense scan of a small slice, so the
/// global sort of the SPA algorithm disappears entirely.
template <typename TA, typename T, typename SR>
SparseVec<T> spmspv_shm_bucket(LocaleCtx& ctx, const Csr<TA>& a,
                               Index row_lo, const SparseVec<T>& x,
                               Index col_lo, Index col_hi, const SR& sr,
                               Trace* trace) {
  constexpr Index kBucketWidth = 4096;
  const Index ncols = col_hi - col_lo;
  const Index nbuckets = std::max<Index>(1, (ncols + kBucketWidth - 1) /
                                                kBucketWidth);

  // ---- Step 1: route (column, value) pairs into buckets ----
  obs::LocaleSpan route_span(ctx, "spmspv.route");
  double t0 = ctx.clock().now();
  std::vector<std::vector<std::pair<Index, T>>> buckets(
      static_cast<std::size_t>(nbuckets));
  Index visited = 0;
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index r = x.index_at(p) - row_lo;
    PGB_ASSERT(r >= 0 && r < a.nrows(), "spmspv: x index out of row range");
    const T& xv = x.value_at(p);
    auto cols = a.row_colids(r);
    auto vals = a.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index b = (cols[k] - col_lo) / kBucketWidth;
      buckets[static_cast<std::size_t>(b)].emplace_back(
          cols[k], sr.multiply(xv, static_cast<T>(vals[k])));
    }
    visited += static_cast<Index>(cols.size());
  }
  {
    CostVector c;
    // Streaming read of the selected rows plus a mostly-sequential append
    // per nonzero (per-thread sub-buckets: no atomics). Routing touches
    // nbuckets append cursors — cache-resident.
    c.add(CostKind::kRandAccess, 2.0 * static_cast<double>(x.nnz()));
    c.add(CostKind::kCpuOps, kSpaOpsPerRow * static_cast<double>(x.nnz()));
    c.add(CostKind::kStreamBytes, 32.0 * static_cast<double>(visited));
    c.add(CostKind::kCpuOps, 25.0 * static_cast<double>(visited));
    ctx.parallel_region(c);
  }
  route_span.end();
  if (trace) trace->add("spa", ctx.clock().now() - t0);
  if (trace) trace->add("sort", 0.0);  // there is no sort step

  // ---- Step 2: per-bucket dense accumulation, emitted in order ----
  obs::LocaleSpan emit_span(ctx, "spmspv.emit");
  t0 = ctx.clock().now();
  std::vector<Index> idx;
  std::vector<T> val;
  std::vector<T> slot(static_cast<std::size_t>(
      std::min<Index>(kBucketWidth, ncols)));
  BitVector there(std::min<Index>(kBucketWidth, ncols));
  double scanned_bytes = 0.0;
  for (Index b = 0; b < nbuckets; ++b) {
    auto& bucket = buckets[static_cast<std::size_t>(b)];
    if (bucket.empty()) continue;
    const Index blo = col_lo + b * kBucketWidth;
    const Index bhi = std::min(col_hi, blo + kBucketWidth);
    for (const auto& [j, v] : bucket) {
      const Index off = j - blo;
      if (there.test_and_set(off)) {
        slot[static_cast<std::size_t>(off)] = v;
      } else {
        slot[static_cast<std::size_t>(off)] =
            sr.combine(slot[static_cast<std::size_t>(off)], v);
      }
    }
    for (Index j = blo; j < bhi; ++j) {
      if (there.get(j - blo)) {
        idx.push_back(j);
        val.push_back(slot[static_cast<std::size_t>(j - blo)]);
        there.clear(j - blo);
      }
    }
    scanned_bytes += static_cast<double>(bhi - blo);
  }
  {
    CostVector c;
    // Accumulation hits a cache-resident slice (cheap "random" access)
    // and the emit pass streams each touched bucket's range once.
    c.add(CostKind::kCpuOps, 14.0 * static_cast<double>(visited));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(visited) +
                                      scanned_bytes +
                                      24.0 * static_cast<double>(idx.size()));
    c.add(CostKind::kCpuOps, 6.0 * static_cast<double>(idx.size()));
    ctx.parallel_region(c);
  }
  if (trace) trace->add("output", ctx.clock().now() - t0);

  return SparseVec<T>::from_sorted(col_hi - col_lo, std::move(idx),
                                   std::move(val));
}

}  // namespace detail

/// Shared-memory SpMSpV over one CSR block.
///
/// x's indices are global row ids in [row_lo, row_lo + a.nrows()); a's
/// column ids are global within [col_lo, col_hi). The result's indices
/// are global column ids; its capacity is col_hi - col_lo.
///
/// If `trace` is given, phase times are recorded under "spa", "sort",
/// "output" (Fig 7's components).
template <typename TA, typename T, typename SR>
SparseVec<T> spmspv_shm(LocaleCtx& ctx, const Csr<TA>& a, Index row_lo,
                        const SparseVec<T>& x, Index col_lo, Index col_hi,
                        const SR& sr, const SpmspvOptions& opt = {},
                        Trace* trace = nullptr) {
  PGB_REQUIRE_SHAPE(x.capacity() >= a.nrows(),
                    "spmspv: x capacity must cover the matrix rows");
  if (opt.algo == SpmspvAlgo::kBucket) {
    return detail::spmspv_shm_bucket(ctx, a, row_lo, x, col_lo, col_hi, sr,
                                     trace);
  }
  // ---- Step 1: SPA merge of the selected rows ----
  obs::LocaleSpan spa_span(ctx, "spmspv.spa");
  double t0 = ctx.clock().now();
  Spa<T>& spa = detail::block_spa<T>();
  spa.retarget(col_lo, col_hi);
  Index visited = 0;
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index r = x.index_at(p) - row_lo;
    PGB_ASSERT(r >= 0 && r < a.nrows(), "spmspv: x index out of row range");
    const T& xv = x.value_at(p);
    auto cols = a.row_colids(r);
    auto vals = a.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      spa.accumulate(cols[k], sr.multiply(xv, static_cast<T>(vals[k])),
                     sr.add);
    }
    visited += static_cast<Index>(cols.size());
  }
  const Index out_nnz = spa.nnz();
  {
    CostVector c;
    // SPA allocation/first touch (Chapel allocates isthere/localy per
    // call), row-pointer fetches, then per visited nonzero: colid+value
    // stream, isthere test-and-set, k.fetchAdd per fresh index.
    c.add(CostKind::kStreamBytes,
          9.0 * static_cast<double>(col_hi - col_lo));
    c.add(CostKind::kRandAccess, 2.0 * static_cast<double>(x.nnz()));
    c.add(CostKind::kCpuOps, kSpaOpsPerRow * static_cast<double>(x.nnz()));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(visited));
    c.add(CostKind::kCpuOps, kSpaOpsPerNnz * static_cast<double>(visited));
    c.add(CostKind::kAtomicDistinct, static_cast<double>(visited));
    c.add(CostKind::kAtomicContended, static_cast<double>(out_nnz));
    c.add(CostKind::kStreamBytes, 8.0 * static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  }
  spa_span.end();
  if (trace) trace->add("spa", ctx.clock().now() - t0);

  // ---- Step 2: sort the output indices (modeled only) ----
  obs::LocaleSpan sort_span(ctx, "spmspv.sort");
  t0 = ctx.clock().now();
  detail::charge_spa_sort(ctx, opt.sort, out_nnz, col_hi);
  sort_span.end();
  if (trace) trace->add("sort", ctx.clock().now() - t0);

  // ---- Step 3: populate the output vector ----
  obs::LocaleSpan output_span(ctx, "spmspv.output");
  t0 = ctx.clock().now();
  SparseVec<T> y = detail::spa_to_sparse_vec(spa, col_hi - col_lo);
  {
    CostVector c;
    c.add(CostKind::kCpuOps, kSpmspvOutputOps * static_cast<double>(out_nnz));
    c.add(CostKind::kRandAccess, static_cast<double>(out_nnz));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  }
  if (trace) trace->add("output", ctx.clock().now() - t0);
  return y;
}

namespace detail {

/// Picks the helper locale for straggler shedding: the processor-row
/// peer with the smallest clock whose host has a clean straggler record.
/// Returns -1 (no shedding) when shedding is off, this locale's host was
/// never flagged, or no clean peer exists. Deterministic: ties resolve
/// to the lowest locale id, and the decision depends only on simulated
/// clocks, so two same-seed runs shed identically.
inline int shed_helper(LocaleGrid& grid, int l, int pc, double shed,
                       const RemapView& remap) {
  if (shed <= 0.0) return -1;
  PGB_REQUIRE(shed < 1.0, "spmspv: straggler_shed must be in [0, 1)");
  const int h = remap.host(l);
  if (grid.straggler_hits(h) <= 0) return -1;
  const int prow = grid.locale(l).row;
  int best = -1;
  double best_t = 0.0;
  for (int i = 0; i < pc; ++i) {
    const int cand = prow * pc + i;
    const int ch = remap.host(cand);
    if (ch == h || grid.straggler_hits(ch) > 0) continue;
    const double t = grid.clock(ch).now();
    if (best < 0 || t < best_t) {
      best = cand;
      best_t = t;
    }
  }
  return best;
}

/// Scatter element of a width-1 wave: one lane needs no tag, so the wire
/// (and the host buffer) carries the bare 16-byte {j, v}.
template <typename T>
struct SoloUpdate {
  Index j;
  T v;
  static constexpr std::int32_t q = 0;
  static SoloUpdate make(Index j, const T& v, std::int32_t) { return {j, v}; }
};

/// Scatter element of a wider wave: lane `q`'s update of output slot
/// `j`. The lane id rides the wire (it is the column coordinate inside
/// the n x k block), so fused updates are honestly larger than solo ones;
/// the win is amortizing messages/flushes/round trips, not bytes.
template <typename T>
struct MultiUpdate {
  Index j;
  T v;
  std::int32_t q;
  static MultiUpdate make(Index j, const T& v, std::int32_t q) {
    return {j, v, q};
  }
};

}  // namespace detail

/// Distributed SpMSpV of width k: Y <- X A for k frontier lanes over the
/// 2-D block distribution. This is the one distributed SpMSpV; the solo
/// spmspv_dist / spmspv_dist_masked below are its width-1 calls.
///
/// `xs` holds the k lanes (all with capacity == a.nrows(), all on a's
/// grid). `masks` is either empty (no masking) or one entry per lane —
/// individual entries may be null (that lane is unmasked); non-null masks
/// filter that lane's output per `mask_mode` *inside* the owner-side
/// finalize — the fused masked vxm of the GraphBLAS spec, which the
/// paper's conclusion singles out as unexplored in distributed memory.
/// Matrix values (TA) are cast to T before the semiring multiply.
///
/// Phase times are recorded in the grid's trace under "gather", "local",
/// "scatter" (Figs 8-9's components). Only the width decides how a wave
/// is charged and named: k == 1 ships 16-byte updates, offers the
/// inspector's replica cache, and counts as kernel "spmspv_dist"; k > 1
/// ships lane-tagged MultiUpdates and counts as "spmspv_dist_multi".
///
/// Returns one output vector per lane, each byte-identical to the
/// width-1 call on that lane alone under any comm schedule.
template <typename TA, typename T, typename SR>
std::vector<DistSparseVec<T>> spmspv_dist_multi(
    const DistCsr<TA>& a, const std::vector<const DistSparseVec<T>*>& xs,
    const std::vector<const DistDenseVec<std::uint8_t>*>& masks,
    MaskMode mask_mode, const SR& sr, const SpmspvOptions& opt = {}) {
  const int k = static_cast<int>(xs.size());
  PGB_REQUIRE(k >= 1, "spmspv: a wave must hold at least one lane");
  PGB_REQUIRE(masks.empty() || masks.size() == xs.size(),
              "spmspv: one mask slot per lane (or none)");
  auto& grid = a.grid();
  for (const auto* m : masks) {
    if (m != nullptr) {
      PGB_REQUIRE_SHAPE(m->size() == a.ncols(),
                        "spmspv: mask size must equal matrix columns");
    }
  }
  for (const auto* x : xs) {
    PGB_REQUIRE(x != nullptr, "spmspv: null frontier lane");
    PGB_REQUIRE_SHAPE(x->capacity() == a.nrows(),
                      "spmspv: x capacity must equal matrix rows");
    PGB_REQUIRE_SHAPE(&x->grid() == &grid,
                      "spmspv: operands live on different grids");
  }
  const int pc = grid.cols();
  const int pr = grid.rows();
  const int nloc = grid.num_locales();
  const bool fused = k > 1;
  grid.metrics()
      .counter("kernel.calls",
               {{"kernel", fused ? "spmspv_dist_multi" : "spmspv_dist"}})
      .inc();
  if (fused) grid.metrics().histogram("spmspv.multi.width").observe(k);

  // Logical->physical host view: after a degraded-mode remap a peer may
  // be co-hosted with us, turning its "remote" pieces into local memory
  // reads. Under the identity mapping remapped() is false and every
  // branch below reduces to the original formulas bit-for-bit.
  RemapView remap(grid.membership());

  constexpr std::int64_t kGatherBytes = 16;
  const auto scatter_bytes = static_cast<std::int64_t>(
      fused ? sizeof(detail::MultiUpdate<T>) : sizeof(detail::SoloUpdate<T>));

  // Inspector–executor (CommMode::kAuto): each comm site records the
  // wave's remote footprint up front — one footprint, and one decision,
  // for all k lanes — and is bound to the cheapest predicted schedule;
  // manual modes keep their hardcoded schedule (insp stays null).
  // Collectives override every schedule, auto included. Data movement is
  // identical either way — only charging differs — so auto's outputs are
  // byte-identical to every manual mode.
  Inspector* insp = (opt.comm == CommMode::kAuto && !opt.use_collectives)
                        ? &grid.inspector()
                        : nullptr;
  SiteDecision gather_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = kGatherBytes;
    fp.fanout = static_cast<double>(pc);  // pc readers hit each source
    fp.chain_rts = kRemoteElemRts + 1.0;
    // One lane's x is immutable for the whole wave and may be re-read
    // unchanged by a later one, so replication can pay. k churning
    // frontiers never repeat together: wider waves take replicate off the
    // candidate list outright.
    fp.read_only = !fused;
    fp.gather = true;
    for (int l = 0; l < nloc; ++l) {
      const int prow = grid.locale(l).row;
      std::int64_t elems = 0;
      std::int64_t pairs = 0;
      for (int i = 0; i < pc; ++i) {
        const int src = prow * pc + i;
        if (src == l) continue;
        ++pairs;
        for (const auto* x : xs) elems += x->local(src).nnz();
      }
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
      }
    }
    fp.block_bytes = kGatherBytes * fp.max_initiator_elements;
    gather_dec = insp->decide("spmspv.gather", fp);
  }
  const SiteStrategy gather_strat =
      insp != nullptr        ? gather_dec.strategy
      : opt.aggregated()     ? SiteStrategy::kAggregated
      : opt.gather_is_bulk() ? SiteStrategy::kBulk
                             : SiteStrategy::kFine;

  // ---- Step 1: gather X along each processor row ----
  // Every lane's piece from source `src` rides the same transfer set: one
  // size round trip per (reader, source) pair, then one chain/bulk/chunk
  // stream of the lanes' combined elements.
  obs::GridSpan gather_span(grid, "spmspv.gather");
  CommStats cs0 = grid.comm_stats();
  double t0 = grid.time();
  std::vector<std::vector<SparseVec<T>>> xr(
      static_cast<std::size_t>(k),
      std::vector<SparseVec<T>>(static_cast<std::size_t>(nloc)));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    const int prow = grid.locale(l).row;
    std::vector<std::vector<Index>> idx(static_cast<std::size_t>(k));
    std::vector<std::vector<T>> val(static_cast<std::size_t>(k));
    // Aggregated mode: the known-size remote pieces are pulled as
    // capacity-sized chunks through a double-buffered channel, so chunk
    // transfers from the pc sources overlap one another.
    AggConfig gather_cfg = opt.agg;
    gather_cfg.contention = static_cast<double>(pc);
    if (insp != nullptr) gather_cfg.capacity = gather_dec.agg_capacity;
    AggChannel chan(ctx, gather_cfg);
    // Per-wave cached host view: this locale's host is resolved once
    // here, and per-source hosts go through the RemapView's cached
    // table — no per-element grid.host_of() walks.
    const int self_host = remap.host(l);
    for (int i = 0; i < pc; ++i) {
      const int src = prow * pc + i;
      std::int64_t total = 0;
      for (int q = 0; q < k; ++q) {
        const auto& piece = xs[static_cast<std::size_t>(q)]->local(src);
        idx[q].insert(idx[q].end(), piece.domain().indices().begin(),
                      piece.domain().indices().end());
        val[q].insert(val[q].end(), piece.values().begin(),
                      piece.values().end());
        total += piece.nnz();
      }
      const bool co_hosted = remap.remapped() && remap.host(src) == self_host;
      if (src == l || co_hosted || opt.use_collectives) continue;
      if (gather_strat == SiteStrategy::kReplicate) {
        // Selective read-only replication (offered at k == 1 only): the
        // source piece is shipped once per reader host through a
        // binomial broadcast tree (depth ceil(log2(pc)) instead of pc
        // serialized serves) and stays resident; while its content
        // fingerprint and the membership epoch both hold, later waves
        // read the replica for free (inspector.cache.hits). A remap
        // flushes every replica.
        const std::uint64_t tag = xs.front()->local(src).fingerprint();
        if (!insp->cache_lookup("spmspv.gather", src, self_host, tag)) {
          const std::int64_t bytes = kGatherBytes * total;
          ctx.remote_rt(src, 8);
          ctx.remote_bulk(src, bytes);
          const int depth = replication_tree_depth(static_cast<double>(pc));
          if (depth > 1) {
            const bool intra = grid.same_node(self_host, remap.host(src));
            ctx.clock().advance(
                static_cast<double>(depth - 1) *
                grid.net().bulk(bytes, intra, grid.colocated()));
          }
          insp->cache_install("spmspv.gather", src, self_host, tag, bytes);
        }
        continue;
      }
      // Domain-size query (the k sizes ride one reply), then the element
      // copies. Every locale in this processor row pulls from the same pc
      // sources at once, so each source's AM handler serves pc
      // requesters (contention).
      ctx.remote_rt(src, 8 * k);
      if (gather_strat == SiteStrategy::kAggregated) {
        chan.get_elems(src, total, kGatherBytes);
      } else if (gather_strat == SiteStrategy::kBulk) {
        // The source serves one bulk copy to each of the pc locales in
        // this processor row, serially (no broadcast tree in the paper's
        // runtime): receiver-side contention scales the transfer.
        ctx.remote_bulk(src, kGatherBytes * total * pc);
      } else {
        ctx.remote_chain(src, total, kRemoteElemRts + 1.0, kGatherBytes,
                         /*contention=*/static_cast<double>(pc));
      }
    }
    chan.drain();
    for (int q = 0; q < k; ++q) {
      xr[q][l] = SparseVec<T>::from_sorted(
          blk.rhi - blk.rlo, std::move(idx[q]), std::move(val[q]));
    }
  });
  if (opt.use_collectives) {
    for (int r = 0; r < pr; ++r) {
      std::int64_t max_piece = 0;
      for (int m : row_members(grid, r)) {
        std::int64_t piece = 0;
        for (const auto* x : xs) piece += kGatherBytes * x->local(m).nnz();
        max_piece = std::max(max_piece, piece);
      }
      allgather(grid, row_members(grid, r), max_piece, CollectiveAlgo::kTree);
    }
    grid.barrier_all();
  }
  gather_span.end();
  {
    const CommStats cs1 = grid.comm_stats();
    grid.metrics()
        .counter("spmspv.messages", {{"phase", "gather"}})
        .inc(cs1.messages - cs0.messages);
    grid.metrics()
        .counter("spmspv.bytes", {{"phase", "gather"}})
        .inc(cs1.bytes - cs0.bytes);
  }
  if (insp != nullptr) insp->observe("spmspv.gather", grid.time() - t0);
  grid.trace().add("gather", grid.time() - t0);

  // ---- Step 2: per-lane local multiply ----
  // Not fused: lane q's multiply is spmspv_shm over lane q's gathered
  // piece alone, so lane outputs can't depend on batch-mates.
  obs::GridSpan local_span(grid, "spmspv.local");
  t0 = grid.time();
  std::vector<std::vector<SparseVec<T>>> ly(
      static_cast<std::size_t>(k),
      std::vector<SparseVec<T>>(static_cast<std::size_t>(nloc)));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    // Straggler shedding (opt-in): if barrier detection flagged this
    // locale's host, move opt.straggler_shed of the multiply's modeled
    // time to the fastest clean locale in this processor row. The real
    // compute still runs here (results are untouched); the helper's
    // clock pays the shed fraction plus the thief-pays input pull.
    const int helper =
        detail::shed_helper(grid, l, pc, opt.straggler_shed, remap);
    const double shed = opt.straggler_shed;
    const double before = ctx.clock().now();
    if (helper >= 0) ctx.set_charge_scale(1.0 - shed);
    std::int64_t pulled = 0;
    for (int q = 0; q < k; ++q) {
      ly[q][l] = spmspv_shm(ctx, blk.csr, blk.rlo, xr[q][l], blk.clo,
                            blk.chi, sr, opt);
      pulled += xr[q][l].nnz();
    }
    if (helper < 0) return;
    ctx.set_charge_scale(1.0);
    const double charged = ctx.clock().now() - before;
    // The helper executes the shed share: it re-pays the time the
    // straggler saved (charged is (1-shed) of the full cost) and pulls
    // its share of the gathered input.
    LocaleCtx hctx(grid, helper);
    hctx.remote_bulk(l, static_cast<std::int64_t>(
                            16.0 * static_cast<double>(pulled) * shed));
    grid.clock(remap.host(helper)).advance(charged / (1.0 - shed) * shed);
    grid.metrics().counter("spmspv.rebalanced").inc();
    auto* session = grid.trace_session();
    if (session != nullptr) {
      session->instant(remap.host(l), "spmspv.shed", ctx.clock().now(),
                       {{"helper", std::to_string(helper)},
                        {"fraction", std::to_string(shed)}});
    }
  });
  local_span.end();
  grid.trace().add("local", grid.time() - t0);

  // Scatter-site inspection: the partial outputs are known after the
  // local phase; each initiator sprays its elements across ~pr owners
  // (the owners of its column range), so pr is both the pair estimate
  // per initiator and the receiver-side fan-in. Writes can't replicate.
  SiteDecision scatter_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = scatter_bytes;
    fp.fanout = static_cast<double>(pr);
    fp.gather = false;
    // The bulk branch below spawns one packing region per destination;
    // that task-spawn floor is what it costs over fine/agg per pair.
    fp.bulk_pair_overhead = grid.region_floor();
    for (int l = 0; l < nloc; ++l) {
      std::int64_t elems = 0;
      for (int q = 0; q < k; ++q) elems += ly[q][l].nnz();
      const std::int64_t pairs =
          std::min<std::int64_t>(nloc > 1 ? nloc - 1 : 0, pr);
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
      }
    }
    scatter_dec = insp->decide("spmspv.scatter", fp);
  }
  const SiteStrategy scatter_strat =
      insp != nullptr         ? scatter_dec.strategy
      : opt.aggregated()      ? SiteStrategy::kAggregated
      : opt.scatter_is_bulk() ? SiteStrategy::kBulk
                              : SiteStrategy::kFine;

  // ---- Step 3: scatter/accumulate into k 1-D distributed outputs ----
  obs::GridSpan scatter_span(grid, "spmspv.scatter");
  cs0 = grid.comm_stats();
  t0 = grid.time();
  std::vector<DistSparseVec<T>> y;
  y.reserve(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) y.emplace_back(grid, a.ncols());
  const auto& ydist = y.front().dist();
  // Per-lane accumulators: lane q's per-slot accumulation order is the
  // width-1 order (lanes never share a SPA slot).
  std::vector<std::vector<Spa<T>>>& yspa = detail::lane_spas<T>();
  if (yspa.size() < static_cast<std::size_t>(k)) {
    yspa.resize(static_cast<std::size_t>(k));
  }
  for (int q = 0; q < k; ++q) {
    auto& lane = yspa[static_cast<std::size_t>(q)];
    lane.resize(static_cast<std::size_t>(nloc));
    for (int o = 0; o < nloc; ++o) lane[o].retarget(ydist.lo(o), ydist.hi(o));
  }
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    // Per-wave cached host view (same hoist as the gather).
    const int self_host = remap.host(l);
    std::vector<std::int64_t> count_to(static_cast<std::size_t>(nloc), 0);
    if (scatter_strat == SiteStrategy::kAggregated && !opt.use_collectives) {
      // Conveyor schedule: accumulate-at-owner requests of every lane
      // ride one set of per-peer buffers; every flush is one bulk (plus
      // header) instead of a message per element, amortized across the
      // k lanes. Per-peer FIFO delivery keeps each lane's per-slot
      // accumulation order of the fine-grained path, so results are
      // bit-identical.
      AggConfig cfg = opt.agg;
      cfg.contention = static_cast<double>(pr);
      if (insp != nullptr) cfg.capacity = scatter_dec.agg_capacity;
      // The buffered record is the wire record (SoloUpdate at width 1,
      // lane-tagged MultiUpdate above), so the host buffers no tag a
      // width-1 wave does not ship.
      const auto push_lanes = [&](auto record) {
        using Update = decltype(record);
        DstAggregator<Update> agg(
            ctx,
            [&](int peer, std::vector<Update>& batch) {
              for (const auto& u : batch) {
                yspa[u.q][peer].accumulate(u.j, u.v, sr.add);
              }
            },
            cfg);
        for (int q = 0; q < k; ++q) {
          const auto& part = ly[q][l];
          for (Index p = 0; p < part.nnz(); ++p) {
            const Index j = part.index_at(p);
            const int o = ydist.owner(j);
            agg.push(o, Update::make(j, part.value_at(p), q));
            ++count_to[o];
          }
        }
        agg.flush_all();
      };
      if (fused) {
        push_lanes(detail::MultiUpdate<T>{});
      } else {
        push_lanes(detail::SoloUpdate<T>{});
      }
      CostVector c;  // local accumulation + packing of the remote batches
      c.add(CostKind::kRandAccess, static_cast<double>(count_to[l]));
      c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[l]));
      for (int o = 0; o < nloc; ++o) {
        if (o == l || count_to[o] == 0) continue;
        if (remap.remapped() && remap.host(o) == self_host) {
          // Co-hosted owner after a degraded remap: straight local
          // accumulation, nothing to pack.
          c.add(CostKind::kRandAccess, static_cast<double>(count_to[o]));
          c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[o]));
          continue;
        }
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(count_to[o]));
        c.add(CostKind::kStreamBytes,
              static_cast<double>(scatter_bytes * count_to[o]));
      }
      ctx.parallel_region(c);
      return;
    }
    for (int q = 0; q < k; ++q) {
      const auto& part = ly[q][l];
      for (Index p = 0; p < part.nnz(); ++p) {
        const Index j = part.index_at(p);
        const int o = ydist.owner(j);
        yspa[q][o].accumulate(j, part.value_at(p), sr.add);
        ++count_to[o];
      }
    }
    for (int o = 0; o < nloc; ++o) {
      if (count_to[o] == 0) continue;
      if (opt.use_collectives && o != l) {
        continue;  // charged below as a reduce-scatter per column
      }
      // Co-hosted owners (degraded remap) accumulate locally; identity
      // mapping reduces this to the plain o == l test.
      const bool local_dst =
          o == l || (remap.remapped() && remap.host(o) == self_host);
      if (local_dst) {
        CostVector c;
        c.add(CostKind::kRandAccess, static_cast<double>(count_to[o]));
        c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[o]));
        ctx.parallel_region(c);
      } else if (scatter_strat == SiteStrategy::kBulk) {
        CostVector c;  // one packing region covers all k lanes' batch
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(count_to[o]));
        c.add(CostKind::kStreamBytes,
              static_cast<double>(scatter_bytes * count_to[o]));
        ctx.parallel_region(c);
        // Every destination drains batches from the pr locales of one
        // processor column, serially: receiver-side contention.
        ctx.remote_bulk(o, scatter_bytes * count_to[o] * pr);
      } else {
        // One remote atomic write per element (paper Listing 8 step 3);
        // each destination is hammered by the pr locales of one
        // processor column at once.
        ctx.remote_msgs(o, count_to[o], scatter_bytes,
                        /*contention=*/static_cast<double>(pr));
      }
    }
  });
  if (opt.use_collectives) {
    for (int c = 0; c < pc; ++c) {
      std::int64_t volume = 0;
      for (int m : col_members(grid, c)) {
        for (int q = 0; q < k; ++q) volume += scatter_bytes * ly[q][m].nnz();
      }
      reduce_scatter(grid, col_members(grid, c), volume,
                     CollectiveAlgo::kTree);
    }
    grid.barrier_all();
  }
  grid.coforall_locales([&](LocaleCtx& ctx) {
    for (int q = 0; q < k; ++q) {
      detail::finalize_owner(
          ctx, yspa[q][ctx.locale()], y[q],
          masks.empty() ? nullptr : masks[static_cast<std::size_t>(q)],
          mask_mode);
    }
  });
  scatter_span.end();
  {
    const CommStats cs1 = grid.comm_stats();
    grid.metrics()
        .counter("spmspv.messages", {{"phase", "scatter"}})
        .inc(cs1.messages - cs0.messages);
    grid.metrics()
        .counter("spmspv.bytes", {{"phase", "scatter"}})
        .inc(cs1.bytes - cs0.bytes);
  }
  if (insp != nullptr) insp->observe("spmspv.scatter", grid.time() - t0);
  grid.trace().add("scatter", grid.time() - t0);
  return y;
}

/// Distributed SpMSpV, unmasked: the width-1 wave.
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist(const DistCsr<TA>& a,
                             const DistSparseVec<T>& x, const SR& sr,
                             const SpmspvOptions& opt = {}) {
  return std::move(
      spmspv_dist_multi<TA, T>(a, {&x}, {}, MaskMode::kNone, sr, opt).front());
}

/// Distributed SpMSpV with a fused dense Boolean mask (optionally
/// complemented): output entries failing the mask are dropped at their
/// owner before the result vector is built. The width-1 masked wave.
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist_masked(const DistCsr<TA>& a,
                                    const DistSparseVec<T>& x,
                                    const DistDenseVec<std::uint8_t>& mask,
                                    MaskMode mode, const SR& sr,
                                    const SpmspvOptions& opt = {}) {
  return std::move(
      spmspv_dist_multi<TA, T>(a, {&x}, {&mask}, mode, sr, opt).front());
}

}  // namespace pgb
