// Transpose-free distributed mxv using per-block CSC mirrors.
//
// vxm.hpp's mxv materializes A^T — simple but it moves the whole matrix.
// Real GraphBLAS backends keep both orientations of each block instead
// (CSR for vxm, CSC for mxv) and dispatch; this header provides that:
// build the mirror once with make_csc_mirror (paying the conversion),
// then every mxv_direct call runs the column-wise kernel per block with
// the mirrored communication pattern of spmspv_dist:
//
//   gather  x for the block's *column* range,
//   multiply with spmspv_columnwise into the block's *row* range,
//   scatter partial y along processor rows.
#pragma once

#include <vector>

#include "core/spmspv.hpp"
#include "core/spmspv_cw.hpp"
#include "obs/span.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csc.hpp"
#include "sparse/dist_csr.hpp"

namespace pgb {

/// Per-locale CSC copies of a DistCsr's blocks (column ids local to the
/// block's column range so the CSC is compact).
template <typename T>
struct DistCscMirror {
  std::vector<Csc<T>> blocks;
};

/// Builds (and charges) the CSC mirror: one counting-sort pass per block.
template <typename T>
DistCscMirror<T> make_csc_mirror(const DistCsr<T>& a) {
  auto& grid = a.grid();
  DistCscMirror<T> mirror;
  mirror.blocks.resize(static_cast<std::size_t>(grid.num_locales()));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    // Rebase column ids to the block range so the CSC has chi-clo
    // columns rather than ncols.
    std::vector<Index> rowptr(blk.csr.rowptr().begin(),
                              blk.csr.rowptr().end());
    std::vector<Index> colids(blk.csr.colids().begin(),
                              blk.csr.colids().end());
    for (Index& c : colids) c -= blk.clo;
    std::vector<T> vals(blk.csr.values().begin(), blk.csr.values().end());
    auto rebased = Csr<T>::from_parts(blk.csr.nrows(), blk.chi - blk.clo,
                                      std::move(rowptr), std::move(colids),
                                      std::move(vals));
    mirror.blocks[static_cast<std::size_t>(l)] = Csc<T>::from_csr(rebased);
    CostVector c;
    c.add(CostKind::kStreamBytes, 48.0 * static_cast<double>(blk.csr.nnz()));
    c.add(CostKind::kRandAccess, static_cast<double>(blk.csr.nnz()));
    c.add(CostKind::kCpuOps, 16.0 * static_cast<double>(blk.csr.nnz()));
    ctx.parallel_region(c);
  });
  return mirror;
}

/// y = A x without materializing A^T. TA and T as in spmspv_dist.
template <typename TA, typename T, typename SR>
DistSparseVec<T> mxv_direct(const DistCsr<TA>& a,
                            const DistCscMirror<TA>& mirror,
                            const DistSparseVec<T>& x, const SR& sr,
                            const SpmspvOptions& opt = {}) {
  PGB_REQUIRE_SHAPE(x.capacity() == a.ncols(),
                    "mxv: x capacity must equal matrix columns");
  PGB_REQUIRE_SHAPE(&x.grid() == &a.grid(),
                    "mxv: operands live on different grids");
  auto& grid = a.grid();
  const int pr = grid.rows();
  const int pc = grid.cols();
  const int nloc = grid.num_locales();
  PGB_REQUIRE(static_cast<int>(mirror.blocks.size()) == nloc,
              "mxv: mirror does not match the grid");
  grid.metrics().counter("kernel.calls", {{"kernel", "mxv_direct"}}).inc();

  // Inspector–executor (CommMode::kAuto): same protocol as spmspv_dist,
  // on the mirrored sites. Gather footprints use the unfiltered piece
  // sizes (cheap pre-wave upper bound); since every candidate strategy
  // is priced from the same estimate, only near-tie rankings can flip.
  Inspector* insp = opt.comm == CommMode::kAuto ? &grid.inspector() : nullptr;
  SiteDecision gather_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = 16;
    fp.fanout = static_cast<double>(pr);  // pr readers per x owner
    fp.chain_rts = kRemoteElemRts + 1.0;
    fp.read_only = true;
    fp.gather = true;
    for (int l = 0; l < nloc; ++l) {
      const auto& blk = a.block(l);
      if (blk.chi <= blk.clo) continue;
      const int first = x.owner(blk.clo);
      const int last = x.owner(blk.chi - 1);
      std::int64_t elems = 0;
      std::int64_t pairs = 0;
      for (int src = first; src <= last; ++src) {
        if (src == l) continue;
        ++pairs;
        elems += x.local(src).nnz();
      }
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
        // Replication ships whole pieces, which the range filter may
        // only partially read.
        fp.block_bytes = 16 * elems;
      }
    }
    gather_dec = insp->decide("mxv.gather", fp);
  }
  const SiteStrategy gather_strat =
      insp != nullptr          ? gather_dec.strategy
      : opt.aggregated()       ? SiteStrategy::kAggregated
      : opt.gather_is_bulk()   ? SiteStrategy::kBulk
                               : SiteStrategy::kFine;

  // ---- gather x for each block's column range ----
  obs::GridSpan gather_span(grid, "mxv.gather");
  double t0 = grid.time();
  std::vector<SparseVec<T>> xc(static_cast<std::size_t>(nloc));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    std::vector<Index> idx;
    std::vector<T> val;
    AggConfig gather_cfg = opt.agg;
    gather_cfg.contention = static_cast<double>(pr);
    if (insp != nullptr) gather_cfg.capacity = gather_dec.agg_capacity;
    AggChannel chan(ctx, gather_cfg);
    // Owners of [clo, chi) under x's 1-D distribution.
    const int first = blk.chi > blk.clo ? x.owner(blk.clo) : 0;
    const int last = blk.chi > blk.clo ? x.owner(blk.chi - 1) : -1;
    for (int src = first; src <= last; ++src) {
      const auto& piece = x.local(src);
      Index piece_cnt = 0;
      for (Index p = 0; p < piece.nnz(); ++p) {
        const Index i = piece.index_at(p);
        if (i >= blk.clo && i < blk.chi) {
          idx.push_back(i);
          val.push_back(piece.value_at(p));
          ++piece_cnt;
        }
      }
      if (src != l) {
        if (gather_strat == SiteStrategy::kReplicate) {
          // Read-only replication of the whole piece (the range filter
          // reads a slice, but the replica serves any slice until the
          // content tag or the membership epoch moves).
          const std::uint64_t tag = piece.fingerprint();
          if (!insp->cache_lookup("mxv.gather", src, ctx.host(), tag)) {
            const std::int64_t bytes = 16 * piece.nnz();
            ctx.remote_rt(src, 8);
            ctx.remote_bulk(src, bytes);
            const int depth =
                replication_tree_depth(static_cast<double>(pr));
            if (depth > 1) {
              const bool intra =
                  grid.same_node(ctx.host(), grid.host_of(src));
              ctx.clock().advance(
                  static_cast<double>(depth - 1) *
                  grid.net().bulk(bytes, intra, grid.colocated()));
            }
            insp->cache_install("mxv.gather", src, ctx.host(), tag, bytes);
          }
          continue;
        }
        ctx.remote_rt(src, 8);
        if (gather_strat == SiteStrategy::kAggregated) {
          chan.get_elems(src, piece_cnt, 16);
        } else if (gather_strat == SiteStrategy::kBulk) {
          // Each x owner serves all pr locales of one processor column.
          ctx.remote_bulk(src, 16 * piece_cnt * pr);
        } else {
          ctx.remote_chain(src, piece_cnt, kRemoteElemRts + 1.0, 16,
                           /*contention=*/static_cast<double>(pr));
        }
      }
    }
    chan.drain();
    xc[static_cast<std::size_t>(l)] = SparseVec<T>::from_sorted(
        blk.chi - blk.clo, std::move(idx), std::move(val));
  });
  gather_span.end();
  grid.trace().add("gather", grid.time() - t0);

  // ---- local column-wise multiply into the block's row range ----
  obs::GridSpan local_span(grid, "mxv.local");
  t0 = grid.time();
  std::vector<SparseVec<T>> ly(static_cast<std::size_t>(nloc));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    ly[static_cast<std::size_t>(l)] = spmspv_columnwise(
        ctx, mirror.blocks[static_cast<std::size_t>(l)], blk.clo,
        xc[static_cast<std::size_t>(l)], blk.rlo, sr, opt);
  });
  local_span.end();
  grid.trace().add("local", grid.time() - t0);

  // Scatter-site inspection (see spmspv_dist): pc senders per
  // destination, writes can't replicate. The bulk branch spawns one
  // packing region per destination — charge that floor per pair.
  SiteDecision scatter_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = 16;
    fp.fanout = static_cast<double>(pc);
    fp.gather = false;
    fp.bulk_pair_overhead = grid.region_floor();
    for (int l = 0; l < nloc; ++l) {
      const std::int64_t elems = ly[static_cast<std::size_t>(l)].nnz();
      const std::int64_t pairs =
          std::min<std::int64_t>(nloc > 1 ? nloc - 1 : 0, pc);
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
      }
    }
    scatter_dec = insp->decide("mxv.scatter", fp);
  }
  const SiteStrategy scatter_strat =
      insp != nullptr          ? scatter_dec.strategy
      : opt.aggregated()       ? SiteStrategy::kAggregated
      : opt.scatter_is_bulk()  ? SiteStrategy::kBulk
                               : SiteStrategy::kFine;

  // ---- scatter/accumulate into the 1-D result over [0, nrows) ----
  obs::GridSpan scatter_span(grid, "mxv.scatter");
  t0 = grid.time();
  DistSparseVec<T> y(grid, a.nrows());
  std::vector<Spa<T>> yspa;
  yspa.reserve(static_cast<std::size_t>(nloc));
  for (int o = 0; o < nloc; ++o) {
    yspa.emplace_back(y.dist().lo(o), y.dist().hi(o));
  }
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& part = ly[static_cast<std::size_t>(l)];
    std::vector<std::int64_t> count_to(static_cast<std::size_t>(nloc), 0);
    if (scatter_strat == SiteStrategy::kAggregated) {
      // Same conveyor schedule as spmspv_dist's scatter, with row-wise
      // receiver contention (pc senders per destination).
      struct Update {
        Index r;
        T v;
      };
      AggConfig cfg = opt.agg;
      cfg.contention = static_cast<double>(pc);
      if (insp != nullptr) cfg.capacity = scatter_dec.agg_capacity;
      DstAggregator<Update> agg(
          ctx,
          [&](int peer, std::vector<Update>& batch) {
            for (const auto& u : batch) {
              yspa[static_cast<std::size_t>(peer)].accumulate(u.r, u.v,
                                                              sr.add);
            }
          },
          cfg);
      for (Index p = 0; p < part.nnz(); ++p) {
        const Index r = part.index_at(p);
        const int o = y.dist().owner(r);
        agg.push(o, Update{r, part.value_at(p)});
        ++count_to[static_cast<std::size_t>(o)];
      }
      agg.flush_all();
      CostVector c;
      c.add(CostKind::kRandAccess,
            static_cast<double>(count_to[static_cast<std::size_t>(l)]));
      c.add(CostKind::kCpuOps,
            20.0 * static_cast<double>(count_to[static_cast<std::size_t>(l)]));
      for (int o = 0; o < nloc; ++o) {
        const auto cnt = count_to[static_cast<std::size_t>(o)];
        if (o == l || cnt == 0) continue;
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(cnt));
        c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(cnt));
      }
      ctx.parallel_region(c);
      return;
    }
    for (Index p = 0; p < part.nnz(); ++p) {
      const Index r = part.index_at(p);
      const int o = y.dist().owner(r);
      yspa[static_cast<std::size_t>(o)].accumulate(r, part.value_at(p),
                                                   sr.add);
      ++count_to[static_cast<std::size_t>(o)];
    }
    for (int o = 0; o < nloc; ++o) {
      const auto cnt = count_to[static_cast<std::size_t>(o)];
      if (cnt == 0) continue;
      if (o == l) {
        CostVector c;
        c.add(CostKind::kRandAccess, static_cast<double>(cnt));
        c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(cnt));
        ctx.parallel_region(c);
      } else if (scatter_strat == SiteStrategy::kBulk) {
        CostVector c;
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(cnt));
        c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(cnt));
        ctx.parallel_region(c);
        // Destinations drain batches from the pc locales of one row.
        ctx.remote_bulk(o, 16 * cnt * pc);
      } else {
        ctx.remote_msgs(o, cnt, 16, /*contention=*/static_cast<double>(pc));
      }
    }
  });
  grid.coforall_locales([&](LocaleCtx& ctx) {
    detail::finalize_owner(ctx, yspa[static_cast<std::size_t>(ctx.locale())],
                           y, nullptr, MaskMode::kNone);
  });
  scatter_span.end();
  grid.trace().add("scatter", grid.time() - t0);
  return y;
}

}  // namespace pgb
