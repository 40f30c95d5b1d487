// 2-D block-distributed sparse matrix in CSR format — the paper's matrix
// representation (Section II-B): locales form a prows x pcols grid; locale
// (r, c) owns the CSR block covering row-block r and column-block c. Rows
// within a block are locally indexed; column ids stay global (the block
// knows its column range).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "runtime/dist.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace pgb {

template <typename T>
class DistCsr {
 public:
  struct Block {
    Index rlo = 0, rhi = 0;  ///< global row range [rlo, rhi)
    Index clo = 0, chi = 0;  ///< global column range [clo, chi)
    Csr<T> csr;              ///< rows local (0-based), colids global
  };

  DistCsr(LocaleGrid& grid, Index nrows, Index ncols)
      : grid_(&grid), dist_(nrows, ncols, grid.rows(), grid.cols()) {
    blocks_.resize(grid.num_locales());
    for (int l = 0; l < grid.num_locales(); ++l) {
      auto& b = blocks_[l];
      b.rlo = dist_.rowd().lo(dist_.prow_of(l));
      b.rhi = dist_.rowd().hi(dist_.prow_of(l));
      b.clo = dist_.cold().lo(dist_.pcol_of(l));
      b.chi = dist_.cold().hi(dist_.pcol_of(l));
      b.csr = Csr<T>(b.rhi - b.rlo, ncols);
    }
  }

  /// Scatters a global COO into the per-locale blocks; duplicate
  /// coordinates are combined with `combine` (default: keep the last).
  /// One counting pass buckets the triples by (owner block, local row)
  /// into a single scratch array, in insertion order; each block's rows
  /// are then column-sorted and folded as Coo::to_csr does.
  template <typename Combine>
  static DistCsr from_coo(LocaleGrid& grid, const Coo<T>& coo,
                          Combine combine) {
    DistCsr m(grid, coo.nrows(), coo.ncols());
    const BlockDist1D& rowd = m.dist_.rowd();
    const BlockDist1D& cold = m.dist_.cold();
    // Owner part of every row and column: a table walk, no division.
    auto parts_of = [](const BlockDist1D& d) {
      std::vector<int> part(static_cast<std::size_t>(d.n()));
      for (int p = 0; p < d.parts(); ++p) {
        std::fill(part.begin() + d.lo(p), part.begin() + d.hi(p), p);
      }
      return part;
    };
    const std::vector<int> prow = parts_of(rowd);
    const std::vector<int> pcol = parts_of(cold);
    const int nloc = grid.num_locales();
    const int pc = cold.parts();

    std::vector<std::vector<Index>> rowptr(static_cast<std::size_t>(nloc));
    for (int l = 0; l < nloc; ++l) {
      const auto& b = m.blocks_[l];
      rowptr[l].assign(static_cast<std::size_t>(b.rhi - b.rlo) + 1, 0);
    }
    for (const auto& t : coo.triples()) {
      const int pr = prow[static_cast<std::size_t>(t.row)];
      const int l = pr * pc + pcol[static_cast<std::size_t>(t.col)];
      ++rowptr[l][static_cast<std::size_t>(t.row - rowd.lo(pr)) + 1];
    }
    // Block l's entries start at base[l] in the scratch array.
    std::vector<Index> base(static_cast<std::size_t>(nloc) + 1, 0);
    std::vector<std::vector<Index>> next(static_cast<std::size_t>(nloc));
    for (int l = 0; l < nloc; ++l) {
      auto& rp = rowptr[l];
      for (std::size_t r = 1; r < rp.size(); ++r) rp[r] += rp[r - 1];
      base[l + 1] = base[l] + rp.back();
      next[l].assign(rp.begin(), rp.end() - 1);
    }
    std::vector<RowEntry<T>> e(coo.triples().size());
    for (const auto& t : coo.triples()) {
      const int pr = prow[static_cast<std::size_t>(t.row)];
      const int l = pr * pc + pcol[static_cast<std::size_t>(t.col)];
      const Index at =
          base[l] + next[l][static_cast<std::size_t>(t.row - rowd.lo(pr))]++;
      e[static_cast<std::size_t>(at)] = {t.col, t.val};
    }
    for (int l = 0; l < nloc; ++l) {
      auto& b = m.blocks_[l];
      b.csr = csr_from_row_buckets<T>(
          b.rhi - b.rlo, coo.ncols(), std::move(rowptr[l]),
          std::span(e).subspan(static_cast<std::size_t>(base[l]),
                               static_cast<std::size_t>(base[l + 1] - base[l])),
          combine);
    }
    return m;
  }

  static DistCsr from_coo(LocaleGrid& grid, const Coo<T>& coo) {
    return from_coo(grid, coo, [](const T&, const T& b) { return b; });
  }

  /// Splits a local CSR (columns sorted within each row, no duplicates)
  /// straight into the per-locale blocks, converting values to T — no
  /// COO round trip and no sort.
  template <typename U>
  static DistCsr from_csr(LocaleGrid& grid, const Csr<U>& a) {
    DistCsr m(grid, a.nrows(), a.ncols());
    const BlockDist1D& rowd = m.dist_.rowd();
    const auto vals = a.values();
    for (int pr = 0; pr < rowd.parts(); ++pr) {
      m.set_block_row(
          pr,
          a.rowptr().subspan(static_cast<std::size_t>(rowd.lo(pr)),
                             static_cast<std::size_t>(rowd.local_size(pr)) + 1),
          a.colids(), [&](std::size_t k) { return static_cast<T>(vals[k]); });
    }
    return m;
  }

  /// Fills every block of block-row `prow` from that block-row's rows in
  /// CSR form: row i's entries are colids[rowptr[i], rowptr[i+1]), sorted
  /// and distinct global column ids, and value_of(k) is entry k's value.
  /// A forward cursor per row splits the columns at the column-block
  /// boundaries; each block's arrays are allocated at exact size.
  template <typename ValueOf>
  void set_block_row(int prow, std::span<const Index> rowptr,
                     std::span<const Index> colids, ValueOf value_of) {
    const Index nr = dist_.rowd().local_size(prow);
    PGB_REQUIRE(rowptr.size() == static_cast<std::size_t>(nr) + 1,
                "set_block_row: rowptr length must be rows+1");
    // cur[i]: row i's first entry not yet handed to a column block.
    std::vector<Index> cur(rowptr.begin(), rowptr.end() - 1);
    for (int pcol = 0; pcol < dist_.pcols(); ++pcol) {
      auto& b = blocks_[prow * dist_.pcols() + pcol];
      std::vector<Index> rp(static_cast<std::size_t>(nr) + 1, 0);
      for (Index i = 0; i < nr; ++i) {
        Index q = cur[i];
        while (q < rowptr[i + 1] && colids[q] < b.chi) ++q;
        rp[i + 1] = rp[i] + (q - cur[i]);
        cur[i] = q;
      }
      std::vector<Index> cids(static_cast<std::size_t>(rp[nr]));
      std::vector<T> vals(cids.size());
      for (Index i = 0; i < nr; ++i) {
        const Index len = rp[i + 1] - rp[i];
        for (Index k = 0; k < len; ++k) {
          const auto src = static_cast<std::size_t>(cur[i] - len + k);
          cids[rp[i] + k] = colids[src];
          vals[rp[i] + k] = value_of(src);
        }
      }
      b.csr = Csr<T>::from_parts(nr, ncols(), std::move(rp), std::move(cids),
                                 std::move(vals));
    }
  }

  LocaleGrid& grid() const { return *grid_; }
  const BlockDist2D& dist() const { return dist_; }
  Index nrows() const { return dist_.rowd().n(); }
  Index ncols() const { return dist_.cold().n(); }

  Index nnz() const {
    Index s = 0;
    for (const auto& b : blocks_) s += b.csr.nnz();
    return s;
  }

  Block& block(int l) { return blocks_[l]; }
  const Block& block(int l) const { return blocks_[l]; }

  /// Gathers into one local CSR (test/debug only).
  Csr<T> to_local() const {
    Coo<T> coo(nrows(), ncols());
    coo.reserve(static_cast<std::size_t>(nnz()));
    for (const auto& b : blocks_) {
      for (Index lr = 0; lr < b.csr.nrows(); ++lr) {
        auto cols = b.csr.row_colids(lr);
        auto vals = b.csr.row_values(lr);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          coo.add(b.rlo + lr, cols[k], vals[k]);
        }
      }
    }
    return coo.to_csr();
  }

  bool check_invariants() const {
    for (const auto& b : blocks_) {
      if (!b.csr.check_invariants()) return false;
      for (Index c : b.csr.colids()) {
        if (c < b.clo || c >= b.chi) return false;
      }
    }
    return true;
  }

 private:
  LocaleGrid* grid_;
  BlockDist2D dist_;
  std::vector<Block> blocks_;
};

}  // namespace pgb
