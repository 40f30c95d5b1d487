// Erdős–Rényi G(n, d/n) sparse matrix generator (paper Section II-A):
// every edge present independently with probability p = d/n, so each row
// holds Poisson(d)-many nonzeros uniformly spread over the columns.
//
// Rows are generated independently from (seed, row), so the distributed
// build draws each row exactly once — a block-row at a time, split across
// its column blocks — and still has bit-identical structure to the local
// build: distributed and shared-memory benches see the same matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/locale_grid.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/rng.hpp"

namespace pgb {

/// Appends the sorted distinct column ids of one ER row to `out` (a
/// caller-owned buffer, so a builder allocates nothing per row). Count ~
/// Poisson(d), capped at n.
void er_row_columns(Index n, double d, std::uint64_t seed, Index row,
                    std::vector<Index>& out);

/// The same columns as a fresh vector.
std::vector<Index> er_row_columns(Index n, double d, std::uint64_t seed,
                                  Index row);

/// Local CSR with all values T(1) (graph adjacency semantics).
template <typename T>
Csr<T> erdos_renyi_csr(Index n, double d, std::uint64_t seed) {
  std::vector<Index> rowptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> colids;
  colids.reserve(static_cast<std::size_t>(d * static_cast<double>(n) * 1.1) +
                 16);
  for (Index r = 0; r < n; ++r) {
    er_row_columns(n, d, seed, r, colids);
    rowptr[static_cast<std::size_t>(r) + 1] =
        static_cast<Index>(colids.size());
  }
  std::vector<T> vals(colids.size(), T(1));
  return Csr<T>::from_parts(n, n, std::move(rowptr), std::move(colids),
                            std::move(vals));
}

/// 2-D block-distributed ER matrix. Each block-row draws its rows once,
/// from the same per-row streams as the local build, into one scratch
/// buffer; set_block_row then splits the sorted rows across the column
/// blocks at exact size.
template <typename T>
DistCsr<T> erdos_renyi_dist(LocaleGrid& grid, Index n, double d,
                            std::uint64_t seed) {
  DistCsr<T> m(grid, n, n);
  const BlockDist1D& rowd = m.dist().rowd();
  std::vector<Index> rowptr;
  std::vector<Index> cols;
  for (int pr = 0; pr < rowd.parts(); ++pr) {
    rowptr.assign(1, 0);
    cols.clear();
    for (Index r = rowd.lo(pr); r < rowd.hi(pr); ++r) {
      er_row_columns(n, d, seed, r, cols);
      rowptr.push_back(static_cast<Index>(cols.size()));
    }
    m.set_block_row(pr, rowptr, cols, [](std::size_t) { return T(1); });
  }
  return m;
}

}  // namespace pgb
