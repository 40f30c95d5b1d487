// Tests for the workload generators: determinism, statistical shape, and
// local/distributed structural equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "gen/rmat.hpp"

namespace pgb {
namespace {

TEST(SampleIndices, ExactCountSortedDistinct) {
  auto idx = sample_sorted_indices(1000, 100, 42);
  ASSERT_EQ(idx.size(), 100u);
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_LT(idx[i - 1], idx[i]);
  }
  EXPECT_GE(idx.front(), 0);
  EXPECT_LT(idx.back(), 1000);
}

TEST(SampleIndices, Deterministic) {
  EXPECT_EQ(sample_sorted_indices(5000, 500, 7),
            sample_sorted_indices(5000, 500, 7));
  EXPECT_NE(sample_sorted_indices(5000, 500, 7),
            sample_sorted_indices(5000, 500, 8));
}

TEST(SampleIndices, EdgeCases) {
  EXPECT_TRUE(sample_sorted_indices(10, 0, 1).empty());
  auto all = sample_sorted_indices(10, 10, 1);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[9], 9);
  EXPECT_THROW(sample_sorted_indices(10, 11, 1), InvalidArgument);
}

TEST(SampleIndices, RoughlyUniform) {
  // Mean of 2000 samples from [0, 10000) should be near 5000.
  auto idx = sample_sorted_indices(10000, 2000, 99);
  double mean = 0;
  for (auto i : idx) mean += static_cast<double>(i);
  mean /= static_cast<double>(idx.size());
  EXPECT_NEAR(mean, 5000.0, 200.0);
}

TEST(RandomVec, ValuesDeterministic) {
  auto a = random_sparse_vec<double>(1000, 50, 3);
  auto b = random_sparse_vec<double>(1000, 50, 3);
  EXPECT_TRUE(a == b);
}

TEST(RandomBoolVec, DensityApproximatelyP) {
  auto grid = LocaleGrid::square(4, 1);
  auto y = random_dist_bool_vec(grid, 20000, 0.5, 17);
  Index trues = 0;
  for (int l = 0; l < 4; ++l) {
    for (auto v : y.local(l).raw()) trues += v;
  }
  EXPECT_NEAR(static_cast<double>(trues) / 20000.0, 0.5, 0.03);
}

TEST(ErdosRenyi, RowColumnsSortedDistinctInRange) {
  for (Index r = 0; r < 50; ++r) {
    auto cols = er_row_columns(1000, 8.0, 5, r);
    std::set<Index> s(cols.begin(), cols.end());
    EXPECT_EQ(s.size(), cols.size());
    for (std::size_t i = 1; i < cols.size(); ++i) {
      EXPECT_LT(cols[i - 1], cols[i]);
    }
    for (Index c : cols) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 1000);
    }
  }
}

TEST(ErdosRenyi, MeanDegreeApproximatesD) {
  const Index n = 2000;
  auto m = erdos_renyi_csr<double>(n, 16.0, 21);
  const double mean =
      static_cast<double>(m.nnz()) / static_cast<double>(n);
  EXPECT_NEAR(mean, 16.0, 0.6);
  EXPECT_TRUE(m.check_invariants());
}

// Every block of `dist` holds exactly the entries of `local` in its row
// and column range, row by row.
template <typename T>
void expect_blocks_match(const DistCsr<T>& dist, const Csr<T>& local) {
  ASSERT_TRUE(dist.check_invariants());
  EXPECT_EQ(dist.nnz(), local.nnz());
  for (int l = 0; l < dist.grid().num_locales(); ++l) {
    const auto& b = dist.block(l);
    ASSERT_EQ(b.csr.nrows(), b.rhi - b.rlo);
    for (Index r = b.rlo; r < b.rhi; ++r) {
      std::vector<Index> want_c;
      std::vector<T> want_v;
      auto cols = local.row_colids(r);
      auto vals = local.row_values(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] >= b.clo && cols[k] < b.chi) {
          want_c.push_back(cols[k]);
          want_v.push_back(vals[k]);
        }
      }
      auto got_c = b.csr.row_colids(r - b.rlo);
      auto got_v = b.csr.row_values(r - b.rlo);
      ASSERT_EQ(std::vector<Index>(got_c.begin(), got_c.end()), want_c)
          << "locale " << l << " row " << r;
      ASSERT_EQ(std::vector<T>(got_v.begin(), got_v.end()), want_v);
    }
  }
}

TEST(ErdosRenyi, RowColumnsAppendForm) {
  std::vector<Index> buf{-1};
  for (Index r = 0; r < 20; ++r) {
    const std::size_t before = buf.size();
    er_row_columns(1000, 8.0, 5, r, buf);
    const auto fresh = er_row_columns(1000, 8.0, 5, r);
    EXPECT_EQ(std::vector<Index>(buf.begin() + before, buf.end()), fresh);
  }
  EXPECT_EQ(buf.front(), -1);  // earlier contents untouched
}

TEST(ErdosRenyi, DistStructureEqualsLocalAcrossGrids) {
  // 301 divides by none of the grid dimensions; 1x5, 3x2 and 4x2 are
  // non-square, and 16 and 64 locales exercise many column blocks.
  const Index n = 301;
  auto local = erdos_renyi_csr<int>(n, 4.0, 9);
  for (int nloc : {2, 4, 6, 16, 64}) {
    auto grid = LocaleGrid::square(nloc, 1);
    expect_blocks_match(erdos_renyi_dist<int>(grid, n, 4.0, 9), local);
  }
  for (auto [rows, cols] : {std::pair{1, 5}, std::pair{3, 2},
                            std::pair{4, 2}, std::pair{5, 1}}) {
    LocaleGrid grid(GridConfig{.rows = rows, .cols = cols});
    expect_blocks_match(erdos_renyi_dist<int>(grid, n, 4.0, 9), local);
  }
}

TEST(Rmat, ProducesExpectedShape) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  auto m = rmat_csr(p);
  EXPECT_EQ(m.nrows(), 1024);
  EXPECT_TRUE(m.check_invariants());
  // Symmetric generation with dedup: nnz <= 2 * ef * n, and self-loops
  // are dropped.
  EXPECT_LE(m.nnz(), 2 * 8 * 1024);
  EXPECT_GT(m.nnz(), 1024);
  for (Index r = 0; r < m.nrows(); ++r) {
    for (Index c : m.row_colids(r)) EXPECT_NE(c, r);
  }
}

TEST(Rmat, SymmetricWhenRequested) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  auto m = rmat_csr(p);
  for (Index r = 0; r < m.nrows(); ++r) {
    for (Index c : m.row_colids(r)) {
      EXPECT_NE(m.find(c, r), nullptr) << "missing reverse of " << r
                                       << "->" << c;
    }
  }
}

TEST(Rmat, SkewedDegreesVsErdosRenyi) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  auto m = rmat_csr(p);
  Index dmax = 0;
  for (Index r = 0; r < m.nrows(); ++r) dmax = std::max(dmax, m.row_nnz(r));
  const double mean = static_cast<double>(m.nnz()) /
                      static_cast<double>(m.nrows());
  EXPECT_GT(static_cast<double>(dmax), 6.0 * mean);  // power-law-ish skew
}

TEST(Rmat, DistMatchesLocal) {
  RmatParams p;
  p.scale = 8;
  auto grid = LocaleGrid::square(4, 1);
  auto dist = rmat_dist(grid, p);
  auto local = rmat_csr(p);
  expect_blocks_match(dist, local);
}

TEST(Rmat, FromCsrEqualsFromCoo) {
  // Splitting the sorted local CSR must give the blocks the COO scatter
  // builds, including with hub rows longer than the insertion-sort cut.
  RmatParams p;
  p.scale = 10;
  auto local = rmat_csr(p);
  Coo<std::int64_t> coo(local.nrows(), local.ncols());
  for (Index r = 0; r < local.nrows(); ++r) {
    auto cols = local.row_colids(r);
    auto vals = local.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) coo.add(r, cols[k], vals[k]);
  }
  for (auto [rows, cols] : {std::pair{1, 1}, std::pair{2, 3},
                            std::pair{4, 4}, std::pair{8, 8}}) {
    LocaleGrid grid(GridConfig{.rows = rows, .cols = cols});
    auto a = DistCsr<std::int64_t>::from_csr(grid, local);
    auto b = DistCsr<std::int64_t>::from_coo(grid, coo);
    for (int l = 0; l < grid.num_locales(); ++l) {
      const auto& x = a.block(l).csr;
      const auto& y = b.block(l).csr;
      ASSERT_TRUE(std::ranges::equal(x.rowptr(), y.rowptr())) << l;
      ASSERT_TRUE(std::ranges::equal(x.colids(), y.colids())) << l;
      ASSERT_TRUE(std::ranges::equal(x.values(), y.values())) << l;
    }
    expect_blocks_match(a, local);
  }
}

}  // namespace
}  // namespace pgb
