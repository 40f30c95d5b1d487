// Tests for the local sparse containers: SparseDomain, SparseVec,
// DenseVec, CSR, COO->CSR construction, and the sparse accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_vec.hpp"
#include "sparse/spa.hpp"
#include "sparse/sparse_domain.hpp"
#include "sparse/sparse_vec.hpp"

namespace pgb {
namespace {

TEST(SparseDomain, FromUnsortedSortsAndDedupes) {
  auto d = SparseDomain::from_unsorted({5, 1, 3, 1, 5});
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[1], 3);
  EXPECT_EQ(d[2], 5);
}

TEST(SparseDomain, FindReturnsPositionOrMinusOne) {
  auto d = SparseDomain::from_sorted({2, 4, 8, 16});
  EXPECT_EQ(d.find(2), 0);
  EXPECT_EQ(d.find(16), 3);
  EXPECT_EQ(d.find(3), -1);
  EXPECT_EQ(d.find(100), -1);
  EXPECT_TRUE(d.contains(8));
  EXPECT_FALSE(d.contains(9));
}

TEST(SparseDomain, AddSortedMergesLikeChapelPlusEquals) {
  auto d = SparseDomain::from_sorted({1, 5, 9});
  std::vector<Index> more{2, 5, 10};
  d.add_sorted(more);
  EXPECT_EQ(d.size(), 5);
  EXPECT_EQ(d.indices()[1], 2);
  EXPECT_EQ(d.indices()[4], 10);
}

TEST(SparseDomain, AddIntoEmpty) {
  SparseDomain d;
  std::vector<Index> idx{3, 7};
  d.add_sorted(idx);
  EXPECT_EQ(d.size(), 2);
  d.clear();
  EXPECT_TRUE(d.empty());
}

TEST(SparseVec, FromSortedAlignsValues) {
  auto v = SparseVec<double>::from_sorted(100, {10, 20}, {1.5, 2.5});
  EXPECT_EQ(v.capacity(), 100);
  EXPECT_EQ(v.nnz(), 2);
  EXPECT_EQ(*v.find(20), 2.5);
  EXPECT_EQ(v.find(15), nullptr);
}

TEST(SparseVec, FromUnsortedSortsPairs) {
  auto v = SparseVec<int>::from_unsorted(10, {7, 2, 5}, {70, 20, 50});
  EXPECT_EQ(v.index_at(0), 2);
  EXPECT_EQ(v.value_at(0), 20);
  EXPECT_EQ(v.index_at(2), 7);
  EXPECT_EQ(v.value_at(2), 70);
}

TEST(SparseVec, LengthMismatchThrows) {
  EXPECT_THROW(SparseVec<int>::from_sorted(10, {1, 2}, {1}),
               InvalidArgument);
}

TEST(SparseVec, SetValuesValidatesSize) {
  auto v = SparseVec<int>::from_sorted(10, {1, 2}, {1, 2});
  EXPECT_THROW(v.set_values({1}), InvalidArgument);
  v.set_values({9, 8});
  EXPECT_EQ(v.value_at(0), 9);
}

TEST(DenseVec, RangeIndexing) {
  DenseVec<double> v(10, 20, 1.0);
  EXPECT_EQ(v.lo(), 10);
  EXPECT_EQ(v.hi(), 20);
  EXPECT_EQ(v.size(), 10);
  v[15] = 3.0;
  EXPECT_EQ(v[15], 3.0);
  EXPECT_EQ(v[10], 1.0);
  v.fill(0.0);
  EXPECT_EQ(v[15], 0.0);
}

TEST(Csr, FromPartsAndAccessors) {
  // 3x4: row0 {1:10, 3:30}, row1 {}, row2 {0:5}
  auto m = Csr<int>::from_parts(3, 4, {0, 2, 2, 3}, {1, 3, 0}, {10, 30, 5});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_EQ(m.row_start(2), 2);
  EXPECT_EQ(m.row_end(2), 3);
  EXPECT_EQ(*m.find(0, 3), 30);
  EXPECT_EQ(m.find(0, 2), nullptr);
  EXPECT_EQ(m.find(1, 0), nullptr);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Csr, RowSpansMatchArrays) {
  auto m = Csr<int>::from_parts(2, 5, {0, 3, 4}, {0, 2, 4, 1}, {1, 2, 3, 4});
  auto cols = m.row_colids(0);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[2], 4);
  auto vals = m.row_values(1);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 4);
}

TEST(Csr, FromPartsRejectsBadRowptr) {
  EXPECT_THROW(Csr<int>::from_parts(2, 2, {0, 1}, {0}, {1}),
               InvalidArgument);
  EXPECT_THROW(Csr<int>::from_parts(2, 2, {0, 1, 3}, {0, 1}, {1, 2}),
               InvalidArgument);
}

TEST(Csr, EmptyMatrix) {
  Csr<double> m(0, 0);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Coo, ToCsrSortsRowsAndColumns) {
  Coo<int> coo(3, 3);
  coo.add(2, 1, 21);
  coo.add(0, 2, 2);
  coo.add(0, 0, 0);
  coo.add(1, 1, 11);
  auto m = coo.to_csr();
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(*m.find(2, 1), 21);
  EXPECT_EQ(m.row_colids(0)[0], 0);
  EXPECT_EQ(m.row_colids(0)[1], 2);
}

TEST(Coo, DuplicatesCombined) {
  Coo<int> coo(2, 2);
  coo.add(0, 0, 1);
  coo.add(0, 0, 2);
  coo.add(0, 0, 4);
  auto last = coo.to_csr();
  EXPECT_EQ(*last.find(0, 0), 4);  // default keeps last
  auto sum = coo.to_csr([](int a, int b) { return a + b; });
  EXPECT_EQ(*sum.find(0, 0), 7);
  EXPECT_EQ(sum.nnz(), 1);
}

// The whole-array build Coo::to_csr replaced: stable sort on (row, col),
// then fold duplicates left.
template <typename T, typename Combine>
Csr<T> reference_to_csr(const Coo<T>& coo, Combine combine) {
  std::vector<Triple<T>> s = coo.triples();
  std::stable_sort(s.begin(), s.end(), [](const auto& a, const auto& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<Index> rowptr(static_cast<std::size_t>(coo.nrows()) + 1, 0);
  std::vector<Index> colids;
  std::vector<T> vals;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0 && s[i - 1].row == s[i].row && s[i - 1].col == s[i].col) {
      vals.back() = combine(vals.back(), s[i].val);
    } else {
      colids.push_back(s[i].col);
      vals.push_back(s[i].val);
      ++rowptr[static_cast<std::size_t>(s[i].row) + 1];
    }
  }
  for (Index r = 0; r < coo.nrows(); ++r) rowptr[r + 1] += rowptr[r];
  return Csr<T>::from_parts(coo.nrows(), coo.ncols(), std::move(rowptr),
                            std::move(colids), std::move(vals));
}

template <typename T>
void expect_same_csr(const Csr<T>& a, const Csr<T>& b) {
  ASSERT_TRUE(std::ranges::equal(a.rowptr(), b.rowptr()));
  ASSERT_TRUE(std::ranges::equal(a.colids(), b.colids()));
  ASSERT_TRUE(std::ranges::equal(a.values(), b.values()));
}

TEST(Coo, ToCsrMatchesStableSortReference) {
  // Rows and columns are drawn from a small range so duplicates are
  // common; row 0 gets a long run so it takes the stable_sort branch
  // while the others take the insertion-sort branch; nrows > the rows
  // used leaves empty rows, including trailing ones.
  const auto keep_last = [](std::int64_t, std::int64_t b) { return b; };
  const auto sum = [](std::int64_t a, std::int64_t b) { return a + b; };
  const auto ordered = [](std::int64_t a, std::int64_t b) {
    // Not commutative, so the folding order shows; the modulus keeps
    // long duplicate runs from overflowing.
    return (a * 31 + b) % 1000003;
  };
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const Index nrows = 1 + static_cast<Index>(rng() % 40);
    const Index ncols = 1 + static_cast<Index>(rng() % 60);
    const std::size_t ntriples = trial == 0 ? 0 : rng() % 400;
    Coo<std::int64_t> coo(nrows, ncols);
    const Index used_rows = std::max<Index>(1, nrows / 2);
    for (std::size_t i = 0; i < ntriples; ++i) {
      const Index r =
          (i % 3 == 0) ? 0 : static_cast<Index>(rng() % used_rows);
      coo.add(r, static_cast<Index>(rng() % ncols),
              static_cast<std::int64_t>(rng() % 1000));
    }
    expect_same_csr(coo.to_csr(), reference_to_csr(coo, keep_last));
    expect_same_csr(coo.to_csr(sum), reference_to_csr(coo, sum));
    expect_same_csr(coo.to_csr(ordered), reference_to_csr(coo, ordered));
  }
}

TEST(Coo, ToCsrLongRowWithDuplicates) {
  // 100 entries in one row (stable_sort branch), every column thrice,
  // inserted in descending order.
  Coo<std::int64_t> coo(3, 40);
  for (int rep = 0; rep < 3; ++rep) {
    for (Index c = 33; c >= 0; --c) coo.add(1, c, 10 * rep + 1);
  }
  const auto ordered = [](std::int64_t a, std::int64_t b) {
    return (a * 31 + b) % 1000003;
  };
  auto m = coo.to_csr(ordered);
  expect_same_csr(m, reference_to_csr(coo, ordered));
  EXPECT_EQ(m.row_nnz(0), 0);
  EXPECT_EQ(m.row_nnz(1), 34);
  EXPECT_EQ(*m.find(1, 5), (1 * 31 + 11) * 31 + 21);
}

TEST(Coo, ToCsrNoTriples) {
  Coo<double> coo(5, 7);
  auto m = coo.to_csr();
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(m.nrows(), 5);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Spa, AccumulateCombinesOnRevisit) {
  Spa<double> spa(10, 20);
  auto add = [](double a, double b) { return a + b; };
  spa.accumulate(12, 1.0, add);
  spa.accumulate(15, 2.0, add);
  spa.accumulate(12, 3.0, add);
  EXPECT_EQ(spa.nnz(), 2);
  EXPECT_TRUE(spa.has(12));
  EXPECT_EQ(spa.value(12), 4.0);
  EXPECT_EQ(spa.value(15), 2.0);
}

TEST(Spa, SetIfAbsentKeepsFirst) {
  Spa<int> spa(0, 5);
  EXPECT_TRUE(spa.set_if_absent(3, 30));
  EXPECT_FALSE(spa.set_if_absent(3, 99));
  EXPECT_EQ(spa.value(3), 30);
}

TEST(Spa, ResetOnlyClearsTouched) {
  Spa<int> spa(0, 100);
  auto add = [](int a, int b) { return a + b; };
  spa.accumulate(7, 1, add);
  spa.accumulate(42, 1, add);
  spa.reset();
  EXPECT_EQ(spa.nnz(), 0);
  EXPECT_FALSE(spa.has(7));
  EXPECT_FALSE(spa.has(42));
  // Reusable after reset.
  spa.accumulate(7, 5, add);
  EXPECT_EQ(spa.value(7), 5);
}

// ---- SpaEmission: for_each_sorted is the only ordered read of a SPA ----

// Touches `k` seeded random indices of spa's range (with repeats) and
// returns the expected sums per index.
std::map<Index, double> touch_random(Spa<double>& spa, Index k,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> pick(spa.lo(), spa.hi() - 1);
  std::map<Index, double> want;
  const auto add = [](double a, double b) { return a + b; };
  for (Index t = 0; t < k; ++t) {
    const Index i = pick(rng);
    const double v = static_cast<double>(t % 7) + 0.5;
    spa.accumulate(i, v, add);
    want[i] += v;
  }
  return want;
}

// Checks the emission equals std::sort of the touched set, values included.
void expect_emits(const Spa<double>& spa, const std::map<Index, double>& want) {
  std::vector<Index> sorted(spa.nzinds().begin(), spa.nzinds().end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<Index> got_idx;
  std::vector<double> got_val;
  spa.for_each_sorted([&](Index i, const double& v) {
    got_idx.push_back(i);
    got_val.push_back(v);
  });
  ASSERT_EQ(got_idx, sorted);
  ASSERT_EQ(static_cast<Index>(got_idx.size()), spa.nnz());
  ASSERT_EQ(got_idx.size(), want.size());
  std::size_t p = 0;
  for (const auto& [i, v] : want) {
    EXPECT_EQ(got_idx[p], i);
    EXPECT_EQ(got_val[p], v);
    ++p;
  }
}

TEST(SpaEmission, RandomTouchPatternsMatchSortedSet) {
  // Ranges off a multiple of 64, shifted lo, from one touch to every
  // index, so both the bitmap scan and the sort fallback run.
  std::uint64_t seed = 1;
  for (Index lo : {Index{0}, Index{37}, Index{1} << 20}) {
    for (Index range : {Index{1}, Index{63}, Index{65}, Index{1000},
                        Index{4097}, Index{100003}}) {
      for (Index k : {Index{1}, Index{2}, range / 100, range / 8, range,
                      4 * range}) {
        if (k < 1) continue;
        Spa<double> spa(lo, lo + range);
        const auto want = touch_random(spa, k, seed++);
        SCOPED_TRACE(::testing::Message()
                     << "lo=" << lo << " range=" << range << " k=" << k);
        expect_emits(spa, want);
      }
    }
  }
}

TEST(SpaEmission, FullRangeEmitsEveryIndex) {
  Spa<double> spa(5, 5 + 130);
  std::map<Index, double> want;
  const auto add = [](double a, double b) { return a + b; };
  for (Index i = spa.hi() - 1; i >= spa.lo(); --i) {
    spa.accumulate(i, static_cast<double>(i), add);
    want[i] = static_cast<double>(i);
  }
  expect_emits(spa, want);
}

TEST(SpaEmission, ReuseAcrossResetLikeMxmRows) {
  // mxm reuses one SPA per row: every row's emission must see only that
  // row's touches, whichever of scan or sort it takes.
  Spa<double> spa(64, 64 + 5000);
  std::uint64_t seed = 100;
  for (Index k : {Index{3}, Index{4000}, Index{1}, Index{20000}, Index{50},
                  Index{0}, Index{700}}) {
    const auto want = touch_random(spa, k, seed++);
    expect_emits(spa, want);
    spa.reset();
    EXPECT_EQ(spa.nnz(), 0);
  }
  spa.for_each_sorted([](Index, const double&) { FAIL(); });
}

}  // namespace
}  // namespace pgb
