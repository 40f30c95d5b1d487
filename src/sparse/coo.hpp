// Coordinate-format triples and CSR construction. Generators emit COO;
// Coo::to_csr buckets the triples by row with a stable counting sort,
// sorts each row by column (stably, so duplicates keep insertion order),
// folds duplicates left with a binary op, and builds the CSR at exact
// size. DistCsr::from_coo runs the same per-row step on its blocks.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"

namespace pgb {

template <typename T>
struct Triple {
  Index row;
  Index col;
  T val;
};

/// One row's (column, value) entries, bucketed but not yet column-sorted.
template <typename T>
using RowEntry = std::pair<Index, T>;

/// Rows of at most this many entries are column-sorted by insertion sort;
/// longer ones (R-MAT hubs) by std::stable_sort, which pure insertion
/// sort trails by ~1.5x on R-MAT scale 16.
inline constexpr std::ptrdiff_t kInsertionSortMaxRow = 32;

/// Builds a CSR from entries already bucketed by row: row r's entries
/// are e[rowptr[r], rowptr[r+1]) in insertion order. Each row is sorted
/// by column, stably, and duplicate columns fold left with `combine`
/// (combine(combine(v0, v1), v2)...), exactly as a stable sort of the
/// whole triple list on (row, col) would fold them. `e` is scratch.
template <typename T, typename Combine>
Csr<T> csr_from_row_buckets(Index nrows, Index ncols,
                            std::vector<Index> rowptr,
                            std::span<RowEntry<T>> e, Combine combine) {
  auto by_col = [](const RowEntry<T>& a, const RowEntry<T>& b) {
    return a.first < b.first;
  };
  std::size_t w = 0;
  for (Index r = 0; r < nrows; ++r) {
    RowEntry<T>* first = e.data() + rowptr[r];
    RowEntry<T>* last = e.data() + rowptr[r + 1];
    if (last - first > kInsertionSortMaxRow) {
      std::stable_sort(first, last, by_col);
    } else if (last - first > 1) {
      for (RowEntry<T>* i = first + 1; i != last; ++i) {
        RowEntry<T> v = std::move(*i);
        RowEntry<T>* j = i;
        for (; j != first && by_col(v, *(j - 1)); --j) *j = std::move(*(j - 1));
        *j = std::move(v);
      }
    }
    // Compact in place; row r now starts at w.
    const std::size_t start = w;
    rowptr[r] = static_cast<Index>(start);
    for (RowEntry<T>* p = first; p != last; ++p) {
      if (w > start && e[w - 1].first == p->first) {
        e[w - 1].second = combine(e[w - 1].second, p->second);
      } else {
        if (&e[w] != p) e[w] = std::move(*p);
        ++w;
      }
    }
  }
  rowptr[static_cast<std::size_t>(nrows)] = static_cast<Index>(w);
  std::vector<Index> colids(w);
  std::vector<T> vals(w);
  for (std::size_t i = 0; i < w; ++i) {
    colids[i] = e[i].first;
    vals[i] = std::move(e[i].second);
  }
  return Csr<T>::from_parts(nrows, ncols, std::move(rowptr),
                            std::move(colids), std::move(vals));
}

template <typename T>
class Coo {
 public:
  Coo(Index nrows, Index ncols) : nrows_(nrows), ncols_(ncols) {}

  Index nrows() const { return nrows_; }
  Index ncols() const { return ncols_; }
  Index nnz() const { return static_cast<Index>(t_.size()); }

  void add(Index r, Index c, T v) {
    PGB_ASSERT(r >= 0 && r < nrows_ && c >= 0 && c < ncols_,
               "triple out of range");
    t_.push_back(Triple<T>{r, c, std::move(v)});
  }

  void reserve(std::size_t n) { t_.reserve(n); }
  const std::vector<Triple<T>>& triples() const { return t_; }

  /// Builds a CSR; duplicate coordinates are combined with `combine`
  /// (defaults to keeping the last value).
  template <typename Combine>
  Csr<T> to_csr(Combine combine) const {
    std::vector<Index> rowptr(static_cast<std::size_t>(nrows_) + 1, 0);
    for (const auto& tr : t_) ++rowptr[static_cast<std::size_t>(tr.row) + 1];
    for (Index r = 0; r < nrows_; ++r) rowptr[r + 1] += rowptr[r];
    std::vector<Index> next(rowptr.begin(), rowptr.end() - 1);
    std::vector<RowEntry<T>> e(t_.size());
    for (const auto& tr : t_) {
      e[static_cast<std::size_t>(next[tr.row]++)] = {tr.col, tr.val};
    }
    return csr_from_row_buckets<T>(nrows_, ncols_, std::move(rowptr),
                                   std::span(e), combine);
  }

  Csr<T> to_csr() const {
    return to_csr([](const T&, const T& b) { return b; });
  }

 private:
  Index nrows_;
  Index ncols_;
  std::vector<Triple<T>> t_;
};

}  // namespace pgb
