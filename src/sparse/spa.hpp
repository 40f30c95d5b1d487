// The sparse accumulator (SPA) of Gilbert, Moler & Schreiber, as used by
// the paper's SpMSpV (Fig 6 / Listing 7): a dense value array, a dense
// "isthere" flag array, and a list of the indices whose flag is set.
// reset() only clears the touched flags, so a SPA can be reused across
// iterations (e.g. every BFS level) at O(nnz) cost.
//
// for_each_sorted() is the one way to read the result in index order.
// The isthere bitmap already holds the touched set in that order, so the
// host never sorts the index list when the set is dense in the range;
// what a sort would cost the modeled machine is charged by the caller.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "runtime/dist.hpp"
#include "util/bitvector.hpp"
#include "util/error.hpp"

namespace pgb {

template <typename T>
class Spa {
 public:
  Spa() = default;
  /// Covers the index range [lo, hi).
  Spa(Index lo, Index hi)
      : lo_(lo),
        vals_(static_cast<std::size_t>(hi - lo)),
        isthere_(hi - lo) {
    PGB_REQUIRE(hi >= lo, "invalid SPA range");
  }

  Index lo() const { return lo_; }
  Index hi() const { return lo_ + static_cast<Index>(vals_.size()); }
  Index nnz() const { return static_cast<Index>(nzinds_.size()); }

  /// Accumulate v at global index i with `add`; first touch records i.
  template <typename AddOp>
  void accumulate(Index i, const T& v, AddOp add) {
    const Index off = i - lo_;
    if (isthere_.test_and_set(off)) {
      nzinds_.push_back(i);
      vals_[static_cast<std::size_t>(off)] = v;
    } else {
      vals_[static_cast<std::size_t>(off)] =
          add(vals_[static_cast<std::size_t>(off)], v);
    }
  }

  /// Paper Listing 7 semantics: only the first write to an index sticks
  /// ("only keeping the first index"). Returns true if this was the first.
  bool set_if_absent(Index i, const T& v) {
    const Index off = i - lo_;
    if (isthere_.test_and_set(off)) {
      nzinds_.push_back(i);
      vals_[static_cast<std::size_t>(off)] = v;
      return true;
    }
    return false;
  }

  bool has(Index i) const { return isthere_.get(i - lo_); }
  const T& value(Index i) const {
    return vals_[static_cast<std::size_t>(i - lo_)];
  }

  /// Touched indices (global) in first-touch order. Read-only, so the
  /// list always matches the isthere flags.
  std::span<const Index> nzinds() const { return nzinds_; }

  /// Calls f(i, value(i)) for every touched index i in ascending order.
  /// Scans the isthere words when there are at most kScanWordsPerIndex
  /// of them per touched index, else sorts a copy of the index list;
  /// indices are unique, so both emit the same sequence.
  template <typename F>
  void for_each_sorted(F f) const {
    if (isthere_.num_words() <= kScanWordsPerIndex * nnz()) {
      Index emitted = 0;
      isthere_.for_each_set([&](Index off) {
        f(lo_ + off, vals_[static_cast<std::size_t>(off)]);
        ++emitted;
      });
      PGB_ASSERT(emitted == nnz(), "SPA bitmap and index list disagree");
      return;
    }
    std::vector<Index> sorted(nzinds_);
    std::sort(sorted.begin(), sorted.end());
    for (Index i : sorted) f(i, value(i));
  }

  /// Clears only the touched entries.
  void reset() {
    for (Index i : nzinds_) isthere_.clear(i - lo_);
    nzinds_.clear();
  }

  /// Clears what the last use touched and re-targets the SPA at
  /// [lo, hi), keeping its buffers when the width is unchanged (stale
  /// values are harmless: a first touch overwrites them).
  void retarget(Index lo, Index hi) {
    reset();
    if (hi - lo == this->hi() - lo_) {
      lo_ = lo;
    } else {
      *this = Spa(lo, hi);
    }
  }

 private:
  // Scanning costs ~2 ns a word, sorting k indices ~(k log k) compares;
  // on x86-64 the two cross between 4 and 8 words per touched index.
  static constexpr Index kScanWordsPerIndex = 6;

  Index lo_ = 0;
  std::vector<T> vals_;
  BitVector isthere_;
  std::vector<Index> nzinds_;
};

}  // namespace pgb
