// Sorting kernels used by the GraphBLAS layer.
//
// The paper's SpMSpV sorts the SPA's nonzero index list with Chapel's
// parallel merge sort and observes that sorting dominates; it suggests an
// integer radix sort would be cheaper. SpMSpV charges the modeled machine
// for either (SortAlgo, via merge_sort_cost / radix_sort_cost), but the
// host runs neither on a SPA: Spa::for_each_sorted emits the indices in
// order from the isthere bitmap. merge_sort and radix_sort stay here as
// host kernels that micro_kernels times and test_util checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace pgb {

/// Bottom-up merge sort (stable). Sorts `v` in place using a scratch
/// buffer. This mirrors Chapel's mergeSort used in Listing 7.
void merge_sort(std::span<std::int64_t> v);

/// LSD radix sort on non-negative 64-bit integers, 11-bit digits.
/// Values must be >= 0 (sparse indices always are).
void radix_sort(std::span<std::int64_t> v);

/// True if v is sorted ascending.
bool is_sorted_ascending(std::span<const std::int64_t> v);

/// Sorts parallel arrays (idx, val) by idx, stable. Used when building
/// sparse vectors from unordered (index, value) pairs.
template <typename T>
void sort_pairs_by_index(std::vector<std::int64_t>& idx, std::vector<T>& val);

/// Merges two sorted index lists into a sorted union (no duplicates).
std::vector<std::int64_t> sorted_union(std::span<const std::int64_t> a,
                                       std::span<const std::int64_t> b);

/// Intersection of two sorted index lists.
std::vector<std::int64_t> sorted_intersection(std::span<const std::int64_t> a,
                                              std::span<const std::int64_t> b);

// ---- implementation of templates ----

template <typename T>
void sort_pairs_by_index(std::vector<std::int64_t>& idx, std::vector<T>& val) {
  const std::size_t n = idx.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t a, std::size_t b) {
                     return idx[a] < idx[b];
                   });
  std::vector<std::int64_t> idx2(n);
  std::vector<T> val2(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx2[i] = idx[perm[i]];
    val2[i] = std::move(val[perm[i]]);
  }
  idx = std::move(idx2);
  val = std::move(val2);
}

}  // namespace pgb
