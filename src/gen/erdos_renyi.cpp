#include "gen/erdos_renyi.hpp"

#include <algorithm>
#include <cmath>

namespace pgb {

namespace {

/// Knuth's Poisson sampler (d is small; ~d iterations).
Index poisson(Xoshiro256& rng, double d) {
  const double limit = std::exp(-d);
  double prod = rng.next_double();
  Index k = 0;
  while (prod > limit) {
    prod *= rng.next_double();
    ++k;
  }
  return k;
}

}  // namespace

void er_row_columns(Index n, double d, std::uint64_t seed, Index row,
                    std::vector<Index>& out) {
  Xoshiro256 rng(seed, static_cast<std::uint64_t>(row));
  const Index k = std::min(poisson(rng, d), n);
  const std::size_t base = out.size();
  const std::size_t end = base + static_cast<std::size_t>(k);
  // Draw distinct columns; k << n so rejection terminates fast.
  while (out.size() < end) {
    const Index c = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    auto it = std::lower_bound(
        out.begin() + static_cast<std::ptrdiff_t>(base), out.end(), c);
    if (it == out.end() || *it != c) out.insert(it, c);
  }
}

std::vector<Index> er_row_columns(Index n, double d, std::uint64_t seed,
                                  Index row) {
  std::vector<Index> cols;
  er_row_columns(n, d, seed, row, cols);
  return cols;
}

}  // namespace pgb
