#include "gen/rmat.hpp"

#include "util/rng.hpp"

namespace pgb {

Coo<std::int64_t> rmat_coo(const RmatParams& p) {
  const Index n = Index{1} << p.scale;
  const Index m = p.edge_factor * n;
  Coo<std::int64_t> coo(n, n);
  coo.reserve(static_cast<std::size_t>(p.symmetric ? 2 * m : m));
  Xoshiro256 rng(p.seed);
  for (Index e = 0; e < m; ++e) {
    Index r = 0, c = 0;
    for (int level = 0; level < p.scale; ++level) {
      const double u = rng.next_double();
      r <<= 1;
      c <<= 1;
      if (u < p.a) {
        // top-left quadrant: nothing to add
      } else if (u < p.a + p.b) {
        c |= 1;
      } else if (u < p.a + p.b + p.c) {
        r |= 1;
      } else {
        r |= 1;
        c |= 1;
      }
    }
    if (r == c) continue;  // drop self-loops
    coo.add(r, c, 1);
    if (p.symmetric) coo.add(c, r, 1);
  }
  return coo;
}

Csr<std::int64_t> rmat_csr(const RmatParams& p) {
  // Duplicate edges collapse to a single unit entry.
  return rmat_coo(p).to_csr([](std::int64_t, std::int64_t) {
    return std::int64_t{1};
  });
}

DistCsr<std::int64_t> rmat_dist(LocaleGrid& grid, const RmatParams& p) {
  // Split the deduplicated global matrix into blocks so the distributed
  // matrix matches rmat_csr exactly.
  return DistCsr<std::int64_t>::from_csr(grid, rmat_csr(p));
}

}  // namespace pgb
