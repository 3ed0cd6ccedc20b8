#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "support/rng.hpp"

namespace solvebench {

namespace sp = sts::sparse;

namespace {

// Structure seeds: fixed, so every workload seed sees the same pattern.
constexpr std::uint64_t kScatterPattern = 0x5ca77e5;

/// Uniform [0, 1) keyed on the unordered pair (i, j) and the seed, so the
/// two mirror entries of a symmetric matrix draw the same value.
double pair_uniform(std::uint64_t seed, std::int32_t i, std::int32_t j) {
  const std::uint64_t a = static_cast<std::uint32_t>(std::min(i, j));
  const std::uint64_t b = static_cast<std::uint32_t>(std::max(i, j));
  sts::support::SplitMix64 h(seed ^ (a << 32) ^ b);
  h.next();
  return static_cast<double>(h.next() >> 11) * 0x1.0p-53;
}

} // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  sts::support::SplitMix64 h(seed * 0x9e3779b97f4a7c15ULL + stream);
  return h.next();
}

sp::Coo make_laplacian(index_t side, std::uint64_t seed) {
  return sp::gen_laplacian3d(side, side, side, 1, seed);
}

sp::Coo make_scatter(index_t tiles, index_t tile_dim, double fill,
                     double boost, std::uint64_t seed) {
  const sp::Coo pattern =
      sp::gen_block_random(tiles, tile_dim, fill, 0.6, kScatterPattern);
  const auto n = static_cast<std::size_t>(pattern.rows());
  std::vector<double> row_abs(n, 0.0);
  sp::Coo out(pattern.rows(), pattern.cols());
  out.reserve(pattern.entries().size());
  for (const sp::Triplet& t : pattern.entries()) {
    if (t.row == t.col) continue;
    const double v = -pair_uniform(seed, t.row, t.col);
    row_abs[static_cast<std::size_t>(t.row)] += std::abs(v);
    out.add(t.row, t.col, v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<index_t>(i);
    out.add(r, r, (1.0 + boost) * row_abs[i] + 1e-3);
  }
  out.finalize();
  return out;
}

sp::Coo make_suite(const std::string& name, double scale, std::uint64_t seed) {
  sp::Coo coo = sp::suite_entry(name).make(scale);
  const bool nm7 = name == "Nm7";
  for (sp::Triplet& t : coo.entries()) {
    const double u = pair_uniform(seed, t.row, t.col);
    if (nm7) {
      t.value = t.row == t.col ? 4.0 + u : 2.0 * u - 1.0;
    } else {
      t.value = 0.1 + 0.9 * u;
    }
  }
  return coo;
}

} // namespace solvebench
