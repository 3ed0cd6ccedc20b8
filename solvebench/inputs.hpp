// Seeded input generation for the benchmark workloads.
//
// Every matrix has a structure fixed by its generator and values drawn
// from the workload seed, so a new seed changes values (and, for svc-mix,
// arrival times) but never sizes, nonzero counts or rates. The service
// only ever sees these matrices as the Matrix Market files the workloads
// write (workload.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "sparse/coo.hpp"

namespace solvebench {

using sts::la::index_t;

/// 3D 27-point SPD Laplacian on a side^3 grid (gen_laplacian3d); the seed
/// moves only the diagonal regularization.
[[nodiscard]] sts::sparse::Coo make_laplacian(index_t side,
                                              std::uint64_t seed);

/// Block-random SPD matrix: the Nm7-like scattered tile pattern of
/// gen_block_random with off-diagonal values in [-1, 1] and a diagonal of
/// (1 + boost) times the off-diagonal row sum. A small boost keeps the
/// matrix SPD but only weakly dominant, so IC(0)-CG needs tens of
/// iterations instead of the 3-4 a strongly dominant one takes.
[[nodiscard]] sts::sparse::Coo make_scatter(index_t tiles, index_t tile_dim,
                                            double fill, double boost,
                                            std::uint64_t seed);

/// Suite analogue `name` ("Nm7" or "twitter7") at `scale` with its
/// structure untouched and values redrawn from `seed`: Nm7 keeps its
/// generator's distribution (diagonal 4 + U[0,1), off-diagonal U[-1,1)),
/// twitter7 the paper's random fill U[0.1, 1).
[[nodiscard]] sts::sparse::Coo make_suite(const std::string& name,
                                          double scale, std::uint64_t seed);

/// Independent stream seeds derived from one workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

} // namespace solvebench
