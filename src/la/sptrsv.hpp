// Sparse triangular solves over a lower-triangular CSB matrix, scheduled
// as a block-level dependency DAG.
//
// The triangular-solve DAG is the workload where task scheduling actually
// decides performance (Boehnlein et al.): unlike SpMV's embarrassingly
// parallel block rows, block-row i of L x = b cannot start until every
// block-row j with a nonempty L(i,j), j < i, has produced x_j. This module
//   - builds that dependency structure once per factor (SptrsvPlan):
//     per-block-row predecessor lists, per-block-column successor lists
//     (for the transposed solve), and a level schedule — the partition of
//     block rows into waves whose members are mutually independent;
//   - executes the forward solve L x = b and the backward solve L^T x = b
//     either sequentially (the baseline bench_cg compares against) or as
//     flux tasks: one task per block row, chained through futures exactly
//     along the DAG edges, each hinted to the NUMA domain owning its
//     stripe so the solve composes with place_csb() page placement. The
//     dataflow forms also take per-row input futures and return per-row
//     output futures, so a caller can put the solve inside a larger graph.
//
// Requirements on L: square, lower triangular (no nonzeros above the
// diagonal), and every row's last in-block entry is its diagonal (CSB
// sorts block entries by (row, col), so this holds whenever the diagonal
// is structurally present — IC(0) factors guarantee it).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "flux/future.hpp"
#include "sparse/csb.hpp"

namespace sts::la {

/// Immutable schedule for one lower-triangular CSB factor.
class SptrsvPlan {
public:
  SptrsvPlan() = default;

  /// Builds the block DAG + level schedule. Validates triangularity and
  /// the diagonal-last invariant (throws support::Error on violation).
  /// Publishes the forward level count to the sptrsv.level_span gauge —
  /// the DAG's critical-path length in waves, the paper's first-order
  /// predictor of SpTRSV scalability.
  static SptrsvPlan build(const sparse::Csb& lower);

  /// Block rows bj < bi with a nonempty L(bi, bj): what x_bi waits for in
  /// the forward solve.
  [[nodiscard]] const std::vector<index_t>& deps(index_t bi) const {
    return row_deps_[static_cast<std::size_t>(bi)];
  }
  /// Block rows bi > bj with a nonempty L(bi, bj): what x_bj waits for in
  /// the backward (transposed) solve.
  [[nodiscard]] const std::vector<index_t>& transposed_deps(index_t bj) const {
    return col_blocks_[static_cast<std::size_t>(bj)];
  }

  /// Forward waves, in execution order; wave members are independent.
  [[nodiscard]] const std::vector<std::vector<index_t>>& levels() const {
    return levels_;
  }
  /// Critical-path length in waves (== levels().size()).
  [[nodiscard]] index_t level_span() const {
    return static_cast<index_t>(levels_.size());
  }
  /// Widest wave: an upper bound on exploitable task parallelism.
  [[nodiscard]] index_t max_level_width() const { return max_width_; }
  [[nodiscard]] index_t block_rows() const {
    return static_cast<index_t>(row_deps_.size());
  }
  /// Heap bytes of the dependency lists and level schedule.
  [[nodiscard]] std::size_t memory_bytes() const;

private:
  std::vector<std::vector<index_t>> row_deps_;
  std::vector<std::vector<index_t>> col_blocks_;
  std::vector<std::vector<index_t>> levels_;
  index_t max_width_ = 0;
};

/// x = L^-1 b, sequential block walk (the baseline). x and b may alias.
void sptrsv_forward(const sparse::Csb& lower, const SptrsvPlan& plan,
                    std::span<const double> b, std::span<double> x);

/// x = L^-T b, sequential reverse block walk. x and b may alias.
void sptrsv_backward(const sparse::Csb& lower, const SptrsvPlan& plan,
                     std::span<const double> b, std::span<double> x);

/// One future per block row: ready once that row's piece is written.
using RowFutures = std::vector<flux::shared_future<void>>;

/// Runs inside a row's task right after x_row is final (see below).
using RowHook = std::function<void(index_t)>;

/// Dataflow forms: one flux task per block row, submitted and returned
/// without waiting. Row i's task starts once `in[i]` (whatever writes b_i;
/// one entry per block row) and its DAG predecessors are ready, so the
/// solve composes with the producer of b instead of draining it first.
/// The returned future of row i is ready once x_i is final and, when set,
/// `then(i)` has run in the same task. Each task is hinted to
/// `dmap->owner(block row)` when `dmap` is non-null (pass the map
/// place_csb() returned so tasks land where their stripe's pages live).
/// A failed input poisons its row and every row downstream of it.
/// `lower`, `plan`, b and x must outlive the returned futures.
[[nodiscard]] RowFutures sptrsv_forward(const sparse::Csb& lower,
                                        const SptrsvPlan& plan,
                                        std::span<const double> b,
                                        std::span<double> x,
                                        flux::Scheduler& sched,
                                        const sparse::Csb::DomainMap* dmap,
                                        RowFutures in, RowHook then = {});

/// x = L^-T b as dataflow: row j's task waits on `in[j]` and on the rows
/// below it with a nonempty L(i, j).
[[nodiscard]] RowFutures sptrsv_backward(const sparse::Csb& lower,
                                         const SptrsvPlan& plan,
                                         std::span<const double> b,
                                         std::span<double> x,
                                         flux::Scheduler& sched,
                                         const sparse::Csb::DomainMap* dmap,
                                         RowFutures in, RowHook then = {});

/// Blocking DAG forms: the dataflow forms with every input ready, then a
/// cooperative wait on every row. Task failures propagate as exceptions.
/// They only wait on their own futures, not for quiescence of `sched`.
void sptrsv_forward(const sparse::Csb& lower, const SptrsvPlan& plan,
                    std::span<const double> b, std::span<double> x,
                    flux::Scheduler& sched,
                    const sparse::Csb::DomainMap* dmap);

void sptrsv_backward(const sparse::Csb& lower, const SptrsvPlan& plan,
                     std::span<const double> b, std::span<double> x,
                     flux::Scheduler& sched,
                     const sparse::Csb::DomainMap* dmap);

} // namespace sts::la
