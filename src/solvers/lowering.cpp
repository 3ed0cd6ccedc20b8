#include "solvers/lowering.hpp"

#include "la/blas.hpp"

namespace sts::solver {

using graph::KernelKind;
using Mode = graph::Access::Mode;

const char* runtime_label(Version v) {
  switch (v) {
    case Version::kDs: return "ds";
    case Version::kFlux: return "flux";
    case Version::kRgt: return "rgt";
    default: return to_string(v);
  }
}

// --------------------------------------------------------------------------
// PieceLowering: the kernel calls, expanded into per-piece tasks.
// --------------------------------------------------------------------------

PieceLowering::PieceLowering(const sparse::Csb& a,
                             const SolverOptions& options)
    : a_(&a), skip_empty_(options.skip_empty_blocks), np_(a.block_rows()),
      b_(a.block_size()), m_(a.rows()) {}

DataId PieceLowering::add(std::string name, la::DenseMatrix* matrix,
                          double* cell, std::span<double> storage,
                          bool partitioned) {
  const auto id = static_cast<DataId>(records_.size());
  records_.push_back({matrix, cell, partitioned});
  on_register(id, std::move(name), storage, partitioned);
  return id;
}

DataId PieceLowering::vec(std::string name, la::DenseMatrix* storage) {
  STS_EXPECTS(storage != nullptr && storage->rows() == m_);
  return add(std::move(name), storage, nullptr, storage->flat(), true);
}

DataId PieceLowering::small(std::string name, la::DenseMatrix* storage) {
  STS_EXPECTS(storage != nullptr);
  return add(std::move(name), storage, nullptr, storage->flat(), false);
}

DataId PieceLowering::scalar(std::string name, double* value) {
  STS_EXPECTS(value != nullptr);
  return add(std::move(name), nullptr, value, {value, 1}, false);
}

/// Partial buffer (one row per piece) of the next xty/dot call site. Each
/// call site reuses its buffer across iterations; the buffer is tracked
/// like any vector, so the next iteration's partial writes wait for this
/// iteration's reduce to have read them.
DataId PieceLowering::partial(index_t cols, const char* name) {
  if (cursor_ == partials_.size()) {
    partial_storage_.push_back(std::make_unique<la::DenseMatrix>(np_, cols));
    la::DenseMatrix* buf = partial_storage_.back().get();
    partials_.push_back(add(name, buf, nullptr, buf->flat(), true));
  }
  const DataId id = partials_[cursor_++];
  STS_ASSERT(matrix(id)->cols() == cols);
  return id;
}

void PieceLowering::issue_pieces(
    const std::function<PieceTask(index_t)>& make) {
  for (index_t p = 0; p < np_; ++p) issue(make(p));
}

void PieceLowering::end_iteration() {
  wait();
  cursor_ = 0;
}

void PieceLowering::spmm(DataId x, DataId y) {
  const sparse::Csb* a = a_;
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  const KernelKind kind = xm->cols() == 1 ? KernelKind::kSpMV
                                          : KernelKind::kSpMM;
  for (index_t bi = 0; bi < np_; ++bi) {
    issue({KernelKind::kZero, static_cast<std::int32_t>(bi), bi,
           {{y, bi, Mode::kWrite}},
           [a, ym, bi] { sparse::csb_block_zero(*a, bi, ym->view()); },
           "zero"});
  }
  for (index_t bi = 0; bi < np_; ++bi) {
    for (index_t bj = 0; bj < np_; ++bj) {
      if (skip_empty_ && a->block_empty(bi, bj)) continue;
      issue({kind, static_cast<std::int32_t>(bi), bi,
             {{x, bj, Mode::kRead}, {y, bi, Mode::kReadWrite}},
             [a, xm, ym, bi, bj] {
               sparse::csb_block_spmm(*a, bi, bj, xm->view(), ym->view());
             },
             "spmm"});
    }
  }
}

void PieceLowering::xy(DataId x, DataId z, DataId y, double alpha,
                       double beta) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* zm = matrix(z);
  la::DenseMatrix* ym = matrix(y);
  const Mode out = beta == 0.0 ? Mode::kWrite : Mode::kReadWrite;
  per_piece([&](index_t p, index_t r0, index_t nr) {
    return PieceTask{KernelKind::kXY, static_cast<std::int32_t>(p), p,
                     {{x, p, Mode::kRead}, {z, -1, Mode::kRead}, {y, p, out}},
                     [xm, zm, ym, r0, nr, alpha, beta] {
                       la::gemm(alpha, xm->row_block(r0, nr), zm->view(),
                                beta, ym->row_block(r0, nr));
                     },
                     "xy"};
  });
}

void PieceLowering::xty(DataId x, DataId y, DataId p_out) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  la::DenseMatrix* pm = matrix(p_out);
  const index_t pr = pm->rows();
  const index_t pc = pm->cols();
  STS_EXPECTS(pr == xm->cols() && pc == ym->cols());
  const DataId part = partial(pr * pc, "xty_part");
  la::DenseMatrix* partm = matrix(part);
  per_piece([&](index_t p, index_t r0, index_t nr) {
    PieceTask t{KernelKind::kXTY, static_cast<std::int32_t>(p), p,
                {{x, p, Mode::kRead}, {part, p, Mode::kWrite}},
                [xm, ym, partm, r0, nr, p, pr, pc] {
                  la::MatrixView out{partm->data() + p * pr * pc, pr, pc, pc};
                  la::gemm_tn(1.0, xm->row_block(r0, nr),
                              ym->row_block(r0, nr), 0.0, out);
                },
                "xty"};
    if (x != y) t.uses.push_back({y, p, Mode::kRead});
    return t;
  });
  const index_t np = np_;
  issue({KernelKind::kReduce, -1, -1,
         {{part, -1, Mode::kRead}, {p_out, -1, Mode::kWrite}},
         [partm, pm, np, pr, pc] {
           pm->fill(0.0);
           for (index_t p = 0; p < np; ++p) {
             la::ConstMatrixView v{partm->data() + p * pr * pc, pr, pc, pc};
             la::axpy(1.0, v, pm->view());
           }
         },
         "reduce"});
}

void PieceLowering::axpy(double alpha, DataId x, DataId y) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  per_piece([&](index_t p, index_t r0, index_t nr) {
    return PieceTask{KernelKind::kAxpy, static_cast<std::int32_t>(p), p,
                     {{x, p, Mode::kRead}, {y, p, Mode::kReadWrite}},
                     [xm, ym, r0, nr, alpha] {
                       la::axpy(alpha, xm->row_block(r0, nr),
                                ym->row_block(r0, nr));
                     },
                     "axpy"};
  });
}

void PieceLowering::copy(DataId x, DataId y) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  per_piece([&](index_t p, index_t r0, index_t nr) {
    return PieceTask{KernelKind::kAxpy, static_cast<std::int32_t>(p), p,
                     {{x, p, Mode::kRead}, {y, p, Mode::kWrite}},
                     [xm, ym, r0, nr] {
                       la::copy(xm->row_block(r0, nr), ym->row_block(r0, nr));
                     },
                     "copy"};
  });
}

void PieceLowering::copy_into_column(DataId x, DataId y, const index_t* col) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  STS_EXPECTS(xm->cols() == 1 && col != nullptr);
  per_piece([&](index_t p, index_t r0, index_t nr) {
    return PieceTask{KernelKind::kAxpy, static_cast<std::int32_t>(p), p,
                     {{x, p, Mode::kRead}, {y, p, Mode::kReadWrite}},
                     [xm, ym, r0, nr, col] {
                       const index_t c = *col;
                       for (index_t i = 0; i < nr; ++i) {
                         ym->at(r0 + i, c) = xm->at(r0 + i, 0);
                       }
                     },
                     "setcol"};
  });
}

void PieceLowering::scale_into(DataId x, DataId s, bool reciprocal,
                               DataId y) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  const double* cell = records_[static_cast<std::size_t>(s)].cell;
  per_piece([&](index_t p, index_t r0, index_t nr) {
    return PieceTask{
        KernelKind::kScale, static_cast<std::int32_t>(p), p,
        {{s, -1, Mode::kRead}, {x, p, Mode::kRead}, {y, p, Mode::kWrite}},
        [xm, ym, cell, r0, nr, reciprocal] {
          const double v = reciprocal ? 1.0 / *cell : *cell;
          la::ConstMatrixView in = xm->row_block(r0, nr);
          la::MatrixView out = ym->row_block(r0, nr);
          for (index_t i = 0; i < nr; ++i) {
            for (index_t j = 0; j < in.cols; ++j) {
              out.at(i, j) = v * in.at(i, j);
            }
          }
        },
        "scale"};
  });
}

void PieceLowering::dot(DataId x, DataId y, DataId s) {
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  double* cell = records_[static_cast<std::size_t>(s)].cell;
  const DataId part = partial(1, "dot_part");
  la::DenseMatrix* partm = matrix(part);
  per_piece([&](index_t p, index_t r0, index_t nr) {
    PieceTask t{KernelKind::kDotPartial, static_cast<std::int32_t>(p), p,
                {{x, p, Mode::kRead}, {part, p, Mode::kWrite}},
                [xm, ym, partm, r0, nr, p] {
                  partm->at(p, 0) =
                      la::dot(xm->row_block(r0, nr), ym->row_block(r0, nr));
                },
                "dot"};
    if (x != y) t.uses.push_back({y, p, Mode::kRead});
    return t;
  });
  const index_t np = np_;
  issue({KernelKind::kReduce, -1, -1,
         {{part, -1, Mode::kRead}, {s, -1, Mode::kWrite}},
         [partm, cell, np] {
           double acc = 0.0;
           for (index_t p = 0; p < np; ++p) acc += partm->at(p, 0);
           *cell = acc;
         },
         "reduce"});
}

void PieceLowering::small_task(KernelKind kind, std::function<void()> body,
                               std::vector<DataId> reads,
                               std::vector<DataId> writes) {
  PieceTask t{kind, -1, -1, {}, std::move(body), "small"};
  for (DataId r : reads) t.uses.push_back({r, -1, Mode::kRead});
  for (DataId w : writes) t.uses.push_back({w, -1, Mode::kReadWrite});
  issue(std::move(t));
}

// --------------------------------------------------------------------------
// flux
// --------------------------------------------------------------------------

FluxLowering::FluxLowering(const sparse::Csb& a, const SolverOptions& options)
    : PieceLowering(a, options), numa_domains_(options.numa_domains),
      dmap_(a.partition_block_rows(options.numa_domains)),
      sched_(&acquire_flux_pool(options, owned_)), quiesce_(*sched_) {}

void FluxLowering::on_register(DataId /*id*/, std::string /*name*/,
                               std::span<double> /*storage*/,
                               bool partitioned) {
  STS_EXPECTS(!captured_);
  const auto pieces = static_cast<std::size_t>(partitioned ? np_ : 1);
  pieces_.push_back({std::vector<std::int64_t>(pieces, -1),
                     std::vector<std::vector<NodeId>>(pieces)});
}

void FluxLowering::issue(PieceTask task) {
  STS_EXPECTS(!captured_);
  // Pieces a use covers: one, or all of them for piece -1.
  auto each_piece = [&](const PieceTask::Use& u, auto fn) {
    Pieces& d = pieces_[static_cast<std::size_t>(u.data)];
    if (u.piece >= 0) {
      fn(d, static_cast<std::size_t>(u.piece));
      return;
    }
    for (std::size_t p = 0; p < d.writer.size(); ++p) fn(d, p);
  };
  std::vector<NodeId> preds;
  for (const PieceTask::Use& u : task.uses) {
    each_piece(u, [&](Pieces& d, std::size_t p) {
      if (d.writer[p] >= 0) preds.push_back(static_cast<NodeId>(d.writer[p]));
      if (u.mode != Mode::kRead) {
        preds.insert(preds.end(), d.readers[p].begin(), d.readers[p].end());
      }
    });
  }
  // Hints reuse place_stripes' deterministic nnz-balanced stripe map, so a
  // hinted task lands on the node whose memory holds its block row.
  const int domain =
      task.home >= 0 && numa_domains_ > 1 ? dmap_.owner(task.home) : -1;
  const NodeId node = graph_.add(std::move(task.body), task.kind, task.id,
                                 domain, std::move(preds));
  for (const PieceTask::Use& u : task.uses) {
    each_piece(u, [&](Pieces& d, std::size_t p) {
      if (u.mode == Mode::kRead) {
        d.readers[p].push_back(node);
      } else {
        d.writer[p] = node;
        d.readers[p].clear();
      }
    });
  }
}

void FluxLowering::wait() {
  if (!captured_) {
    captured_ = true;
    pieces_ = {};
  }
  graph_.run(*sched_);
}

void FluxLowering::finish() {
  quiesce_.dismiss();
  sched_->wait_for_quiescence();
}

// --------------------------------------------------------------------------
// rgt
// --------------------------------------------------------------------------

RgtLowering::RgtLowering(const sparse::Csb& a, const SolverOptions& options)
    : PieceLowering(a, options),
      dependency_based_(options.dependency_based_spmm),
      rt_({.cpu_workers = options.threads,
           .util_threads = 1,
           .verify_index_launches = false,
           .window = 4096}) {}

void RgtLowering::on_register(DataId /*id*/, std::string name,
                              std::span<double> storage, bool partitioned) {
  const rgt::RegionId region = rt_.register_region(storage, std::move(name));
  if (partitioned) {
    rt_.partition_equal(region, static_cast<std::int32_t>(np_));
  }
  regions_.push_back(region);
}

template <typename Fn>
rgt::TaskBody RgtLowering::traced(KernelKind kind, std::int32_t id,
                                  Fn fn) const {
  return [kind, id, fn = std::move(fn)](rgt::TaskContext& ctx) {
    obs::run_task("rgt", kind, id, ctx.worker(), [&] { fn(ctx); });
  };
}

rgt::TaskLaunch RgtLowering::launch(PieceTask task) const {
  std::vector<rgt::RegionReq> reqs;
  reqs.reserve(task.uses.size());
  for (const PieceTask::Use& u : task.uses) {
    const rgt::Privilege priv = u.mode == Mode::kRead ? rgt::Privilege::kRead
                                : u.mode == Mode::kWrite
                                    ? rgt::Privilege::kWrite
                                    : rgt::Privilege::kReadWrite;
    reqs.push_back({regions_[static_cast<std::size_t>(u.data)],
                    static_cast<std::int32_t>(u.piece), priv});
  }
  return {traced(task.kind, task.id,
                 [body = std::move(task.body)](rgt::TaskContext&) { body(); }),
          std::move(reqs), task.name};
}

void RgtLowering::issue(PieceTask task) {
  rt_.execute(launch(std::move(task)));
}

void RgtLowering::issue_pieces(
    const std::function<PieceTask(index_t)>& make) {
  rt_.index_launch(static_cast<std::int32_t>(np_),
                   [&](std::int32_t p) { return launch(make(p)); });
}

void RgtLowering::spmm(DataId x, DataId y) {
  if (dependency_based_) {
    PieceLowering::spmm(x, y);
    return;
  }
  // Reduction-based variant (paper Fig. 7): every task reduces into a
  // per-worker copy of the whole output.
  using rgt::Privilege;
  const sparse::Csb* a = a_;
  la::DenseMatrix* xm = matrix(x);
  la::DenseMatrix* ym = matrix(y);
  const rgt::RegionId xr = regions_[static_cast<std::size_t>(x)];
  const rgt::RegionId yr = regions_[static_cast<std::size_t>(y)];
  const index_t m = ym->rows();
  const index_t n = ym->cols();
  const KernelKind kind = n == 1 ? KernelKind::kSpMV : KernelKind::kSpMM;
  rt_.execute({traced(KernelKind::kZero, -1,
                      [ym](rgt::TaskContext&) { ym->fill(0.0); }),
               {{yr, -1, Privilege::kWrite}},
               "zero"});
  for (index_t bi = 0; bi < np_; ++bi) {
    for (index_t bj = 0; bj < np_; ++bj) {
      if (skip_empty_ && a->block_empty(bi, bj)) continue;
      rt_.execute({traced(kind, static_cast<std::int32_t>(bi),
                          [a, xm, yr, bi, bj, m, n](rgt::TaskContext& ctx) {
                            std::span<double> buf = ctx.reduce_target(yr);
                            la::MatrixView out{buf.data(), m, n, n};
                            sparse::csb_block_spmm(*a, bi, bj, xm->view(),
                                                   out);
                          }),
                   {{xr, static_cast<std::int32_t>(bj), Privilege::kRead},
                    {yr, -1, Privilege::kReduce}},
                   "spmm-reduce"});
    }
  }
}

} // namespace sts::solver
