#include "bsp/kernels.hpp"

#include <exception>
#include <mutex>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#else
namespace {
int omp_get_num_threads() { return 1; }
int omp_get_thread_num() { return 0; }
int omp_get_max_threads() { return 1; }
} // namespace
#endif

#include "obs/obs.hpp"

namespace sts::bsp {

namespace {

/// An exception escaping an OpenMP parallel region is std::terminate; the
/// block-level kernels route bodies through this latch so a failing block
/// (e.g. an injected fault) surfaces as one catchable rethrow instead.
class OmpExceptionLatch {
public:
  template <typename F>
  void run(F&& f) noexcept {
    try {
      f();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  void rethrow() {
    if (error_) std::rethrow_exception(error_);
  }

private:
  std::mutex mutex_;
  std::exception_ptr error_;
};

} // namespace

// The matrix and multivector kernels run each thread's share of the
// parallel region through obs::RegionTimer::run: the split `parallel` +
// orphaned `for nowait` form below is equivalent to the combined
// `parallel for` (same scheduling, same implicit barrier at region end)
// but gives each thread one task event and the barrier-imbalance metric
// its per-thread time. With telemetry off run() is a branch around the
// body.

void spmv(const sparse::Csr& a, std::span<const double> x,
          std::span<double> y) {
  const index_t rows = a.rows();
  obs::RegionTimer region("bsp", graph::KernelKind::kSpMV,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 512) nowait
    for (index_t r = 0; r < rows; ++r) {
      sparse::csr_spmv_range(a, x, y, r, r + 1);
    }
  });
}

void spmm(const sparse::Csr& a, ConstMatrixView x, MatrixView y) {
  const index_t rows = a.rows();
  obs::RegionTimer region("bsp", graph::KernelKind::kSpMM,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 256) nowait
    for (index_t r = 0; r < rows; ++r) {
      sparse::csr_spmm_range(a, x, y, r, r + 1);
    }
  });
}

void spmv(const sparse::Csb& a, std::span<const double> x,
          std::span<double> y) {
  const index_t nb = a.block_rows();
  OmpExceptionLatch latch;
  obs::RegionTimer region("bsp", graph::KernelKind::kSpMV,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 1) nowait
    for (index_t bi = 0; bi < nb; ++bi) {
      latch.run([&] {
        sparse::csb_block_zero(a, bi, y);
        for (index_t bj = 0; bj < a.block_cols(); ++bj) {
          if (!a.block_empty(bi, bj)) sparse::csb_block_spmv(a, bi, bj, x, y);
        }
      });
    }
  });
  latch.rethrow();
}

void spmm(const sparse::Csb& a, ConstMatrixView x, MatrixView y) {
  const index_t nb = a.block_rows();
  OmpExceptionLatch latch;
  obs::RegionTimer region("bsp", graph::KernelKind::kSpMM,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 1) nowait
    for (index_t bi = 0; bi < nb; ++bi) {
      latch.run([&] {
        sparse::csb_block_zero(a, bi, y);
        for (index_t bj = 0; bj < a.block_cols(); ++bj) {
          if (!a.block_empty(bi, bj)) sparse::csb_block_spmm(a, bi, bj, x, y);
        }
      });
    }
  });
  latch.rethrow();
}

namespace {
index_t chunk_count(index_t rows, index_t chunk) {
  STS_EXPECTS(chunk > 0);
  return (rows + chunk - 1) / chunk;
}
} // namespace

void xy(ConstMatrixView x, ConstMatrixView z, MatrixView y, index_t chunk,
        double alpha, double beta) {
  const index_t nchunks = chunk_count(x.rows, chunk);
  obs::RegionTimer region("bsp", graph::KernelKind::kXY,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 1) nowait
    for (index_t c = 0; c < nchunks; ++c) {
      const index_t r0 = c * chunk;
      const index_t nr = std::min(chunk, x.rows - r0);
      la::gemm(alpha, ConstMatrixView{x.data + r0 * x.ld, nr, x.cols, x.ld},
               z, beta, MatrixView{y.data + r0 * y.ld, nr, y.cols, y.ld});
    }
  });
}

void xty(ConstMatrixView x, ConstMatrixView y, MatrixView p, index_t chunk) {
  STS_EXPECTS(p.rows == x.cols && p.cols == y.cols);
  const index_t nchunks = chunk_count(x.rows, chunk);
  const std::size_t psize =
      static_cast<std::size_t>(p.rows) * static_cast<std::size_t>(p.cols);
  // Per-thread partial buffers + serial fold: the classic BSP reduction.
  std::vector<std::vector<double>> partials;
  obs::RegionTimer region("bsp", graph::KernelKind::kXTY,
                          omp_get_max_threads());
#pragma omp parallel
  {
#pragma omp single
    partials.assign(static_cast<std::size_t>(omp_get_num_threads()),
                    std::vector<double>(psize, 0.0));
    region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 1) nowait
      for (index_t c = 0; c < nchunks; ++c) {
        const index_t r0 = c * chunk;
        const index_t nr = std::min(chunk, x.rows - r0);
        auto& buf = partials[static_cast<std::size_t>(omp_get_thread_num())];
        la::gemm_tn(1.0, ConstMatrixView{x.data + r0 * x.ld, nr, x.cols, x.ld},
                    ConstMatrixView{y.data + r0 * y.ld, nr, y.cols, y.ld}, 1.0,
                    MatrixView{buf.data(), p.rows, p.cols, p.cols});
      }
    });
  }
  for (index_t i = 0; i < p.rows; ++i) {
    for (index_t j = 0; j < p.cols; ++j) p.at(i, j) = 0.0;
  }
  for (const auto& buf : partials) {
    for (std::size_t k = 0; k < psize; ++k) {
      p.data[(k / static_cast<std::size_t>(p.cols)) * p.ld +
             k % static_cast<std::size_t>(p.cols)] += buf[k];
    }
  }
}

void axpy(double alpha, ConstMatrixView x, MatrixView y, index_t chunk) {
  const index_t nchunks = chunk_count(x.rows, chunk);
  obs::RegionTimer region("bsp", graph::KernelKind::kAxpy,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 1) nowait
    for (index_t c = 0; c < nchunks; ++c) {
      const index_t r0 = c * chunk;
      const index_t nr = std::min(chunk, x.rows - r0);
      la::axpy(alpha, ConstMatrixView{x.data + r0 * x.ld, nr, x.cols, x.ld},
               MatrixView{y.data + r0 * y.ld, nr, y.cols, y.ld});
    }
  });
}

void scal(double alpha, MatrixView x, index_t chunk) {
  const index_t nchunks = chunk_count(x.rows, chunk);
  obs::RegionTimer region("bsp", graph::KernelKind::kScale,
                          omp_get_max_threads());
#pragma omp parallel
  region.run(omp_get_thread_num(), [&] {
#pragma omp for schedule(dynamic, 1) nowait
    for (index_t c = 0; c < nchunks; ++c) {
      const index_t r0 = c * chunk;
      const index_t nr = std::min(chunk, x.rows - r0);
      la::scal(alpha, MatrixView{x.data + r0 * x.ld, nr, x.cols, x.ld});
    }
  });
}

double dot(ConstMatrixView x, ConstMatrixView y, index_t chunk) {
  const index_t nchunks = chunk_count(x.rows, chunk);
  double acc = 0.0;
#pragma omp parallel for schedule(dynamic, 1) reduction(+ : acc)
  for (index_t c = 0; c < nchunks; ++c) {
    const index_t r0 = c * chunk;
    const index_t nr = std::min(chunk, x.rows - r0);
    acc += la::dot(ConstMatrixView{x.data + r0 * x.ld, nr, x.cols, x.ld},
                   ConstMatrixView{y.data + r0 * y.ld, nr, y.cols, y.ld});
  }
  return acc;
}

double dot(std::span<const double> x, std::span<const double> y) {
  STS_EXPECTS(x.size() == y.size());
  double acc = 0.0;
  const std::size_t n = x.size();
#pragma omp parallel for schedule(static) reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  STS_EXPECTS(x.size() == y.size());
  const std::size_t n = x.size();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  const std::size_t n = x.size();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

} // namespace sts::bsp
