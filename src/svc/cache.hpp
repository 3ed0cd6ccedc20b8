// Byte-budgeted LRU cache of solve plans: the parsed matrix (CSR) plus its
// CSB partition at a resolved block size, and the CG preconditioners built
// on them.
//
// The paper's central cost observation is that CSB partitioning with a
// tuned block size is the expensive, reusable artifact behind both Lanczos
// and LOBPCG; a resident service therefore caches exactly that pair. The
// key is (source, block directive): `source` identifies the matrix bytes
// ("file:/path.mtx" or "suite:name@scale") and the directive identifies how
// the block size is chosen ("b4096" explicit, "heur:..." heuristic,
// "tune:..." simulated autotune) — both computable *before* any parsing, so
// a repeat submission skips mm_io/from_coo/from_csr entirely.
//
// A CG preconditioner (IC(0) factor in CSR and CSB + SpTRSV plan, or the
// Jacobi diagonal) is a second entry under (source, directive + "|pc=" +
// kind), charged CgPreconditioner::bytes(). The service admits one only
// for a job whose matrix plan was itself a hit, so one-shot jobs on unseen
// matrices do not fill the cache with factors nobody reuses.
//
// Budgeting: plans are charged csr.memory_bytes() + csb.memory_bytes().
// After an insert, least-recently-used entries are evicted until the total
// fits STS_CACHE_BYTES again; the entry just inserted is never evicted (a
// single over-budget plan still gets used once — it just won't stick).
// Evicted plans stay alive via shared_ptr until running jobs drop them.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "la/dense.hpp"
#include "sparse/csb.hpp"
#include "sparse/csr.hpp"

namespace sts::solver {
struct CgPreconditioner;
}

namespace sts::svc {

/// One cached entry: a (matrix, partition) pair, or (only `precond` and
/// `bytes` set) a CG preconditioner built on one.
struct Plan {
  std::shared_ptr<const sparse::Csr> csr;
  std::shared_ptr<const sparse::Csb> csb;
  std::shared_ptr<const solver::CgPreconditioner> precond;
  la::index_t block_size = 0; // resolved block size the partition uses
  std::size_t bytes = 0;      // cache charge for this entry
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;
  std::size_t budget_bytes = 0;
};

class PlanCache {
public:
  /// Default byte budget when STS_CACHE_BYTES is unset.
  static constexpr std::size_t kDefaultBudget = 256u << 20;

  explicit PlanCache(std::size_t budget_bytes);

  /// Budget from the STS_CACHE_BYTES environment variable (bytes), falling
  /// back to kDefaultBudget.
  [[nodiscard]] static std::size_t budget_from_env();

  /// Returns the cached plan for (source, directive), or runs `build`,
  /// caches its result, and returns it. The build runs under the cache
  /// lock: with one job executor that is free, and it also means two racing
  /// lookups can never build the same plan twice.
  std::shared_ptr<const Plan> get_or_build(
      const std::string& source, const std::string& directive,
      const std::function<Plan()>& build, bool* was_hit = nullptr);

  [[nodiscard]] CacheStats stats() const;

private:
  struct Key {
    std::string source;
    std::string directive;
    bool operator<(const Key& o) const {
      return source != o.source ? source < o.source : directive < o.directive;
    }
  };
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<Key>::iterator lru_pos; // position in lru_ (front = hottest)
  };

  void evict_over_budget_locked(const Key& keep);

  mutable std::mutex mutex_;
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Key> lru_;
  std::map<Key, Entry> entries_;
};

} // namespace sts::svc
