#include "driver/ground_truth.h"

#include <unordered_set>
#include <utility>

#include "exec/parallel.h"

namespace idebench::driver {

GroundTruthOracle::GroundTruthOracle(
    std::shared_ptr<const storage::Catalog> catalog, int threads)
    : catalog_(std::move(catalog)),
      threads_(threads),
      joins_(catalog_.get()) {}

Result<query::QueryResult> GroundTruthOracle::Compute(
    const query::QuerySpec& spec,
    const std::vector<const exec::JoinIndex*>& joins) const {
  IDB_ASSIGN_OR_RETURN(exec::BoundQuery bound,
                       exec::BoundQuery::Bind(spec, *catalog_, joins));
  exec::BinnedAggregator aggregator(&bound);
  // Morsel-parallel full scan; results do not depend on the thread count
  // (exec/parallel.h), so cached answers are machine-independent.  Each
  // morsel consults the fact columns' zone maps and skips the blocks the
  // query's filter/bin ranges provably exclude — on the selective
  // ground-truth queries of a warm-up pass most blocks never get
  // scanned, and skipped rows are still accounted so the exact answers
  // are bit-identical to an unpruned scan.
  exec::MorselProcessRange(&aggregator, 0, catalog_->fact_table()->num_rows(),
                           exec::ResolveThreadCount(threads_));
  query::QueryResult result = aggregator.ExactResult();
  result.available = true;
  return result;
}

Result<const query::QueryResult*> GroundTruthOracle::Get(
    const query::QuerySpec& spec) {
  const std::string signature = spec.Signature();
  auto it = cache_.find(signature);
  if (it != cache_.end()) {
    ++cache_hits_;
    return it->second.get();
  }
  IDB_ASSIGN_OR_RETURN(std::vector<const exec::JoinIndex*> joins,
                       joins_.For(spec));
  IDB_ASSIGN_OR_RETURN(query::QueryResult computed, Compute(spec, joins));
  auto result = std::make_unique<query::QueryResult>(std::move(computed));
  const query::QueryResult* ptr = result.get();
  cache_.emplace(signature, std::move(result));
  return ptr;
}

Status GroundTruthOracle::Warm(const std::vector<query::QuerySpec>& specs) {
  // Collect the uncached work-list (first occurrence per signature) and
  // pre-build every join index serially — the parallel section below must
  // only read frozen state.
  struct Pending {
    const query::QuerySpec* spec = nullptr;
    std::string signature;
    std::vector<const exec::JoinIndex*> joins;
    Result<query::QueryResult> result = query::QueryResult{};
  };
  std::vector<Pending> pending;
  std::unordered_set<std::string> queued;
  for (const query::QuerySpec& spec : specs) {
    std::string signature = spec.Signature();
    if (cache_.count(signature) != 0 || !queued.insert(signature).second) {
      continue;
    }
    Pending p;
    p.spec = &spec;
    p.signature = std::move(signature);
    IDB_ASSIGN_OR_RETURN(p.joins, joins_.For(spec));
    pending.push_back(std::move(p));
  }
  if (pending.empty()) return Status::OK();

  // One task per query; each task's scan is itself morsel-parallel but
  // runs inline when the pool is saturated by the outer fan-out, so the
  // pool never oversubscribes.
  exec::WorkerPool::Shared().ParallelFor(
      static_cast<int64_t>(pending.size()),
      exec::ResolveThreadCount(threads_), [&](int64_t i) {
        Pending& p = pending[static_cast<size_t>(i)];
        p.result = Compute(*p.spec, p.joins);
      });

  // Fill the cache in input order (deterministic, single-threaded).
  for (Pending& p : pending) {
    IDB_RETURN_NOT_OK(p.result.status());
    cache_.emplace(p.signature,
                   std::make_unique<query::QueryResult>(
                       std::move(p.result).MoveValueUnsafe()));
  }
  return Status::OK();
}

}  // namespace idebench::driver
