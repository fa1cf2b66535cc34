#ifndef IDEBENCH_EXEC_PARALLEL_H_
#define IDEBENCH_EXEC_PARALLEL_H_

/// \file parallel.h
/// Morsel-driven parallel execution for the batch aggregation pipeline.
///
/// The vectorized kernels (exec/vectorized.h) are shared-nothing per
/// batch, so any feed order (exec/aggregator.h's `FeedOrder`) parallelizes
/// by splitting its positions into *morsels* of `kMorselRows` (64
/// batches of `kVectorBatchSize`) and fanning them out over a
/// lazily-started, process-wide worker pool:
///
///     rows ──split──> morsel 0 ─> worker A ─> partial aggregator ─┐
///                     morsel 1 ─> worker B ─> partial aggregator ─┼─merge─> result
///                     morsel 2 ─> worker A ─> partial aggregator ─┘  (morsel order)
///
/// Each morsel is aggregated into its own partial `BinnedAggregator`
/// (private dense/hash bin table and `RowBatch` scratch, shared
/// immutable compiled kernels), and partials are folded back with
/// `MergeFrom()` **in morsel index order** on the calling thread.
/// Partials are pooled on the target aggregator
/// (`AcquirePartial`/`ReleasePartial`), so dense tables survive across
/// waves and across the many small budget slices engines advance in.
///
/// Scans prune with the fact columns' zone maps (storage/column.h)
/// inside each morsel's `BinnedAggregator::Process`, the one place blocks
/// are skipped: a morsel is one zone block's worth of rows, so a
/// dispatcher-level check would test the same blocks again.  Walks and
/// samples never prune (exec/aggregator.h's file comment says why).
///
/// Determinism contract: the morsel decomposition and the merge order
/// depend only on the input range and the morsel size — never on the
/// number of workers or on scheduling.  The floating-point reduction tree
/// is therefore fixed, and `MorselProcess` produces **bit-identical**
/// results (bins, estimates, margins, row counters) for every
/// `parallelism >= 1`.  Integer-valued accumulator fields (row counters,
/// COUNT, MIN/MAX, unit weights) are additionally bit-identical to the
/// sequential reference path; real-valued sums differ from the flat
/// sequential sum only by last-ulp regrouping effects.
///
/// Engines choose between the two paths in `EngineBase::Advance`, next
/// to the option that declares the rule: `execution_threads == 1` runs
/// the exact single-threaded code path (`BinnedAggregator::Process`, no
/// pool, no partials), `0` resolves to the hardware concurrency, and any
/// other value runs the morsel path with that parallelism.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/aggregator.h"
#include "exec/vectorized.h"

namespace idebench::exec {

/// Batches per morsel; a morsel is the unit of work-stealing *and* of the
/// deterministic merge order.
inline constexpr int64_t kMorselBatches = 64;

/// Rows per morsel (~64K): large enough that merge overhead vanishes,
/// small enough for load balancing across workers.
inline constexpr int64_t kMorselRows = kMorselBatches * kVectorBatchSize;

/// Hardware concurrency with a floor of 1.
int HardwareThreads();

/// Resolves a Settings-style thread count: 0 -> `HardwareThreads()`,
/// otherwise max(threads, 1).
int ResolveThreadCount(int threads);

/// A lazily-started, process-wide pool of worker threads.  Threads are
/// spawned on first use and grown on demand up to the requested
/// parallelism (capped); they are shared by all engines, the ground-truth
/// oracle, and the benchmarks, so a process never oversubscribes cores
/// with per-engine pools.
class WorkerPool {
 public:
  /// The shared pool (created on first call, joined at process exit).
  static WorkerPool& Shared();

  /// Runs `fn(0) .. fn(tasks - 1)`, each exactly once, using the calling
  /// thread plus up to `parallelism - 1` pool threads; blocks until all
  /// tasks complete.  Tasks are claimed dynamically (work stealing), so
  /// `fn` must be safe to call from multiple threads with distinct
  /// indices.  Re-entrant calls from a pool thread run inline.
  void ParallelFor(int64_t tasks, int parallelism,
                   const std::function<void(int64_t)>& fn);

  /// Threads currently live in the pool (diagnostics/tests).
  int thread_count() const;

  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  WorkerPool() = default;

  struct Job;

  /// Grows the pool to `target` threads (caller holds `mu_`).
  void EnsureThreadsLocked(int target);

  void ThreadMain();

  /// Claims and runs tasks of `job` until none remain.
  static void RunTasks(Job* job);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool shutdown_ = false;
};

/// The morsel-driven feed.  Splits positions [begin, end) of `order`
/// into morsels of `morsel_rows`, rounded down to a multiple of
/// `kVectorBatchSize` — and raised to one batch, 1,024 positions, when
/// smaller, so a `morsel_rows` below 1,024 runs as 1,024 and a range of
/// at most 1,024 positions is one morsel that merges nothing.  It
/// aggregates each morsel into a partial with
/// `BinnedAggregator::Process`, and merges partials into `agg` in morsel
/// order — bit-identical results for every `parallelism >= 1`; see the
/// file comment.  A sample's equal-weight runs are split one by one, so
/// no morsel spans two weights.  `agg` may already hold state
/// (incremental execution).  A run spanning a single morsel aggregates
/// straight into `agg` (a decision made from the input size only, so
/// still schedule-independent).
void MorselProcess(BinnedAggregator* agg, const FeedOrder& order,
                   int64_t begin, int64_t end, int parallelism,
                   int64_t morsel_rows = kMorselRows);

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_PARALLEL_H_
