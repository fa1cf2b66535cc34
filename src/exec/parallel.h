#ifndef IDEBENCH_EXEC_PARALLEL_H_
#define IDEBENCH_EXEC_PARALLEL_H_

/// \file parallel.h
/// Morsel-driven parallel execution for the batch aggregation pipeline.
///
/// The vectorized kernels (exec/vectorized.h) are shared-nothing per
/// batch, so a scan or shuffled walk parallelizes by splitting the input
/// into *morsels* of `kMorselRows` rows (64 batches of `kVectorBatchSize`)
/// and fanning them out over a lazily-started, process-wide worker pool:
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
/// Range scans prune with the fact columns' zone maps (storage/column.h)
/// inside each morsel's `BinnedAggregator::ProcessRange`, the one place
/// blocks are skipped: a morsel is one zone block's worth of rows, so
/// a dispatcher-level check would test the same blocks again.  Shuffled
/// walks mix rows from every block and never prune.
///
/// Determinism contract: the morsel decomposition and the merge order
/// depend only on the input range and the morsel size — never on the
/// number of workers or on scheduling.  The floating-point reduction tree
/// is therefore fixed, and `MorselProcess*` produces **bit-identical**
/// results (bins, estimates, margins, row counters) for every
/// `parallelism >= 1`.  Integer-valued accumulator fields (row counters,
/// COUNT, MIN/MAX, unit weights) are additionally bit-identical to the
/// sequential reference path; real-valued sums differ from the flat
/// sequential sum only by last-ulp regrouping effects.
///
/// The engine-facing `Process*Parallel` wrappers honor the Settings
/// contract: `threads == 1` runs the exact single-threaded code path
/// (`BinnedAggregator::Process*`, no pool, no partials), `threads == 0`
/// resolves to the hardware concurrency, and any other value runs the
/// morsel path with that parallelism.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "aqp/sampler.h"
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

/// Morsel-driven drivers.  All three split the input into morsels of
/// `morsel_rows` (clamped to a multiple of `kVectorBatchSize`), aggregate
/// each morsel into a partial, and merge partials into `agg` in morsel
/// order — bit-identical results for every `parallelism >= 1`; see the
/// file comment.  `agg` may already hold state (incremental execution).
/// Inputs spanning a single morsel aggregate straight into `agg` (a
/// decision made from the input size only, so still schedule-independent).
void MorselProcessRange(BinnedAggregator* agg, int64_t begin, int64_t end,
                        int parallelism, int64_t morsel_rows = kMorselRows);
void MorselProcessWalk(BinnedAggregator* agg, const aqp::ShuffledIndex& order,
                       int64_t key, int64_t start_pos, int64_t count,
                       int parallelism, int64_t morsel_rows = kMorselRows);
void MorselProcessBatch(BinnedAggregator* agg, const int64_t* rows, int64_t n,
                        double weight, int parallelism,
                        int64_t morsel_rows = kMorselRows);

/// Engine-facing wrappers: `threads == 1` -> the exact sequential code
/// path; otherwise the morsel path with `ResolveThreadCount(threads)`.
void ProcessRangeParallel(BinnedAggregator* agg, int64_t begin, int64_t end,
                          int threads);
void ProcessWalkParallel(BinnedAggregator* agg,
                         const aqp::ShuffledIndex& order, int64_t key,
                         int64_t start_pos, int64_t count, int threads);
void ProcessBatchParallel(BinnedAggregator* agg, const int64_t* rows,
                          int64_t n, double weight, int threads);

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_PARALLEL_H_
