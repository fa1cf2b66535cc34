#include "exec/parallel.h"

#include <algorithm>
#include <atomic>

#include "chaos/fault_injector.h"

namespace idebench::exec {
namespace {

/// Upper bound on pool threads; a runaway `threads` setting must not fork
/// bomb the process.
constexpr int kMaxPoolThreads = 64;

/// Set while a pool thread runs tasks, so re-entrant ParallelFor calls
/// degrade to inline execution instead of deadlocking on the pool.
thread_local bool t_in_pool_worker = false;

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int threads) {
  if (threads <= 0) return HardwareThreads();
  return threads;
}

/// One ParallelFor invocation: tasks are claimed off `next`; completion is
/// signalled through `done_mu`/`done_cv` when `finished` reaches `count`.
struct WorkerPool::Job {
  std::function<void(int64_t)> fn;
  int64_t count = 0;
  std::atomic<int64_t> next{0};
  // Participation cap: at most `max_helpers` pool threads may join this
  // job (the caller is an extra participant), so a pool grown large by
  // one caller cannot oversubscribe a later lower-parallelism job.
  int max_helpers = 0;  // guarded by pool mu_
  int joined = 0;       // guarded by pool mu_
  std::mutex done_mu;
  std::condition_variable done_cv;
  int64_t finished = 0;  // guarded by done_mu
};

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void WorkerPool::EnsureThreadsLocked(int target) {
  target = std::min(target, kMaxPoolThreads);
  while (static_cast<int>(threads_.size()) < target) {
    threads_.emplace_back(&WorkerPool::ThreadMain, this);
  }
}

void WorkerPool::RunTasks(Job* job) {
  for (;;) {
    const int64_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->count) return;
    job->fn(i);
    std::lock_guard<std::mutex> lock(job->done_mu);
    if (++job->finished == job->count) job->done_cv.notify_all();
  }
}

void WorkerPool::ThreadMain() {
  t_in_pool_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Retire fully-claimed jobs and find the first one with tasks left
    // and a free helper slot.
    std::shared_ptr<Job> job;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if ((*it)->next.load(std::memory_order_relaxed) >= (*it)->count) {
        it = jobs_.erase(it);
        continue;
      }
      if ((*it)->joined < (*it)->max_helpers) {
        job = *it;
        break;
      }
      ++it;
    }
    if (job == nullptr) {
      if (shutdown_) return;
      work_cv_.wait(lock);
      continue;
    }
    ++job->joined;
    lock.unlock();
    RunTasks(job.get());
    lock.lock();
  }
}

void WorkerPool::ParallelFor(int64_t tasks, int parallelism,
                             const std::function<void(int64_t)>& fn) {
  if (tasks <= 0) return;
  // Chaos site: the pool stalls — no helper picks up the job, so the
  // caller drains every task inline (graceful degradation: slower, never
  // stuck, bit-identical results).  Drawn only on the dispatching thread,
  // never from a pool-worker re-entry, so the draw sequence stays
  // deterministic under the virtual-clock scheduler.
  const bool stalled =
      !t_in_pool_worker &&
      chaos::FaultInjector::Fire(chaos::FaultSite::kWorkerPoolStall);
  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(parallelism) - 1, tasks - 1);
  if (stalled || helpers <= 0 || t_in_pool_worker) {
    for (int64_t i = 0; i < tasks; ++i) fn(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->count = tasks;
  job->max_helpers = static_cast<int>(helpers);
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureThreadsLocked(static_cast<int>(helpers));
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  // The calling thread is a full participant.
  RunTasks(job.get());
  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&] { return job->finished == job->count; });
  }
  {
    // Retire the job if a worker has not already done so.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end()) jobs_.erase(it);
  }
}

namespace {

/// Runs `run(partial, m)` for every morsel index m in [0, morsels) and
/// merges each partial into `target` in ascending morsel order.  Work
/// proceeds in waves of `parallelism` morsels (barrier per wave) with the
/// wave's partials reused via Reset(); since every partial holds exactly
/// one morsel and merges happen in morsel order, the reduction tree — and
/// therefore the result, bit for bit — is independent of both the wave
/// width and the scheduling of morsels onto threads.
void RunMorsels(BinnedAggregator* target, int64_t morsels, int parallelism,
                const std::function<void(BinnedAggregator*, int64_t)>& run) {
  if (morsels <= 0) return;
  if (morsels == 1) {
    // No parallelism to be had: skip the partial allocate/merge round
    // trip and aggregate straight into the target (this matters for the
    // stratified engine's many small weight runs).  The choice depends
    // only on the input size, never on `parallelism`, so results remain
    // thread-count independent.
    run(target, 0);
    return;
  }
  const int wave =
      static_cast<int>(std::min<int64_t>(std::max(parallelism, 1), morsels));
  // Wave partials come from (and return to) the target's pool, so dense
  // bin tables and batch scratch are reused across waves *and* across
  // successive MorselProcess calls on the same aggregator — the engines
  // advance queries in many small budget slices, and reallocating the
  // dense table per slice shows up at high session counts.
  std::vector<std::unique_ptr<BinnedAggregator>> partials;
  partials.reserve(static_cast<size_t>(wave));
  for (int i = 0; i < wave; ++i) partials.push_back(target->AcquirePartial());
  for (int64_t base = 0; base < morsels; base += wave) {
    const int64_t in_wave = std::min<int64_t>(wave, morsels - base);
    WorkerPool::Shared().ParallelFor(in_wave, wave, [&](int64_t j) {
      run(partials[static_cast<size_t>(j)].get(), base + j);
    });
    for (int64_t j = 0; j < in_wave; ++j) {
      BinnedAggregator* partial = partials[static_cast<size_t>(j)].get();
      target->MergeFrom(*partial);
      partial->Reset();
    }
  }
  for (auto& partial : partials) target->ReleasePartial(std::move(partial));
}

/// Clamps a morsel-size override to a positive multiple of the batch size
/// so morsel boundaries coincide with batch boundaries.
int64_t ClampMorselRows(int64_t morsel_rows) {
  if (morsel_rows < kVectorBatchSize) return kVectorBatchSize;
  return morsel_rows - morsel_rows % kVectorBatchSize;
}

/// Chaos site: a slowdown shrinks morsels to a single vector batch —
/// maximal dispatch/merge overhead for the same work.  Drawn on the
/// dispatching thread once per MorselProcess call, or once per
/// equal-weight run of a sample order.  The merge tree changes with the
/// morsel size, so this site is only *bit*-transparent for aggregates
/// whose partial sums are exact (integer-valued columns below 2^53,
/// which the bundled generators produce); the chaos suite's bit-identity
/// invariant runs on such data.
int64_t MaybeSlowMorsels(int64_t morsel_rows) {
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kMorselSlowdown)) {
    return kVectorBatchSize;
  }
  return morsel_rows;
}

}  // namespace

void MorselProcess(BinnedAggregator* agg, const FeedOrder& order,
                   int64_t begin, int64_t end, int parallelism,
                   int64_t morsel_rows) {
  morsel_rows = ClampMorselRows(morsel_rows);
  for (int64_t run = begin; run < end;) {
    const int64_t run_end = order.RunEnd(run, end);
    const int64_t rows = MaybeSlowMorsels(morsel_rows);
    const int64_t morsels = (run_end - run + rows - 1) / rows;
    RunMorsels(agg, morsels, parallelism,
               [&](BinnedAggregator* partial, int64_t m) {
                 const int64_t b = run + m * rows;
                 partial->Process(order, b, std::min(run_end, b + rows));
               });
    run = run_end;
  }
}

}  // namespace idebench::exec
