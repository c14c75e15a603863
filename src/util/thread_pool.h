#ifndef CCPI_UTIL_THREAD_POOL_H_
#define CCPI_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ccpi {

/// Fixed-size worker pool of the constraint manager: the tier-3 fan-out
/// (each undecided constraint's full evaluation over the post-update
/// database is independent of every other's, so only the verdict
/// aggregation needs serializing), the per-site batched prefetch, and
/// pipeline speculation.
///
/// Design points:
///   - ParallelFor is the blocking work-distribution primitive: it runs
///     `fn(i)` for every i in [0, n) across the workers plus the calling
///     thread, blocks until all are done, and returns the first non-OK
///     Status *in index order* (not completion order), so error reporting
///     is deterministic regardless of scheduling.
///   - Submit is the fire-and-forget primitive behind the manager's
///     pipelined episode scheduler: a task is queued for any free worker
///     and the caller returns immediately (completion is the task's own
///     business — the scheduler tracks it per episode). Workers prefer a
///     pending ParallelFor batch over queued tasks, and a ParallelFor
///     whose workers are all busy with tasks simply drains its batch on
///     the calling thread, so the two primitives cannot deadlock each
///     other.
///   - Exceptions thrown by `fn` are captured and surfaced as
///     StatusCode::kInternal — they never cross thread boundaries raw.
///   - A pool constructed with `threads` <= 1 spawns no workers and runs
///     ParallelFor inline on the caller, byte-for-byte the sequential
///     loop; callers need no special casing for the single-threaded
///     configuration.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread is the remaining
  /// lane). `threads` == 0 is treated as 1.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, counting the caller: the `threads` given at
  /// construction (>= 1).
  size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `fn(0) .. fn(n-1)`, each exactly once, distributed over the
  /// workers and the calling thread; returns after every call finished.
  /// The result is OK iff every call returned OK; otherwise the non-OK
  /// Status with the smallest index. Not reentrant: `fn` must not call
  /// ParallelFor on the same pool.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

  /// Enqueues `task` to run on some worker thread and returns immediately.
  /// With no workers (threads <= 1) the task runs inline before Submit
  /// returns, so single-threaded configurations keep strictly sequential
  /// semantics. Exceptions escaping the task are swallowed (tasks report
  /// through their own captured state, exactly like ParallelFor bodies
  /// report through Status slots). Tasks still queued at destruction are
  /// run to completion before the workers exit.
  void Submit(std::function<void()> task);

 private:
  struct Batch;

  void WorkerLoop();
  /// Claims indexes from `batch` and runs them until all are claimed.
  static void Drain(Batch* batch);
  static void RunTask(const std::function<void()>& task);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;  // workers: a new batch or task
  std::condition_variable batch_done_;  // caller: the batch fully finished
  // Shared ownership keeps the batch alive for any worker still inside
  // Drain after the caller retired it; the generation counter stops a
  // worker from draining the same batch twice.
  std::shared_ptr<Batch> batch_;
  std::deque<std::function<void()>> tasks_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace ccpi

#endif  // CCPI_UTIL_THREAD_POOL_H_
