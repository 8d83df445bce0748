// Deterministic parallel job executor.
//
// The fuzzing campaigns and crash sweeps are embarrassingly parallel: a
// scenario/case is a pure function of (campaign seed, job index), and the
// campaign result is a fold over the per-job results *in index order*.
// Recovery's hashing waves and read_blocks' decrypt/verify bursts have the
// same shape at a finer grain. parallel_for runs exactly that shape: jobs
// pull indices from a shared atomic counter, write results only into their
// own index's slot, and the caller reduces sequentially afterwards — so the
// observable outcome is bit-identical for any worker count, including 1
// (which runs inline on the calling thread and never touches the pool).
//
// Workers: one process-wide pool of parked threads, started on the first
// call that needs it and sized to the hardware concurrency minus one — the
// calling thread always works its own call, so a call never runs wider
// than the core count. Recovery makes hundreds of small calls per reopen;
// the pool turns each into a wake-up instead of a thread spawn and join.
// The pool is compute-only: a job must never block waiting on another job
// (blocking actors such as benchmark clients get their own std::thread).
//
// Nesting: a parallel_for called from inside a parallel_for job — on a pool
// worker or on the participating caller — runs inline. A crash sweep's or
// fuzz campaign's scenario that calls recover() therefore never re-enters
// the pool, and cannot deadlock on it. Concurrent top-level callers share
// the pool's workers; each caller drains its own call, so both finish.
//
// Exceptions: a throwing job does not tear down the run. Every worker
// keeps draining indices; after the join, the exception from the
// *lowest-index* failing job is rethrown, so error reporting is as
// deterministic as the results. Jobs that must survive their own failures
// (fuzz cases) catch internally and return a failure value instead.
//
// Overlap: parallel_for_overlapped adds one caller-side task. The helpers
// start on the indices while the calling thread runs the task, then the
// caller joins them. This is how a serial producer (recovery's page-run
// scan, read_blocks' fetch), which must stay on the calling thread,
// reads the next batch while the pool hashes the last one.
//
// Fork: the pool's threads do not survive fork(). A child that only
// execs (crashd's workers) is safe; a child must not call parallel_for
// with more than one worker before it execs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace ccnvm {

/// Number of workers to use for `jobs == 0` ("auto"): the hardware
/// concurrency, floored at 1.
inline std::size_t default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Parked worker threads in the process-wide pool (default_parallelism()
/// minus one; the pool may not have started yet). A parallel_for uses at
/// most this many of them plus its calling thread.
std::size_t parallel_pool_size();

/// Number of parallel_for calls handed to the pool since process start.
/// Calls that run inline (one worker, one index, nested) do not count.
std::uint64_t parallel_pool_dispatches();

namespace detail {

/// Type-erased reference to a parallel_for body.
struct IndexFn {
  void* target = nullptr;
  void (*call)(void* target, std::size_t index) = nullptr;
};

/// Type-erased reference to a caller-side task; null when there is none.
struct TaskFn {
  void* target = nullptr;
  void (*call)(void* target) = nullptr;
};

/// True on a pool worker, and on a caller while it works its own call.
bool in_parallel_job();

/// Runs `task` (if any) on the calling thread while up to `helpers` pool
/// workers start on fn over [0, count), then works the remaining indices
/// on the calling thread too. Rethrows the lowest-index exception, else
/// the task's.
void run_on_pool(std::size_t count, std::size_t helpers, IndexFn fn,
                 TaskFn task = {});

template <typename Fn>
IndexFn index_fn(Fn& fn) {
  using Target = Fn*;
  return {const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
          [](void* t, std::size_t i) { (*static_cast<Target>(t))(i); }};
}

}  // namespace detail

/// Runs fn(i) for every i in [0, count) on up to `workers` threads (0 =
/// auto), the calling thread among them. fn must not touch state shared
/// with other indices except through its own result slot; the call
/// returns after every index ran. The first exception by index order is
/// rethrown.
///
/// Thread-safety analysis is disabled for the body: the safety argument
/// is slot ownership by index (each job writes only out[i] for the unique
/// i it claimed from the atomic counter), a discipline clang's capability
/// analysis cannot express — there is no lock, the fetch_add *is* the
/// handoff. Callers passing closures that capture CCNVM_GUARDED_BY state
/// still get checked at the capture site.
template <typename Fn>
CCNVM_NO_THREAD_SAFETY_ANALYSIS void parallel_for(std::size_t count,
                                                  std::size_t workers,
                                                  Fn&& fn) {
  if (count == 0) return;
  if (workers == 0) workers = default_parallelism();
  workers = std::min({workers, count, parallel_pool_size() + 1});
  if (workers <= 1 || detail::in_parallel_job()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  detail::run_on_pool(count, workers - 1, detail::index_fn(fn));
}

/// Runs `caller_task()` once on the calling thread while fn(i) runs for
/// every i in [0, count) on up to `workers` threads (0 = auto), the
/// calling thread joining them once its task is done. The task may touch
/// what must stay on the calling thread (image reads and writes); it must
/// not touch what the indices read or write. Unlike parallel_for, a
/// single index still goes to a helper, since the caller is busy.
///
/// With one worker, or inside a parallel job, everything runs inline:
/// the task, then the indices in order. A parallel_for inside the task
/// runs inline too. Every index runs even if the task throws; the
/// lowest-index exception is rethrown, else the task's.
template <typename Task, typename Fn>
CCNVM_NO_THREAD_SAFETY_ANALYSIS void parallel_for_overlapped(
    std::size_t count, std::size_t workers, Task&& caller_task, Fn&& fn) {
  if (workers == 0) workers = default_parallelism();
  const std::size_t helpers =
      std::min({workers - 1, count, parallel_pool_size()});
  if (helpers == 0 || detail::in_parallel_job()) {
    std::exception_ptr task_error;
    try {
      caller_task();
    } catch (...) {
      task_error = std::current_exception();
    }
    for (std::size_t i = 0; i < count; ++i) fn(i);
    if (task_error) std::rethrow_exception(task_error);
    return;
  }
  using Target = std::remove_reference_t<Task>*;
  detail::run_on_pool(
      count, helpers, detail::index_fn(fn),
      {const_cast<void*>(
           static_cast<const void*>(std::addressof(caller_task))),
       [](void* t) { (*static_cast<Target>(t))(); }});
}

/// parallel_for that materializes results: out[i] = fn(i). The output
/// vector is ordered by index, so reductions over it are independent of
/// the worker count and of scheduling.
template <typename T, typename Fn>
CCNVM_NO_THREAD_SAFETY_ANALYSIS std::vector<T> parallel_map(std::size_t count,
                                                            std::size_t workers,
                                                            Fn&& fn) {
  std::vector<T> out(count);
  parallel_for(count, workers, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace ccnvm
