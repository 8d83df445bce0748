#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>

#include "common/check.h"
#include "common/sync.h"

namespace ccnvm {
namespace {

thread_local bool t_in_job = false;

std::atomic<std::uint64_t> g_dispatches{0};

/// One parallel_for call as the pool sees it. Lives on the caller's stack
/// until every helper that joined it has left.
struct Job {
  std::size_t count = 0;
  detail::IndexFn fn;
  /// The caller's CCNVM_CHECK context, so a check tripped on a helper
  /// names the operation that fanned out.
  detail::CheckContext* check_ctx = nullptr;
  std::atomic<std::size_t> next{0};

  std::mutex error_mu;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  /// The caller-side task's exception; only the caller touches it.
  std::exception_ptr task_error;

  /// Helpers that may still join; guarded by Pool::mu_.
  std::size_t seats = 0;
  /// Helpers inside work(). Changed only under Pool::mu_, but read
  /// without it by the caller waiting for its last helpers.
  std::atomic<std::size_t> active{0};
};

void work(Job& job) {
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    try {
      job.fn.call(job.fn.target, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.error_mu);
      if (i < job.error_index) {
        job.error_index = i;
        job.error = std::current_exception();
      }
    }
  }
}

class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// The process-wide pool, started on first use. Never destroyed: a
  /// static destructor joining the workers could race a late caller on
  /// another thread at exit, and parked threads cost nothing.
  static Pool& instance() {
    static Pool* pool = new Pool(parallel_pool_size());
    return *pool;
  }

  void run(Job& job, std::size_t helpers, detail::TaskFn task) {
    {
      MutexLock lock(mu_);
      job.seats = helpers;
      queue_.push_back(&job);
      queued_.store(queue_.size());
    }
    for (std::size_t s = 0; s < helpers; ++s) wake_.notify_one();
    if (task.call != nullptr) {
      try {
        task.call(task.target);
      } catch (...) {
        job.task_error = std::current_exception();
      }
    }
    work(job);
    {
      MutexLock lock(mu_);
      const auto it = std::find(queue_.begin(), queue_.end(), &job);
      if (it != queue_.end()) {
        queue_.erase(it);
        queued_.store(queue_.size());
      }
    }
    // Every index is claimed; helpers still inside are finishing their
    // last one. Yield to them first: sleeping on done_ would cost a
    // wake-up longer than the wait itself.
    for (int spin = 0; spin < kSpinYields && job.active.load() != 0; ++spin) {
      std::this_thread::yield();
    }
    if (job.active.load() == 0) return;
    MutexLock lock(mu_);
    done_.wait(lock, [&job] { return job.active.load() == 0; });
  }

 private:
  void worker_main() {
    t_in_job = true;
    while (true) {
      // Callers tend to come in bursts (a recovery wave per page run, a
      // read_blocks call per scan chunk) separated by short serial image
      // reads; a worker that just finished yields a while before parking,
      // so the next call finds it awake instead of paying a wake-up.
      for (int spin = 0; spin < kSpinYields && queued_.load() == 0; ++spin) {
        std::this_thread::yield();
      }
      Job* job = nullptr;
      {
        MutexLock lock(mu_);
        wake_.wait(lock, [this]() CCNVM_REQUIRES(mu_) {
          return !queue_.empty();
        });
        job = queue_.front();
        if (--job->seats == 0) pop_front_locked();
        ++job->active;
      }
      detail::current_check_context() = job->check_ctx;
      work(*job);
      detail::current_check_context() = nullptr;
      // The caller may return the moment active reaches zero: job is not
      // touched after the decrement.
      MutexLock lock(mu_);
      if (job->active.fetch_sub(1) == 1) done_.notify_all();
    }
  }

  void pop_front_locked() CCNVM_REQUIRES(mu_) {
    queue_.pop_front();
    queued_.store(queue_.size());
  }

  static constexpr int kSpinYields = 256;

  Mutex mu_;
  CondVar wake_;
  CondVar done_;
  /// Calls with seats left, oldest first.
  std::deque<Job*> queue_ CCNVM_GUARDED_BY(mu_);
  /// queue_.size(), readable without the lock by spinning workers.
  std::atomic<std::size_t> queued_{0};
  std::vector<std::thread> threads_;
};

}  // namespace

std::size_t parallel_pool_size() { return default_parallelism() - 1; }

std::uint64_t parallel_pool_dispatches() {
  return g_dispatches.load(std::memory_order_relaxed);
}

namespace detail {

bool in_parallel_job() { return t_in_job; }

void run_on_pool(std::size_t count, std::size_t helpers, IndexFn fn,
                 TaskFn task) {
  g_dispatches.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.count = count;
  job.fn = fn;
  job.check_ctx = current_check_context();
  Pool& pool = Pool::instance();
  t_in_job = true;
  pool.run(job, helpers, task);
  t_in_job = false;
  if (job.error) std::rethrow_exception(job.error);
  if (job.task_error) std::rethrow_exception(job.task_error);
}

}  // namespace detail
}  // namespace ccnvm
