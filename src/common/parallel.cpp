#include "adaflow/common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace adaflow {

namespace {

constexpr int kMaxWorkers = 512;

/// Set while this thread runs an iteration of a parallel_for job — on a
/// worker or on the publishing caller. A parallel_for issued from inside
/// such an iteration runs serially on this thread: publishing a second job
/// would wait for the pool to drain the first, which cannot finish until
/// this iteration returns.
thread_local bool t_in_pool_task = false;

/// Marks the current thread as running pool iterations for its lifetime.
class TaskScope {
 public:
  TaskScope() { t_in_pool_task = true; }
  ~TaskScope() { t_in_pool_task = false; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;
};

/// Persistent pool: workers sleep until a job (function + iteration range) is
/// published, grab iterations via an atomic counter, then report completion.
class Pool {
 public:
  explicit Pool(int n) { spawn(n); }

  ~Pool() { stop(); }

  int worker_count() const { return worker_count_; }

  /// Joins every worker and restarts the pool at \p n threads (including the
  /// caller). Callers guarantee no parallel_for is in flight.
  void resize(int n) {
    if (n == worker_count_) {
      return;
    }
    stop();
    spawn(n);
  }

  void run(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
    if (count <= 0) {
      return;
    }
    if (count == 1 || workers_.empty() || t_in_pool_task) {
      for (std::int64_t i = 0; i < count; ++i) {
        fn(i);
      }
      return;
    }
    {
      // A worker that woke late for the previous job may still be inside
      // drain(), reading job_ and total_: publish only once it has left.
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return active_ == 0; });
      job_ = &fn;
      total_ = count;
      next_.store(0);
      remaining_.store(count);
      ++generation_;
    }
    cv_.notify_all();
    drain();  // the caller participates
    // Wait for stragglers still inside fn(), and for every worker to leave
    // drain(), so none reads this job's fields once the next is published.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_.load() == 0 && active_ == 0; });
    job_ = nullptr;
  }

 private:
  void spawn(int n) {
    if (n < 1) {
      n = 1;
    }
    if (n > kMaxWorkers) {
      n = kMaxWorkers;
    }
    // The caller thread also works, so spawn n-1 helpers. New workers start
    // at the current generation so a stale job is never re-drained.
    for (int i = 1; i < n; ++i) {
      workers_.emplace_back([this, g = generation_] { worker_loop(g); });
    }
    worker_count_ = n;
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
      w.join();
    }
    workers_.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = false;
    }
    worker_count_ = 1;
  }

  void drain() {
    const TaskScope scope;
    while (true) {
      const std::int64_t i = next_.fetch_add(1);
      if (i >= total_) {
        return;
      }
      (*job_)(i);
      if (remaining_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop(std::uint64_t seen) {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this, seen] { return shutdown_ || generation_ != seen; });
        if (shutdown_) {
          return;
        }
        seen = generation_;
        ++active_;
      }
      drain();
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) {
        done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  int worker_count_ = 1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::int64_t)>* job_ = nullptr;
  std::int64_t total_ = 0;
  std::atomic<std::int64_t> next_{0};
  std::atomic<std::int64_t> remaining_{0};
  std::uint64_t generation_ = 0;
  int active_ = 0;  ///< workers inside drain(); guarded by mutex_
  bool shutdown_ = false;
};

Pool& pool() {
  static Pool p(default_worker_count());
  return p;
}

}  // namespace

int default_worker_count() {
  if (const char* env = std::getenv("ADAFLOW_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return v > kMaxWorkers ? kMaxWorkers : static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw > kMaxWorkers ? kMaxWorkers : hw);
}

void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
  pool().run(count, fn);
}

int parallel_worker_count() { return pool().worker_count(); }

void set_worker_count(int workers) {
  pool().resize(workers <= 0 ? default_worker_count() : workers);
}

}  // namespace adaflow
