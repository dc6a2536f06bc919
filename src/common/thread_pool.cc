#include "common/thread_pool.h"

#include <algorithm>

namespace stps {

namespace {

// Which pool (if any) the current thread belongs to, and its slot. Lets
// nested ParallelFor calls from a worker run chunks under the worker's
// own slot, keeping the slots of concurrently running chunks distinct.
struct ThreadSlot {
  const ThreadPool* pool = nullptr;
  int slot = 0;
};
thread_local ThreadSlot tls_slot;

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  STPS_CHECK(num_threads >= 1);
  queues_.resize(static_cast<size_t>(num_threads));
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int slot = 1; slot < num_threads; ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::CallerSlot() const {
  return tls_slot.pool == this ? tls_slot.slot : 0;
}

bool ThreadPool::TryPopLocked(int slot, Task* task) {
  std::deque<Task>& own = queues_[static_cast<size_t>(slot)];
  if (!own.empty()) {
    *task = std::move(own.back());
    own.pop_back();
    return true;
  }
  for (int step = 1; step < num_threads_; ++step) {
    std::deque<Task>& victim =
        queues_[static_cast<size_t>((slot + step) % num_threads_)];
    if (!victim.empty()) {
      *task = std::move(victim.front());
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::RunTask(int slot, Task task) {
  const ThreadSlot saved = tls_slot;
  tls_slot = {this, slot};
  std::exception_ptr error;
  try {
    task.fn(slot);
  } catch (...) {
    error = std::current_exception();
  }
  tls_slot = saved;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !task.batch->error) task.batch->error = error;
    --task.batch->remaining;
  }
  // Completion may unblock a ParallelFor caller; new-work notifications
  // happen at enqueue time.
  cv_.notify_all();
}

void ThreadPool::WorkerLoop(int slot) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Task task;
    if (TryPopLocked(slot, &task)) {
      lock.unlock();
      RunTask(slot, std::move(task));
      lock.lock();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock);
  }
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, int)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t chunk =
      grain > 0
          ? grain
          : std::max<size_t>(1, n / (static_cast<size_t>(num_threads_) * 8));
  if (num_threads_ == 1) {
    // Serial reference behaviour: chunks in ascending order, slot 0,
    // exceptions propagate directly.
    for (size_t lo = begin; lo < end; lo += chunk) {
      body(lo, std::min(end, lo + chunk), 0);
    }
    return;
  }

  Batch batch;
  const int caller = CallerSlot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t queue = static_cast<size_t>(caller);
    for (size_t lo = begin; lo < end; lo += chunk) {
      const size_t hi = std::min(end, lo + chunk);
      queues_[queue % static_cast<size_t>(num_threads_)].push_back(
          Task{[&body, lo, hi](int worker) { body(lo, hi, worker); },
               &batch});
      ++queue;
      ++batch.remaining;
    }
  }
  cv_.notify_all();

  // Help until the batch drains: run own/stolen tasks (possibly from
  // other batches — that only speeds global progress), sleep only when
  // no task is runnable anywhere.
  std::unique_lock<std::mutex> lock(mu_);
  while (batch.remaining > 0) {
    Task task;
    if (TryPopLocked(caller, &task)) {
      lock.unlock();
      RunTask(caller, std::move(task));
      lock.lock();
      continue;
    }
    cv_.wait(lock);
  }
  std::exception_ptr error = batch.error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelForEach(size_t begin, size_t end, size_t grain,
                                 const std::function<void(size_t, int)>& fn) {
  ParallelFor(begin, end, grain,
              [&fn](size_t lo, size_t hi, int worker) {
                for (size_t i = lo; i < hi; ++i) fn(i, worker);
              });
}

}  // namespace stps
