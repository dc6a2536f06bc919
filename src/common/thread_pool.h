// Work-stealing thread pool shared by every parallel join driver.
//
// A ThreadPool owns a fixed set of workers, each with its own task deque:
// owners push and pop at the back (LIFO, for locality), idle workers steal
// from the front of the other deques (FIFO, so the oldest — typically
// largest — chunks migrate first). ParallelFor splits an index range into
// chunks ("dynamic chunking": many more chunks than workers, so fast
// workers drain the slow workers' deques) and blocks until every chunk has
// run, with the calling thread itself executing and stealing chunks while
// it waits. Because the caller participates, ParallelFor may be invoked
// from inside a pool task (nested submission) without deadlock. The pool
// is fork-join only: every task belongs to a ParallelFor batch that its
// caller waits for, so no task outlives the call that queued it.
//
// Concurrency notes:
//  * The deques are guarded by one pool mutex. Tasks are coarse chunks, so
//    the lock is taken O(#chunks) times per ParallelFor, not O(#items);
//    for the join workloads this is noise next to the per-chunk work.
//  * One external thread may drive a pool instance at a time (pool worker
//    threads may additionally issue nested calls). The join drivers create
//    a pool per invocation, which satisfies this trivially.
//  * Exceptions thrown by a task are captured and rethrown to the caller:
//    ParallelFor rethrows the first chunk exception after the whole batch
//    has finished. The stps library itself never throws (no-exceptions
//    policy) — propagation exists for client callables and the tests.

#ifndef STPS_COMMON_THREAD_POOL_H_
#define STPS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace stps {

/// Execution knobs for the parallel join drivers. A field of TopKQuery,
/// so top-k callers opt in per query; RunSTPSJoin builds one from
/// JoinOptions::threads with the automatic grain.
struct ParallelOptions {
  /// Worker count; 1 (the default) selects the sequential driver.
  int num_threads = 1;
  /// Iterations per ParallelFor chunk; 0 picks a chunk size yielding
  /// ~8 chunks per worker (good load balance at low scheduling cost).
  size_t grain = 0;
};

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` background workers; the thread calling
  /// ParallelFor acts as the remaining worker (slot 0).
  /// Precondition: num_threads >= 1.
  explicit ThreadPool(int num_threads);

  /// Joins the workers. No task is queued by then: each ParallelFor
  /// returns only once its whole batch has run.
  ~ThreadPool();

  STPS_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  int num_threads() const { return num_threads_; }

  /// Runs body(chunk_begin, chunk_end, worker) over disjoint chunks
  /// covering [begin, end), `grain` iterations per chunk (0 = auto).
  /// `worker` is the executing slot in [0, num_threads()); two chunks
  /// running concurrently always see different slots, so per-slot
  /// accumulators need no synchronisation. Blocks until every chunk has
  /// run; rethrows the first chunk exception. With num_threads() == 1
  /// the chunks run inline, in ascending order — exactly a serial loop.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t, int)>& body);

  /// Per-index convenience over ParallelFor: fn(index, worker).
  void ParallelForEach(size_t begin, size_t end, size_t grain,
                       const std::function<void(size_t, int)>& fn);

 private:
  // Completion state of one ParallelFor call, on the caller's stack.
  struct Batch {
    size_t remaining = 0;
    std::exception_ptr error;
  };

  struct Task {
    std::function<void(int worker)> fn;
    Batch* batch = nullptr;
  };

  // The slot the calling thread runs tasks under: its worker slot for
  // pool threads, 0 for the external caller.
  int CallerSlot() const;

  // Pops a task: own back first, then steals the front of the other
  // deques (round-robin from slot + 1). Requires mu_ held.
  bool TryPopLocked(int slot, Task* task);

  // Executes `task` on `slot`, recording exceptions and completion.
  void RunTask(int slot, Task task);

  void WorkerLoop(int slot);

  const int num_threads_;
  std::mutex mu_;
  std::condition_variable cv_;                // new work & task completion
  std::vector<std::deque<Task>> queues_;      // one per slot
  bool stop_ = false;
  std::vector<std::thread> workers_;          // slots 1 .. num_threads-1
};

}  // namespace stps

#endif  // STPS_COMMON_THREAD_POOL_H_
