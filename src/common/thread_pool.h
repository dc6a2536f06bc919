// Fork-join loop shared by every parallel driver.
//
// ParallelForEach starts threads - 1 std::threads, and those threads and
// the caller claim fixed-size chunks of the index range from one atomic
// cursor, in ascending index order, until the range runs out; then the
// threads are joined. Each driver makes exactly one call per query and
// none nests one, so there is no pool object, no task queue and no
// stealing.
//
// Why ascending claims: the top-k drivers order users so that the k-th
// score rises early (paper Section 4.2), and TOPK-S-PPJ-P's Lemma 2
// prefilter drops later users whole once it has. A worker that started
// at the end of that order would verify pairs the serial order never
// reaches. Each chunk, and each worker's sequence of chunks, runs in
// ascending order, and at any moment the claimed prefix is contiguous.
//
// The library throws nothing. A body that throws anyway ends the process
// (std::terminate), on whichever thread ran it.

#ifndef STPS_COMMON_THREAD_POOL_H_
#define STPS_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace stps {

/// The thread budget of a parallel driver. A field of TopKQuery, so
/// top-k callers opt in per query; RunSTPSJoin builds one from
/// JoinOptions::threads.
struct ParallelOptions {
  /// Thread count; 1 (the default) runs the loop inline on the caller.
  int num_threads = 1;
};

/// Runs fn(index, worker) once for every index in [begin, end), on
/// `threads` threads: the caller and threads - 1 it starts and joins
/// before returning. Chunks of about (end - begin) / (8 * threads)
/// indices are claimed in ascending order. `worker` is the running
/// thread's slot in [0, threads); two calls that run concurrently always
/// see different slots, so per-slot accumulators need no synchronisation.
/// With threads == 1 the loop runs inline, in ascending order — exactly
/// a serial loop. Precondition: threads >= 1.
void ParallelForEach(int threads, size_t begin, size_t end,
                     const std::function<void(size_t, int)>& fn);

}  // namespace stps

#endif  // STPS_COMMON_THREAD_POOL_H_
