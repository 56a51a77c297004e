#pragma once

/// \file parallel.hpp
/// A tiny persistent thread pool exposing parallel_for. Used by the training
/// substrate to spread conv/GEMM work over cores, by run_repeated to run
/// independent simulation repetitions concurrently, and by the sharded fleet
/// engine (src/shard) to advance shards inside a conservative time window.
///
/// Worker-count policy: the pool starts at the ADAFLOW_THREADS environment
/// override when set (clamped to [1, 512]), else hardware_concurrency().
/// set_worker_count() resizes it at runtime — tests and benches use this to
/// prove thread-count invariance ({1, 4, hw} must produce bit-identical
/// simulation metrics).

#include <cstdint>
#include <functional>

namespace adaflow {

/// Runs fn(i) for i in [0, count) across the global worker pool. Blocks until
/// all iterations finish. fn must be safe to call concurrently for distinct i.
/// Falls back to a serial loop for small counts, when only one core exists,
/// and when called from inside another parallel_for's iteration (a nested
/// call runs inline on the calling thread instead of waiting on the pool).
void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn);

/// Number of workers in the global pool (>= 1).
int parallel_worker_count();

/// Resizes the global pool to \p workers threads (the calling thread counts
/// as one of them, so \p workers == 1 means fully serial). \p workers <= 0
/// resets to the default: the ADAFLOW_THREADS environment override when set,
/// else hardware_concurrency(). Values are clamped to [1, 512]. Must not be
/// called concurrently with parallel_for.
void set_worker_count(int workers);

/// The default worker count: ADAFLOW_THREADS (clamped to [1, 512]) when the
/// environment variable is set to a positive integer, else
/// hardware_concurrency() (>= 1). Malformed values are ignored.
int default_worker_count();

}  // namespace adaflow
