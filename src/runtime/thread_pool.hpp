// Deterministic parallel runtime: fixed-size thread pool with a chunked,
// work-stealing parallel_for / parallel_reduce.
//
// Design constraints, in priority order:
//
//  1. *Determinism*: an N-thread run must be bit-identical to a 1-thread run.
//     The pool therefore never decides *what* a chunk computes — only *which
//     thread* runs it. Chunk boundaries depend on (n, grain) alone, never on
//     the thread count, and parallel_reduce joins per-chunk results in chunk
//     order, so even floating-point reductions are reproducible.
//  2. *Load balance*: chunks are partitioned into one contiguous block of
//     chunk indices per participant; a participant that drains its own block
//     steals single chunks from the other blocks (atomic cursor per block).
//     Uneven per-chunk costs therefore spread across the pool without any
//     cost model.
//  3. *Nesting is inline*: a parallel_for issued from inside a pool task runs
//     sequentially on the issuing thread. Engines can parallelize their hot
//     loop unconditionally and still be safely composed under an outer
//     parallel sweep (e.g. a multi-seed experiment running whole workbenches
//     per task).
//
// The caller participates: a pool constructed with `threads = T` owns T-1
// worker threads and parallel_for uses the calling thread as the T-th
// participant. `threads <= 1` means no workers at all and every parallel_for
// runs inline — the sequential path stays allocation- and sync-free.
//
// Most code uses the process-global pool (`global_pool()`), sized once at
// startup or via set_global_threads (e.g. the benches' --threads flag).
// Per-thread state (scratch arenas, RNG streams, metric shards) is indexed by
// worker_slot(): a small dense id that is 0 on the main thread and unique per
// pool worker — see per_worker.hpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdf::runtime {

/// Upper bound on distinct worker slots handed out over the process lifetime
/// (slot 0 plus pool worker threads, across pool re-creations). Creating more
/// worker threads than this throws; per-worker state arrays size to it.
inline constexpr std::size_t kMaxWorkerSlots = 1024;

/// The largest thread count accepted from outside input: ThreadPool sizes,
/// serve::ServerConfig::concurrency and the CLIs' thread and client flags.
/// Larger counts throw std::invalid_argument before any thread starts. A pool
/// of kMaxThreads participants needs kMaxThreads - 1 worker slots, so it fits.
inline constexpr std::size_t kMaxThreads = kMaxWorkerSlots;

/// Dense per-thread id: 0 for the main/external thread, a unique value in
/// [1, kMaxWorkerSlots) for every pool worker thread.
std::size_t worker_slot();

/// RAII registration of a long-lived *external* thread (one the pool did not
/// create — e.g. a pdf_serve request worker) as a distinct per-worker-state
/// participant. Unregistered external threads all report worker_slot() == 0
/// and therefore must not run PerWorker-backed engines concurrently (the
/// singleton sim backends keep slot-indexed scratch). Holding an
/// ExternalWorkerScope for the thread's lifetime gives it a unique slot from
/// the same recycled pool the worker threads draw from, making concurrent
/// engine use from several external threads safe. Construct once per thread;
/// nesting (a thread that already has a nonzero slot) throws.
class ExternalWorkerScope {
 public:
  ExternalWorkerScope();
  ~ExternalWorkerScope();
  ExternalWorkerScope(const ExternalWorkerScope&) = delete;
  ExternalWorkerScope& operator=(const ExternalWorkerScope&) = delete;

  std::size_t slot() const { return slot_; }

 private:
  std::size_t slot_;
};

class ThreadPool {
 public:
  /// Total participant count including the caller; 0 picks the hardware
  /// concurrency. `threads <= 1` creates no worker threads. Throws
  /// std::invalid_argument when `threads` exceeds kMaxThreads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants (workers + caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs body(begin, end) over disjoint subranges covering [0, n). Subrange
  /// boundaries are multiples of `grain` (last one clipped to n) regardless
  /// of the thread count. Runs inline when there are no workers, only one
  /// chunk, or the call is nested inside another parallel_for task. The first
  /// exception thrown by any chunk is rethrown on the calling thread after
  /// all chunks finish.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// The most body calls a parallel_for over `chunks` chunks, issued from
  /// the calling thread right now, can run at once: 1 on the inline paths
  /// (no workers, a single chunk, or nested inside a pool task), else
  /// min(chunks, thread_count()). Sizes per-call task arenas.
  std::size_t concurrency(std::size_t chunks) const;

  /// Deterministic map/reduce: `map(begin, end)` produces one T per chunk;
  /// the per-chunk results are joined *in chunk order*, so the value is
  /// independent of the thread count even for non-associative joins.
  template <typename T, typename Map, typename Join>
  T parallel_reduce(std::size_t n, std::size_t grain, T identity, Map map,
                    Join join) {
    if (n == 0) return identity;
    if (grain == 0) grain = 1;
    const std::size_t chunks = (n + grain - 1) / grain;
    std::vector<T> partial(chunks, identity);
    parallel_for(chunks, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        const std::size_t begin = c * grain;
        const std::size_t end = begin + grain < n ? begin + grain : n;
        partial[c] = map(begin, end);
      }
    });
    T acc = identity;
    for (std::size_t c = 0; c < chunks; ++c) acc = join(acc, partial[c]);
    return acc;
  }

 private:
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  void worker_main(std::size_t ordinal);
  void work(std::size_t self);
  void run_chunk(std::size_t chunk);

  std::vector<std::thread> workers_;

  // Job launch is serialized: one parallel_for at a time per pool. Nested or
  // concurrent-external calls either run inline or queue on this mutex.
  std::mutex run_mu_;

  // Job state, valid between publish and rendezvous (guarded by run_mu_ plus
  // the epoch handshake below).
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t grain_ = 1;
  std::size_t chunks_ = 0;
  std::vector<Block> blocks_;  // one contiguous chunk block per participant
  std::exception_ptr error_;
  std::mutex error_mu_;

  // Epoch handshake: the caller bumps epoch_ to publish a job and waits until
  // every worker has picked it up and finished (outstanding_ drops to zero)
  // before touching job state again.
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  std::size_t outstanding_ = 0;
  bool stop_ = false;
};

/// The process-global pool. Sized to the hardware on first use unless
/// set_global_threads ran earlier.
ThreadPool& global_pool();

/// Replaces the global pool with one of `threads` participants (0 = hardware
/// concurrency). Must not be called from inside a pool task or while another
/// thread is using the global pool. Throws like ThreadPool(threads) and then
/// keeps the old pool.
void set_global_threads(std::size_t threads);

/// Participant count of the global pool.
std::size_t global_threads();

}  // namespace pdf::runtime
