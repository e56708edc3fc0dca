#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "runtime/metrics.hpp"

namespace pdf::runtime {
namespace {

// Registry lookups take a mutex; resolve the runtime's own metrics once.
Metrics::Counter& steal_counter() {
  static Metrics::Counter& c = Metrics::global().counter("runtime.steals");
  return c;
}
Metrics::Counter& launch_counter() {
  static Metrics::Counter& c =
      Metrics::global().counter("runtime.parallel_for");
  return c;
}
Metrics::Counter& chunk_counter() {
  static Metrics::Counter& c = Metrics::global().counter("runtime.chunks");
  return c;
}

// Slot 0 is the main/external thread; pool workers draw unique slots from a
// free list refilled when workers exit, falling back to this counter. A
// dying worker's slot is only handed out after its pool joined it (release
// runs before the thread returns, acquire goes through the same mutex), so
// two live threads never share a slot and kMaxWorkerSlots bounds the
// *concurrent* worker count, not the number of pool re-creations — a
// long-lived process may resize the global pool freely (the pdf_check
// thread-determinism fuzz does so thousands of times).
std::atomic<std::size_t> g_next_slot{1};
std::mutex g_slot_mu;
std::vector<std::size_t> g_free_slots;
thread_local std::size_t t_worker_slot = 0;

std::size_t acquire_worker_slot() {
  {
    std::lock_guard<std::mutex> lk(g_slot_mu);
    if (!g_free_slots.empty()) {
      const std::size_t slot = g_free_slots.back();
      g_free_slots.pop_back();
      return slot;
    }
  }
  return g_next_slot.fetch_add(1, std::memory_order_relaxed);
}

void release_worker_slot(std::size_t slot) {
  std::lock_guard<std::mutex> lk(g_slot_mu);
  g_free_slots.push_back(slot);
}

// Depth of pool tasks on this thread; > 0 means a parallel_for here is
// nested and must run inline.
thread_local int t_task_depth = 0;

}  // namespace

std::size_t worker_slot() { return t_worker_slot; }

ExternalWorkerScope::ExternalWorkerScope() {
  if (t_worker_slot != 0) {
    throw std::logic_error(
        "ExternalWorkerScope: thread already holds a worker slot");
  }
  slot_ = acquire_worker_slot();
  if (slot_ >= kMaxWorkerSlots) {
    // Same bound as pool workers: never let two live threads share a slot.
    release_worker_slot(slot_);
    throw std::logic_error("ExternalWorkerScope: worker slots exhausted");
  }
  t_worker_slot = slot_;
}

ExternalWorkerScope::~ExternalWorkerScope() {
  t_worker_slot = 0;
  release_worker_slot(slot_);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument(
        "ThreadPool: more than runtime::kMaxThreads threads");
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  const std::size_t worker_count = threads - 1;
  workers_.reserve(worker_count);
  blocks_ = std::vector<Block>(threads);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main(std::size_t ordinal) {
  t_worker_slot = acquire_worker_slot();
  if (t_worker_slot >= kMaxWorkerSlots) {
    // Requires more than kMaxWorkerSlots concurrent workers; fail loudly
    // rather than risk two live threads sharing per-worker state.
    std::terminate();
  }
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) {
        release_worker_slot(t_worker_slot);
        return;
      }
      seen = epoch_;
    }
    work(ordinal + 1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_chunk(std::size_t chunk) {
  const std::size_t begin = chunk * grain_;
  const std::size_t end = begin + grain_ < n_ ? begin + grain_ : n_;
  try {
    (*body_)(begin, end);
  } catch (...) {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::work(std::size_t self) {
  ++t_task_depth;
  const std::size_t participants = blocks_.size();
  // Drain the own block first, then steal single chunks from the others.
  for (std::size_t v = 0; v < participants; ++v) {
    const std::size_t idx = (self + v) % participants;
    Block& b = blocks_[idx];
    for (;;) {
      const std::size_t c = b.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= b.end) break;
      if (v != 0) steal_counter().add(1);
      run_chunk(c);
    }
  }
  --t_task_depth;
}

std::size_t ThreadPool::concurrency(std::size_t chunks) const {
  const bool inline_run = workers_.empty() || t_task_depth > 0;
  return std::min(chunks, inline_run ? std::size_t{1} : thread_count());
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (workers_.empty() || chunks <= 1 || t_task_depth > 0) {
    // Sequential / nested path: same chunk boundaries, same thread.
    body(0, n);
    return;
  }

  std::lock_guard<std::mutex> run_lk(run_mu_);
  body_ = &body;
  n_ = n;
  grain_ = grain;
  chunks_ = chunks;
  error_ = nullptr;
  const std::size_t participants = blocks_.size();
  for (std::size_t p = 0; p < participants; ++p) {
    blocks_[p].next.store(chunks * p / participants,
                          std::memory_order_relaxed);
    blocks_[p].end = chunks * (p + 1) / participants;
  }
  launch_counter().add(1);
  chunk_counter().add(chunks);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++epoch_;
    outstanding_ = workers_.size();
  }
  wake_cv_.notify_all();

  work(0);  // the caller is participant 0

  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return outstanding_ == 0; });
  }
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(threads);
}

std::size_t global_threads() { return global_pool().thread_count(); }

}  // namespace pdf::runtime
