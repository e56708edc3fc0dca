// Per-thread state slots for engines that keep mutable scratch (arenas,
// memo caches) but want one engine instance shared across pool workers.
//
// A PerWorker<T> is an array of lazily-constructed T slots indexed by
// worker_slot(). Distinct pool workers always resolve to distinct slots, so
// `local()` needs no lock: a slot's unique_ptr is only ever written by the
// one thread that owns the slot. The supported sharing contract is the same
// as the runtime's: one external thread plus the global pool's workers.
// Multiple *external* threads all map to slot 0 and must not share one
// instance — give each its own engine, as before the runtime existed.
//
// A TaskArenas<T> is the per-call counterpart: buffers lent to the tasks of
// one parallel_for. PerWorker slots warm lazily on whichever workers happen
// to run a call's tasks, so a warm-up call can leave slots cold that a later
// call of the same shape then grows. TaskArenas is sized up front to the
// call's concurrency (ThreadPool::concurrency), so one warm-up call sized
// like the batch warms every arena any later call of that shape can touch,
// whatever the schedule.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace pdf::runtime {

template <typename T>
class PerWorker {
 public:
  PerWorker() : slots_(kMaxWorkerSlots) {}

  /// The calling thread's slot, default-constructed on first use.
  T& local() {
    std::unique_ptr<T>& p = slots_[worker_slot()];
    if (!p) p = std::make_unique<T>();
    return *p;
  }

  /// Visits every slot that was ever materialized. Only safe when no thread
  /// is concurrently calling local() (e.g. after a parallel_for returned).
  template <typename F>
  void for_each(F&& f) {
    for (auto& p : slots_) {
      if (p) f(*p);
    }
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

template <typename T>
class TaskArenas {
 public:
  /// Lends exactly the first `n` arenas to the next parallel phase and
  /// returns them for sizing. Calling thread only, outside any parallel
  /// phase; `n` must be at least the phase's concurrency.
  std::span<T> prepare(std::size_t n) {
    if (arenas_.size() < n) arenas_.resize(n);
    free_.clear();
    for (std::size_t i = n; i-- > 0;) free_.push_back(i);
    return {arenas_.data(), n};
  }

  /// An arena no concurrently running task holds; returned to the free
  /// list when the lease ends.
  class Lease {
   public:
    Lease(TaskArenas& owner, std::size_t i) : owner_(owner), i_(i) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      std::lock_guard<std::mutex> lk(owner_.mu_);
      owner_.free_.push_back(i_);
    }
    T& operator*() const { return owner_.arenas_[i_]; }

   private:
    TaskArenas& owner_;
    std::size_t i_;
  };

  /// Borrows a free arena for the calling task.
  Lease lease() {
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.empty()) {
      throw std::logic_error("TaskArenas: more tasks than prepared arenas");
    }
    const std::size_t i = free_.back();
    free_.pop_back();
    return Lease(*this, i);
  }

 private:
  std::vector<T> arenas_;
  std::vector<std::size_t> free_;  // indices of arenas no task holds
  std::mutex mu_;
};

}  // namespace pdf::runtime
