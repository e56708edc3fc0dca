// Lightweight counters/timers/histograms registry for the parallel runtime.
//
// Engines tick counters from inside parallel hot loops, so a counter must
// never serialize the threads that share it: each counter is an array of
// cache-line-padded shards and a thread always ticks the shard picked by its
// worker_slot() (relaxed atomic add — uncontended in the common case, merely
// slower, never wrong, when external threads collide on shard 0). Reads merge
// the shards, so `read()` is exact once the ticking threads have quiesced
// (e.g. after the parallel_for that ticked it returned). Histograms follow
// the same sharding discipline with per-shard log2 bucket arrays.
//
// Handles returned by counter()/timer()/histogram() are stable for the
// process lifetime; look them up once (static local) rather than per tick —
// the registry lookup takes a mutex, the tick itself never does.
//
// Metric names follow the dotted `layer.noun[.sub]` convention documented in
// DESIGN.md §9 (e.g. `store.hits`, `atpg.justify.probes`,
// `faultsim.detection_matrix`).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace pdf::runtime {

class Metrics {
 public:
  class Counter {
   public:
    void add(std::uint64_t v = 1) {
      shard().fetch_add(v, std::memory_order_relaxed);
    }
    std::uint64_t read() const {
      std::uint64_t sum = 0;
      for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
      return sum;
    }
    void reset() {
      for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
    }

   private:
    static constexpr std::size_t kShards = 64;
    struct alignas(64) Shard {
      std::atomic<std::uint64_t> v{0};
    };
    std::atomic<std::uint64_t>& shard();
    std::array<Shard, kShards> shards_;
  };

  /// Accumulated wall time (nanoseconds) plus a call count; tick with a
  /// Timer::Scope so early returns and exceptions are still counted.
  class Timer {
   public:
    class Scope {
     public:
      explicit Scope(Timer& t)
          : timer_(t), start_(std::chrono::steady_clock::now()) {}
      ~Scope() {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        timer_.ns_.add(static_cast<std::uint64_t>(ns));
        timer_.calls_.add(1);
      }
      Scope(const Scope&) = delete;
      Scope& operator=(const Scope&) = delete;

     private:
      Timer& timer_;
      std::chrono::steady_clock::time_point start_;
    };

    Scope measure() { return Scope(*this); }
    /// Adds one call that took `ns`, for time a caller sums from pieces.
    void record(std::uint64_t ns) {
      ns_.add(ns);
      calls_.add(1);
    }
    std::uint64_t total_ns() const { return ns_.read(); }
    std::uint64_t calls() const { return calls_.read(); }
    void reset() {
      ns_.reset();
      calls_.reset();
    }

   private:
    Counter ns_;
    Counter calls_;
  };

  /// Log-bucketed distribution of unsigned values. Bucket 0 holds the value
  /// 0 and bucket k (k >= 1) the range [2^(k-1), 2^k - 1], so any uint64
  /// lands in one of 65 buckets and `record()` is a handful of relaxed
  /// atomic operations on the caller's shard — safe from any pool worker,
  /// never a lock. Percentiles come from the merged buckets (the reported
  /// value is the bucket's upper bound, clipped to the observed maximum), so
  /// p50/p90 carry at most one power-of-two of quantization — plenty for
  /// "is this distribution heavy-tailed" questions, at counter-like cost.
  class Histogram {
   public:
    static constexpr std::size_t kBuckets = 65;

    /// Bucket index for a value: 0 for 0, otherwise std::bit_width(v).
    static std::size_t bucket_of(std::uint64_t v);
    /// Smallest / largest value mapping to bucket `b`.
    static std::uint64_t bucket_lower(std::size_t b);
    static std::uint64_t bucket_upper(std::size_t b);

    void record(std::uint64_t v);

    /// A merged, quiesced view of the histogram (exact once the recording
    /// threads have finished, like Counter::read()).
    struct Snapshot {
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
      std::uint64_t max = 0;
      std::array<std::uint64_t, kBuckets> buckets{};

      /// Upper bound of the bucket containing quantile q in [0, 1], clipped
      /// to the observed maximum; 0 when the histogram is empty.
      std::uint64_t percentile(double q) const;
      std::uint64_t p50() const { return percentile(0.50); }
      std::uint64_t p90() const { return percentile(0.90); }
      std::uint64_t p99() const { return percentile(0.99); }

      /// Accumulates `other` into this snapshot: buckets/count/sum add,
      /// max takes the larger. Merging deltas from disjoint intervals (or
      /// disjoint processes) yields the combined distribution exactly.
      void merge(const Snapshot& other);

      /// The records observed between `earlier` and this snapshot:
      /// buckets/count/sum subtract (clamped at 0, so a reset() between the
      /// two snapshots degrades to "this" rather than underflowing). The
      /// delta keeps this snapshot's max — an upper bound for the interval,
      /// since per-interval maxima are not recoverable from running maxima.
      Snapshot delta_since(const Snapshot& earlier) const;
    };
    Snapshot snapshot() const;
    void reset();

   private:
    static constexpr std::size_t kShards = 16;
    struct alignas(64) Shard {
      std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
      std::atomic<std::uint64_t> sum{0};
      std::atomic<std::uint64_t> max{0};
    };
    Shard& shard();
    std::array<Shard, kShards> shards_;
  };

  /// The process-wide registry.
  static Metrics& global();

  /// Returns the named counter/timer/histogram, creating it on first use.
  /// The returned reference stays valid for the process lifetime.
  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// A point-in-time copy of every registered metric, for structured export
  /// (the --metrics-json run manifest; see obs/manifest.hpp).
  struct TimerValue {
    std::uint64_t total_ns = 0;
    std::uint64_t calls = 0;
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, TimerValue> timers;
    std::map<std::string, Histogram::Snapshot> histograms;

    /// Accumulates `other` into this snapshot, metric by metric: counters
    /// and timers add, histograms merge bucket-wise; metrics present in
    /// only one operand carry over unchanged.
    void merge(const Snapshot& other);

    /// The activity between `earlier` and this snapshot: counters/timers
    /// subtract (clamped at 0) and histograms take their bucket-wise delta.
    /// Metrics that did not exist at `earlier` appear with their full
    /// value. This is what the live `stats` admin request and the
    /// --stats-every poller diff against.
    Snapshot delta_since(const Snapshot& earlier) const;
  };
  Snapshot snapshot() const;

  /// One line per metric, name-sorted within each kind:
  ///   counter <name> <value>
  ///   timer <name> <total_ns> ns <calls> calls
  ///   hist <name> count <n> sum <s> p50 <v> p90 <v> max <v>
  std::string dump() const;

  /// Zeroes every registered metric (handles stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace pdf::runtime
