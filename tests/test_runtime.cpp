#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "runtime/metrics.hpp"
#include "runtime/per_worker.hpp"
#include "runtime/thread_pool.hpp"

namespace pdf {
namespace {

using runtime::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      for (const std::size_t grain : {1u, 3u, 64u, 2000u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, grain, [&](std::size_t b, std::size_t e) {
          ASSERT_LE(b, e);
          ASSERT_LE(e, n);
          for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                       << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPool, UnevenChunkCostsStillCoverEverything) {
  // Chunks at the front are far more expensive than the rest; stealing must
  // spread them without dropping or double-running any index.
  ThreadPool pool(8);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<std::uint64_t>> sink(kN);
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(kN, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Busy work inversely proportional to the index.
      std::uint64_t acc = i;
      const std::uint64_t spins = (i < 8) ? 200000 : 100;
      for (std::uint64_t s = 0; s < spins; ++s) acc = acc * 6364136223846793005ULL + 1;
      sink[i].store(acc, std::memory_order_relaxed);
      covered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(covered.load(), kN);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // A nested call must execute the whole range as one inline chunk.
      bool single_chunk = false;
      pool.parallel_for(100, 10, [&](std::size_t ib, std::size_t ie) {
        if (ib == 0 && ie == 100) single_chunk = true;
        inner_calls.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_TRUE(single_chunk);
    }
  });
  EXPECT_EQ(inner_calls.load(), 8);
}

TEST(ThreadPool, ReduceIsDeterministicAcrossThreadCounts) {
  // Subtraction is non-associative and non-commutative: only a fixed
  // chunk-order join gives a stable answer.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.parallel_reduce<double>(
        1000, 7, 0.0,
        [](std::size_t b, std::size_t e) {
          double v = 0.0;
          for (std::size_t i = b; i < e; ++i) v += 1.0 / (1.0 + static_cast<double>(i));
          return v;
        },
        [](double a, double b) { return a / 2 - b; });
  };
  const double expect = run(1);
  EXPECT_EQ(expect, run(2));
  EXPECT_EQ(expect, run(8));
}

TEST(ThreadPool, ReduceSumsExactly) {
  ThreadPool pool(4);
  const std::uint64_t got = pool.parallel_reduce<std::uint64_t>(
      10000, 64, std::uint64_t{0},
      [](std::size_t b, std::size_t e) {
        std::uint64_t s = 0;
        for (std::size_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, 10000ull * 9999ull / 2);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives and runs the next job.
  std::atomic<int> ran{0};
  pool.parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    ran.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, WorkerSlotsAreDenseAndStable) {
  EXPECT_EQ(runtime::worker_slot(), 0u);  // the test thread is external
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::size_t> seen;
  // The caller participates in parallel_for, so slot 0 shows up alongside
  // worker slots — but on an oversubscribed machine the workers can drain
  // every chunk before the caller claims one, so allow a few attempts.
  bool caller_seen = false;
  for (int attempt = 0; attempt < 50 && !caller_seen; ++attempt) {
    seen.clear();
    pool.parallel_for(1024, 1, [&](std::size_t, std::size_t) {
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(runtime::worker_slot());
    });
    for (std::size_t s : seen) ASSERT_LT(s, runtime::kMaxWorkerSlots);
    caller_seen = std::find(seen.begin(), seen.end(), 0u) != seen.end();
  }
  EXPECT_TRUE(caller_seen);
}

TEST(ThreadPool, RejectsCountsAboveLimitBeforeStartingThreads) {
  // Both counts throw in the constructor, before the first worker starts.
  for (const std::size_t n : {runtime::kMaxThreads + 1, SIZE_MAX}) {
    EXPECT_THROW({ ThreadPool pool(n); }, std::invalid_argument) << n;
    EXPECT_THROW(runtime::set_global_threads(n), std::invalid_argument) << n;
  }
}

TEST(PerWorker, LocalStateIsPerThreadAndEnumerable) {
  ThreadPool pool(4);
  runtime::PerWorker<std::uint64_t> counts;
  pool.parallel_for(5000, 1, [&](std::size_t b, std::size_t e) {
    counts.local() += e - b;  // no synchronization needed: slot-private
  });
  std::uint64_t total = 0;
  counts.for_each([&](const std::uint64_t& c) { total += c; });
  EXPECT_EQ(total, 5000u);
}

TEST(Metrics, CountersAggregateAcrossThreads) {
  runtime::Metrics m;
  runtime::Metrics::Counter& c = m.counter("test.hits");
  ThreadPool pool(8);
  pool.parallel_for(4096, 1, [&](std::size_t b, std::size_t e) {
    c.add(e - b);
  });
  EXPECT_EQ(c.read(), 4096u);
  c.reset();
  EXPECT_EQ(c.read(), 0u);
}

TEST(Metrics, TimerCountsCallsAndDumpFormat) {
  runtime::Metrics m;
  runtime::Metrics::Timer& t = m.timer("test.span");
  { const auto scope = t.measure(); }
  { const auto scope = t.measure(); }
  m.counter("test.alpha").add(3);
  const std::string dump = m.dump();
  EXPECT_NE(dump.find("counter test.alpha 3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("timer test.span"), std::string::npos) << dump;
  EXPECT_NE(dump.find("2 calls"), std::string::npos) << dump;
  // Lookup by the same name returns the same object.
  EXPECT_EQ(&m.timer("test.span"), &t);
  m.reset();
  EXPECT_NE(m.dump().find("counter test.alpha 0"), std::string::npos);
}

TEST(RngSplit, DoesNotAdvanceParent) {
  Rng a(42), b(42);
  (void)a.split(0);
  (void)a.split(123456789);
  EXPECT_EQ(a.next(), b.next());
}

TEST(RngSplit, StableAndStreamDependent) {
  const Rng parent(7);
  Rng s0 = parent.split(0);
  Rng s0_again = parent.split(0);
  Rng s1 = parent.split(1);
  const std::uint64_t v0 = s0.next();
  EXPECT_EQ(v0, s0_again.next());
  EXPECT_NE(v0, s1.next());
  // Different parents give different streams.
  Rng other = Rng(8).split(0);
  EXPECT_NE(v0, other.next());
}

}  // namespace
}  // namespace pdf
