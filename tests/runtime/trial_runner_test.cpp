#include "runtime/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/random.h"
#include "util/stats.h"

namespace prlc::runtime {
namespace {

TEST(TrialSeed, DeterministicAndCounterBased) {
  EXPECT_EQ(trial_seed(7, 0), trial_seed(7, 0));
  EXPECT_NE(trial_seed(7, 0), trial_seed(7, 1));
  EXPECT_NE(trial_seed(7, 0), trial_seed(8, 0));
}

TEST(TrialSeed, DistinctAcrossManyTrialsAndRoots) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {0ULL, 1ULL, 7ULL, 0xDEADBEEFULL}) {
    for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(trial_seed(root, i));
  }
  EXPECT_EQ(seen.size(), 4u * 1000u);  // no collisions in this small set
}

TEST(TrialRunner, ResultsInTrialOrder) {
  TrialRunner runner(4);
  const auto out = runner.run(100, 5, [](std::size_t i, Rng&) { return i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(TrialRunner, BitIdenticalAcrossThreadCounts) {
  // The core contract: the per-trial random streams and the returned
  // vector do not depend on the thread count.
  auto run = [](std::size_t threads) {
    TrialRunner runner(threads);
    return runner.run(64, 0xABCDEF, [](std::size_t i, Rng& rng) {
      double acc = static_cast<double>(i);
      for (int k = 0; k < 50; ++k) acc += rng.uniform_double();
      return acc;
    });
  };
  const auto serial = run(1);
  const auto four = run(4);
  const auto eight = run(8);
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);
}

TEST(TrialRunner, SeedChangesResults) {
  TrialRunner runner(1);
  auto sample = [&](std::uint64_t seed) {
    return runner.run(8, seed, [](std::size_t, Rng& rng) { return rng.uniform_double(); });
  };
  EXPECT_NE(sample(1), sample(2));
}

TEST(TrialRunner, EveryTrialRunsExactlyOnce) {
  constexpr std::size_t kTrials = 1000;
  std::vector<std::atomic<int>> hits(kTrials);
  TrialRunner runner(4);
  runner.run(kTrials, 3, [&](std::size_t i, Rng&) { return hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTrials; ++i) EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
}

TEST(TrialRunner, ExceptionPropagates) {
  // Two trials fail. Every trial still runs, and the rethrown error is the
  // lowest-index one whatever the thread count and completion order.
  for (std::size_t threads : {1u, 4u, 8u}) {
    TrialRunner runner(threads);
    std::atomic<std::size_t> ran{0};
    try {
      runner.run(32, 9, [&](std::size_t i, Rng&) -> int {
        ran.fetch_add(1);
        if (i == 13) throw std::runtime_error("trial 13 failed");
        if (i == 5) throw std::runtime_error("trial 5 failed");
        return 0;
      });
      ADD_FAILURE() << "no exception at threads = " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 5 failed") << "threads = " << threads;
    }
    EXPECT_EQ(ran.load(), 32u) << "threads = " << threads;
  }
}

TEST(TrialRunner, NestedRunnerCompletes) {
  // A trial may fan out its own trials: the inner runner starts its own
  // threads, so nothing waits on a shared worker.
  TrialRunner outer(2);
  const auto sums = outer.run(4, 11, [](std::size_t, Rng&) {
    TrialRunner inner(4);
    const auto ones = inner.run(8, 12, [](std::size_t, Rng&) { return std::size_t{1}; });
    return std::accumulate(ones.begin(), ones.end(), std::size_t{0});
  });
  EXPECT_EQ(sums, (std::vector<std::size_t>(4, 8)));
}

struct Row {
  std::size_t point = 0;  ///< not a stat: the merge keeps trial 0's value
  double a = 0;
  double ci95_a = 0;
  double b = 0;
};

constexpr PointStat<Row> kRowStats[] = {{&Row::a, &Row::ci95_a}, {&Row::b}};

TEST(TrialRunner, RunMergedMergesInTrialOrder) {
  constexpr std::size_t kTrials = 37;
  constexpr std::size_t kPoints = 3;
  auto trial = [](std::size_t t, Rng& rng) {
    std::vector<Row> rows(kPoints);
    for (std::size_t p = 0; p < kPoints; ++p) {
      rows[p].point = p + 100 * t;
      rows[p].a = rng.uniform_double() * static_cast<double>(p + 1);
      rows[p].b = rng.uniform_double() - 0.5;
    }
    return rows;
  };
  // The reference: the same per-trial samples, merged by hand in trial order.
  std::vector<RunningStats> a(kPoints);
  std::vector<RunningStats> b(kPoints);
  for (std::size_t t = 0; t < kTrials; ++t) {
    Rng rng(trial_seed(21, t));
    const auto rows = trial(t, rng);
    for (std::size_t p = 0; p < kPoints; ++p) {
      a[p].add(rows[p].a);
      b[p].add(rows[p].b);
    }
  }
  for (std::size_t threads : {1u, 8u}) {
    TrialRunner runner(threads);
    const auto merged = runner.run_merged<Row>(kTrials, 21, kRowStats, trial);
    ASSERT_EQ(merged.size(), kPoints);
    for (std::size_t p = 0; p < kPoints; ++p) {
      EXPECT_EQ(merged[p].point, p) << "threads = " << threads;
      EXPECT_EQ(merged[p].a, a[p].mean()) << "threads = " << threads;
      EXPECT_EQ(merged[p].ci95_a, a[p].ci95_halfwidth()) << "threads = " << threads;
      EXPECT_EQ(merged[p].b, b[p].mean()) << "threads = " << threads;
    }
  }
}

TEST(TrialRunner, ZeroTrialsReturnsEmpty) {
  TrialRunner runner(2);
  const auto out = runner.run(0, 1, [](std::size_t, Rng&) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(TrialRunner, ZeroThreadsMeansHardware) {
  TrialRunner runner(0);
  EXPECT_GE(runner.threads(), 1u);
}

}  // namespace
}  // namespace prlc::runtime
