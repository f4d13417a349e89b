// Deterministic parallel Monte-Carlo trial engine.
//
// Every figure in the paper is an average over independent experiments;
// TrialRunner fans those trials out over plain threads while keeping the
// results bit-identical at any thread count. Three rules make that hold:
//
//   * Counter-based seed streams. Trial i always draws from
//     Rng(trial_seed(root_seed, i)) — a stateless hash of (root_seed, i)
//     — never from a generator advanced trial-by-trial. Which thread runs
//     the trial, and in what order, cannot influence its random stream.
//   * Fixed fan-out, slotted results. min(threads, trials) workers — the
//     calling thread plus that many minus one std::threads — claim trial
//     indices from one atomic counter and write trial i's result into
//     slot i of a pre-sized vector.
//   * Ordered merge after the join. Aggregation (Welford stats — order
//     sensitive in floating point) walks the slots in trial order on one
//     thread (run_merged). A failing trial does not stop the others;
//     after the join the lowest-index trial's exception is rethrown, so
//     the error is as thread-count-independent as the results.
//
// Contract: run(trials, root_seed, fn) returns exactly the same bytes for
// threads = 1 and threads = N. The experiment drivers (proto/*_experiment,
// proto/refresh, codes/decoding_curve) and the bench drivers rely on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/events.h"
#include "util/check.h"
#include "util/random.h"
#include "util/stats.h"

namespace prlc::runtime {

/// Stateless per-trial seed: a SplitMix64 hash of (root_seed, trial).
/// Changing either input decorrelates the whole stream; equal inputs give
/// equal seeds on every platform, thread count and call order.
inline std::uint64_t trial_seed(std::uint64_t root_seed, std::uint64_t trial) {
  // Offset the counter by one golden-ratio step so trial_seed(s, 0) is not
  // the plain SplitMix64 of s (which Rng::reseed would correlate with).
  std::uint64_t state = root_seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
  const std::uint64_t a = splitmix64_next(state);
  return a ^ splitmix64_next(state);
}

/// One statistic of a per-point row type P: the field a trial's row
/// carries its sample in (and the merge writes the mean across trials
/// to), plus optionally the field that receives the 95% CI half-width.
template <typename P>
struct PointStat {
  double P::*mean;
  double P::*ci95 = nullptr;
};

/// Fans independent trials out over threads; see the header comment for
/// the determinism contract.
class TrialRunner {
 public:
  /// `threads` = 0: one per hardware thread; 1: inline on the calling
  /// thread (no thread started — the serial baseline for speedup numbers).
  explicit TrialRunner(std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  /// Run fn(trial_index, rng) for every trial, each with its own
  /// counter-seeded Rng, and return the per-trial results in trial order.
  /// Every trial runs even if another throws; afterwards the exception of
  /// the lowest-index failing trial is rethrown.
  template <typename Fn>
  auto run(std::size_t trials, std::uint64_t root_seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
    using Result = std::invoke_result_t<Fn&, std::size_t, Rng&>;
    static_assert(std::is_default_constructible_v<Result>,
                  "per-trial results are slotted into a pre-sized vector");
    std::vector<Result> results(trials);
    std::vector<std::exception_ptr> errors(trials);
    // One telemetry run id per run() invocation, allocated here on the
    // calling thread so ids follow the program's experiment order; each
    // trial journals under (run, trial), thread count invisible.
    const std::uint64_t telemetry_run = obs::begin_telemetry_run();
    fan_out(trials, [&](std::size_t i) {
      try {
        obs::TrialScope telemetry(telemetry_run, i);
        record_trial_start();
        const std::uint64_t t0 = trial_clock_ns();
        Rng rng(trial_seed(root_seed, i));
        results[i] = fn(i, rng);
        record_trial_done(trial_clock_ns() - t0);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    return results;
  }

  /// Run `trial(t, rng) -> std::vector<P>` (one row per sweep point, the
  /// same count every trial), then merge in trial order: each stat
  /// becomes its RunningStats mean (and CI) over the trials; every other
  /// field is trial 0's (the point's sweep coordinates).
  template <typename P, typename Trial>
  std::vector<P> run_merged(std::size_t trials, std::uint64_t root_seed,
                            std::span<const PointStat<P>> stats, Trial&& trial) {
    PRLC_REQUIRE(trials > 0, "need at least one trial");
    const std::vector<std::vector<P>> rows = run(trials, root_seed, trial);
    std::vector<P> out = rows.front();
    for (const std::vector<P>& trial_rows : rows) {
      PRLC_ASSERT(trial_rows.size() == out.size(), "trials returned different row counts");
    }
    for (std::size_t point = 0; point < out.size(); ++point) {
      for (const PointStat<P>& stat : stats) {
        RunningStats merged;
        for (const std::vector<P>& trial_rows : rows) merged.add(trial_rows[point].*stat.mean);
        out[point].*stat.mean = merged.mean();
        if (stat.ci95 != nullptr) out[point].*stat.ci95 = merged.ci95_halfwidth();
      }
    }
    return out;
  }

 private:
  /// Call trial(i) once for every i in [0, trials) on min(threads_,
  /// trials) workers and return after the last one finished. `trial`
  /// must not throw.
  void fan_out(std::size_t trials, const std::function<void(std::size_t)>& trial) const;

  // obs probes, out-of-line so this header does not pull in the registry.
  static std::uint64_t trial_clock_ns();
  static void record_trial_start();
  static void record_trial_done(std::uint64_t elapsed_ns);

  std::size_t threads_;
};

}  // namespace prlc::runtime
