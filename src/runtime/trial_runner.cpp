#include "runtime/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace prlc::runtime {

TrialRunner::TrialRunner(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::max(1u, std::thread::hardware_concurrency());
}

void TrialRunner::fan_out(std::size_t trials,
                          const std::function<void(std::size_t)>& trial) const {
  const std::size_t workers = std::min(threads_, trials);
  if (workers <= 1) {
    for (std::size_t i = 0; i < trials; ++i) trial(i);
    return;
  }
  obs::gauge("runtime.pool.threads").set(static_cast<std::int64_t>(workers));
  // Per-worker utilization, resolved here so the workers run nothing that
  // can throw outside a trial's own catch; worker 0 is the calling thread.
  struct WorkerMetrics {
    obs::Counter& busy_ns;
    obs::Counter& tasks;
  };
  std::vector<WorkerMetrics> metrics;
  metrics.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::string prefix = "runtime.pool.t" + std::to_string(w);
    metrics.push_back({obs::counter(prefix + ".busy_ns"), obs::counter(prefix + ".tasks")});
  }
  std::atomic<std::size_t> next{0};
  auto work = [&](std::size_t worker) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < trials;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const bool timed = obs::enabled();
      const std::uint64_t t0 = timed ? obs::ScopedTimer::now_ns() : 0;
      trial(i);
      if (timed) {
        metrics[worker].busy_ns.add(obs::ScopedTimer::now_ns() - t0);
        metrics[worker].tasks.add();
      }
    }
  };
  // jthreads join on scope exit, also if starting a later one throws.
  std::vector<std::jthread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work, w);
  work(0);
}

std::uint64_t TrialRunner::trial_clock_ns() {
  return obs::enabled() ? obs::ScopedTimer::now_ns() : 0;
}

void TrialRunner::record_trial_start() {
  static obs::Counter& started = obs::counter("runtime.trials_started");
  started.add();
}

void TrialRunner::record_trial_done(std::uint64_t elapsed_ns) {
  static obs::Counter& done = obs::counter("runtime.trials_done");
  static obs::LatencyHistogram& latency = obs::histogram("runtime.trial_ns");
  done.add();
  if (obs::enabled()) latency.record(elapsed_ns);
}

}  // namespace prlc::runtime
