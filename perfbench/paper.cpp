// paper-512x16: the paper's own regime. The 12-instance Braun suite at
// 512 x 16, round robin, each instance solved by par::run_parallel with the
// Table 1 configuration (16 x 16 grid, L5, best-two, tpx, move, 10 H2LL
// passes, 3 threads pinned to cores as in §4.1) under a fixed wall budget.
//
// In this workload a "job" is a run of kSweepsPerJob block sweeps of one
// engine thread (the unit of work the asynchronous engine schedules without
// a barrier); its latency is the time thread 0 takes for them, stamped by
// the generation observer. Single sweeps (about a millisecond) would make
// the p99 a count of host preemptions rather than of engine work, and the
// latency quantiles are medians over one-second windows for the same
// reason. Every solve is seeded with a Min-min individual, so its gain over
// Min-min at the wall budget is makespan_gain_pct; reschedule_gain_pct is
// the gain over that seed after a fixed kCappedSweeps sweeps of thread 0,
// the generation-capped figure a warm reschedule reports, which does not
// move with speed.
#include <algorithm>

#include "bench.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "pacga/parallel_engine.hpp"

namespace perfbench {

using namespace pacga;

namespace {
constexpr int kSetupReps = 15;
constexpr std::size_t kPaperThreads = 3;
constexpr std::uint64_t kSweepsPerJob = 16;
constexpr std::uint64_t kCappedSweeps = 256;
constexpr double kLatencyWindowSeconds = 1.0;
}  // namespace

void run_paper(const Options& opt, Report& report, Tracer& tracer) {
  const auto names = etc::braun_suite_names();
  std::vector<std::unique_ptr<etc::EtcMatrix>> instances;
  std::vector<double> min_min(names.size());
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    instances.clear();
    for (std::size_t i = 0; i < names.size(); ++i) {
      {
        Scoped span(tracer, "etc", "generate_by_name", i);
        instances.push_back(
            std::make_unique<etc::EtcMatrix>(etc::generate_by_name(names[i])));
      }
      Scoped span(tracer, "heuristics", "min_min", i);
      min_min[i] = heur::min_min(*instances[i]).makespan();
    }
    setup.push_back(seconds_since(t0));
  }
  report.set("setup_s", support::median(setup), "s");

  const double budget = opt.seconds / static_cast<double>(names.size());
  const std::size_t threads = std::min(kPaperThreads, std::max<std::size_t>(1, opt.nproc));
  std::vector<Completion> job_ms;  // (completion, ms)
  job_ms.reserve(1 << 14);
  double evaluations = 0.0, sweeps = 0.0, wall = 0.0;
  std::size_t on_time = 0;
  support::RunningStats gain, capped_gain;
  const auto run0 = Clock::now();
  for (std::size_t k = 0; k < names.size(); ++k) {
    const std::size_t i = (opt.seed + k) % names.size();
    cga::Config cfg;  // Table 1 defaults
    cfg.threads = threads;
    cfg.termination = cga::Termination::after_seconds(budget);
    cfg.seed = mix(opt.seed, i);
    cfg.pin_threads = true;  // paper §4.1: one thread per core
    Clock::time_point last{};
    // Thread 0's best after kCappedSweeps sweeps; a budget too short to
    // reach them (tiny test runs) leaves the last one seen.
    double capped = min_min[i];
    const cga::GenerationObserver observer =
        [&](const cga::GenerationEvent& ev) {
          if (ev.generation <= kCappedSweeps) capped = ev.best_fitness;
          if (ev.generation % kSweepsPerJob != 0) return;
          const auto now = Clock::now();
          if (last.time_since_epoch().count() != 0)
            job_ms.emplace_back(
                now,
                std::chrono::duration<double, std::milli>(now - last).count());
          last = now;
        };
    const auto t0 = Clock::now();
    const par::ParallelResult r = [&] {
      Scoped span(tracer, "pacga", "run_parallel", i);
      return par::run_parallel(*instances[i], cfg, observer);
    }();
    const double elapsed = seconds_since(t0);
    const auto& best = r.result.best;
    std::string why = check_schedule(*instances[i], best.assignment(),
                                     r.result.best_fitness);
    if (why.empty() && r.result.best_fitness > min_min[i] * (1.0 + 1e-12))
      why = names[i] + ": PA-CGA result worse than Min-min";
    report.check(why.empty(), why);
    if (elapsed <= budget * 1.05 + 0.005) ++on_time;
    evaluations += static_cast<double>(r.total_evaluations());
    wall += r.result.elapsed_seconds;
    for (const auto& t : r.threads) sweeps += static_cast<double>(t.generations);
    gain.add(100.0 * (min_min[i] - r.result.best_fitness) / min_min[i]);
    capped_gain.add(100.0 * (min_min[i] - capped) / min_min[i]);
  }
  const double span = seconds_since(run0);
  report.set("evals_per_s", evaluations / wall, "1/s");
  report.set("jobs_per_s",
             sweeps / static_cast<double>(kSweepsPerJob) / wall, "1/s");
  report.set("makespan_gain_pct", gain.mean(), "%");
  report.set("reschedule_gain_pct", capped_gain.mean(), "%");
  report.set("e2e_p50_ms",
             windowed_pct(job_ms, run0, span, kLatencyWindowSeconds, 0.50),
             "ms");
  report.set("e2e_p99_ms",
             windowed_pct(job_ms, run0, span, kLatencyWindowSeconds, 0.99),
             "ms");
  report.set("bench.latency_jobs", static_cast<double>(job_ms.size()),
             "count");
  report.set("on_time_share",
             static_cast<double>(on_time) / static_cast<double>(names.size()),
             "ratio");
  report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
}

}  // namespace perfbench
