// bench_kernels — the SIMD kernel layer, measured at both ends.
//
// Kernel level: scalar vs every vector tier the host runs, for the max,
// argmax, argmin, fused-min and batched-max scans at 16 (the paper's
// machine count), 64, 512, 4096 and 8192 (the length of the class-A
// Min-min key array) elements.
//
// End-to-end: the consumers rewired onto the kernels, each against its
// pre-rewrite reference —
//   * Min-min / Max-min at S = 512x16, W = 2048x64 and the class-A shape
//     (8192x256), Sufferage at 2048x128: cached-best-machine rewrite vs
//     the naive textbook loop (schedules asserted IDENTICAL; any
//     DIFFERENT row makes the bench exit 1);
//   * H2LL: the operator, which keeps its machine order and per-machine
//     task lists across the passes of a call, vs the former per-pass full
//     sort and all-task reservoir scan (reference preserved inline here);
//   * service kAuto escalation floor (Min-min + Sufferage under a tight
//     deadline) through a real SchedulerService, accelerated ms/job only;
//   * dynamic repair: full-orphan constructive repair (RescheduleSession
//     init) vs the naive reference order, plus absolute machine-down
//     repair latency.
//
// Every row is kSamples interleaved repetitions of its arms (arm A, arm B,
// arm A, ...), reported as the median with its interquartile range: one
// sample cannot rank two arms whose runs are bimodal. Emits
// BENCH_kernels.json. Default scale matches the acceptance spec (Min-min at
// 8192x256; about 4 minutes, mostly the naive references at that shape);
// --quick shrinks everything for CI smoke runs.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cga/local_search.hpp"
#include "cga/mutation.hpp"
#include "dynamic/session.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/kernels.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace pacga;
namespace kernels = support::kernels;

struct Options {
  std::size_t minmin_tasks = 8192;
  std::size_t minmin_machines = 256;
  std::size_t sufferage_tasks = 2048;
  std::size_t sufferage_machines = 128;
  std::size_t h2ll_tasks = 4096;
  std::size_t h2ll_machines = 512;
  std::size_t h2ll_iterations = 20000;
  std::size_t service_tasks = 1024;
  std::size_t service_machines = 64;
  std::size_t service_jobs = 8;
  std::size_t repair_tasks = 8192;
  std::size_t repair_machines = 16;
  std::uint64_t seed = 1;
  bool quick = false;

  void finalize() {
    if (quick) {
      minmin_tasks = 1024;
      minmin_machines = 64;
      sufferage_tasks = 512;
      sufferage_machines = 32;
      h2ll_tasks = 1024;
      h2ll_machines = 128;
      h2ll_iterations = 5000;
      service_tasks = 256;
      service_machines = 32;
      service_jobs = 4;
      repair_tasks = 2048;
      repair_machines = 16;
    }
  }
};

etc::EtcMatrix random_matrix(std::size_t tasks, std::size_t machines,
                             std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> data(tasks * machines);
  for (auto& v : data) v = rng.uniform(1.0, 1000.0);
  return etc::EtcMatrix(tasks, machines, std::move(data));
}

// ---- sampling ------------------------------------------------------------

constexpr std::size_t kSamples = 5;

/// Median and interquartile range of one row's samples.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

/// Runs the arms in turn, kSamples rounds of (arm 0, arm 1, ...), so slow
/// drifts of the host hit every arm alike. Each arm returns one sample —
/// its own timing, which keeps any per-sample setup outside the clock.
template <typename... Arms>
std::array<Spread, sizeof...(Arms)> interleave(Arms&&... arms) {
  std::array<std::vector<double>, sizeof...(Arms)> samples;
  for (std::size_t r = 0; r < kSamples; ++r) {
    std::size_t i = 0;
    ((samples[i++].push_back(arms())), ...);
  }
  std::array<Spread, sizeof...(Arms)> out;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = spread_of(samples[i]);
  return out;
}

// ---- kernel-level microbench ---------------------------------------------

struct KernelPoint {
  const char* kernel;
  const char* dispatch;  ///< which SIMD table the dispatched arm ran
  std::size_t machines;
  Spread scalar_ns;
  Spread dispatched_ns;
  double speedup;  ///< of the medians
};

/// One sample: ns per call of `fn`, amortized over enough repetitions to
/// swamp timer noise. `sink` keeps the optimizer honest.
template <typename Fn>
double time_ns(Fn&& fn, std::size_t reps) {
  volatile double sink = 0.0;
  support::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) sink = sink + fn();
  (void)sink;
  return timer.elapsed_seconds() * 1e9 / static_cast<double>(reps);
}

std::vector<KernelPoint> bench_kernel_level(std::uint64_t seed) {
  std::vector<KernelPoint> points;
  const auto& scalar = kernels::detail::scalar_table();
  // Every SIMD tier this host can run gets its own rows against the scalar
  // reference — the 8-wide AVX-512 table shows up here as a third set of
  // rows on capable hardware, not just as whatever active() resolved to.
  std::vector<const kernels::Dispatch*> tiers;
  if (kernels::detail::avx2_supported())
    tiers.push_back(&kernels::detail::avx2_table());
  if (kernels::detail::avx512_supported())
    tiers.push_back(&kernels::detail::avx512_table());
  if (tiers.empty()) tiers.push_back(&scalar);
  support::Xoshiro256 rng(seed);
  for (const std::size_t n : {16, 64, 512, 4096, 8192}) {
    std::vector<double> ct(n), row(n);
    for (auto& v : ct) v = rng.uniform(0.0, 1e6);
    for (auto& v : row) v = rng.uniform(0.0, 1e3);
    // A sweep's worth of completion vectors for the batched kernel (the
    // breeder's staged-offspring shape).
    constexpr std::size_t kBatch = 64;
    std::vector<std::vector<double>> batch(kBatch);
    std::vector<const double*> batch_rows(kBatch);
    std::vector<double> batch_out(kBatch);
    for (std::size_t b = 0; b < kBatch; ++b) {
      batch[b].resize(n);
      for (auto& v : batch[b]) v = rng.uniform(0.0, 1e6);
      batch_rows[b] = batch[b].data();
    }
    // Per sample; kSamples samples per arm keep the row at ~40M elements.
    const std::size_t reps = std::max<std::size_t>(1, 8'000'000 / n);

    for (const kernels::Dispatch* tier : tiers) {
      const auto point = [&](const char* name, std::size_t point_reps,
                             auto scalar_fn, auto tier_fn) {
        const auto [s, d] =
            interleave([&] { return time_ns(scalar_fn, point_reps); },
                       [&] { return time_ns(tier_fn, point_reps); });
        const double speedup = s.median / d.median;
        points.push_back({name, tier->name, n, s, d, speedup});
        std::printf(
            "  %-10s n=%5zu  scalar %8.1f ns [%.1f-%.1f]  %-6s %8.1f ns "
            "[%.1f-%.1f]  %5.2fx\n",
            name, n, s.median, s.q1, s.q3, tier->name, d.median, d.q1, d.q3,
            speedup);
      };
      point(
          "max", reps, [&] { return scalar.max_value(ct.data(), n); },
          [&] { return tier->max_value(ct.data(), n); });
      point(
          "argmax", reps,
          [&] { return static_cast<double>(scalar.argmax(ct.data(), n)); },
          [&] { return static_cast<double>(tier->argmax(ct.data(), n)); });
      point(
          "argmin", reps,
          [&] { return static_cast<double>(scalar.argmin(ct.data(), n)); },
          [&] { return static_cast<double>(tier->argmin(ct.data(), n)); });
      point(
          "fused-min", reps,
          [&] { return scalar.min_plus(ct.data(), row.data(), n).value; },
          [&] { return tier->min_plus(ct.data(), row.data(), n).value; });
      point(
          "batch-max", std::max<std::size_t>(1, reps / kBatch),
          [&] {
            scalar.batch_max(batch_rows.data(), kBatch, n, batch_out.data());
            return batch_out[0];
          },
          [&] {
            tier->batch_max(batch_rows.data(), kBatch, n, batch_out.data());
            return batch_out[0];
          });
    }
  }
  return points;
}

// ---- end-to-end: heuristics ----------------------------------------------

struct EndToEnd {
  std::string name;
  std::size_t tasks = 0;
  std::size_t machines = 0;
  Spread reference_ms;
  Spread accelerated_ms;
  double speedup = 0.0;  ///< of the medians
  bool identical = false;
  /// Only the heuristic arms are required (and checked) to produce the
  /// reference's exact schedule; h2ll/kauto report null in the JSON.
  bool identical_checked = false;
  /// kauto has no reference arm: its reference_ms and speedup are null.
  bool has_reference = true;
};

/// One sample: ms of one call of `fn`.
template <typename Fn>
double time_ms(Fn&& fn) {
  support::WallTimer timer;
  fn();
  return timer.elapsed_seconds() * 1e3;
}

EndToEnd bench_heuristic(const char* name, const etc::EtcMatrix& m,
                         sched::Schedule (*accel)(const etc::EtcMatrix&),
                         sched::Schedule (*naive)(const etc::EtcMatrix&)) {
  EndToEnd r;
  r.name = name;
  r.tasks = m.tasks();
  r.machines = m.machines();
  // Every sample's pair of schedules is compared, not just the last.
  std::unique_ptr<sched::Schedule> a, b;
  r.identical = true;
  const auto [accelerated, reference] = interleave(
      [&] {
        return time_ms([&] { a = std::make_unique<sched::Schedule>(accel(m)); });
      },
      [&] {
        const double ms =
            time_ms([&] { b = std::make_unique<sched::Schedule>(naive(m)); });
        r.identical = r.identical && a->hamming_distance(*b) == 0;
        return ms;
      });
  r.accelerated_ms = accelerated;
  r.reference_ms = reference;
  r.speedup = r.reference_ms.median / r.accelerated_ms.median;
  r.identical_checked = true;
  std::printf(
      "  %-10s %5zux%-4zu naive %9.2f ms [%.2f-%.2f]  accel %8.3f ms "
      "[%.3f-%.3f]  %6.2fx  %s\n",
      name, r.tasks, r.machines, r.reference_ms.median, r.reference_ms.q1,
      r.reference_ms.q3, r.accelerated_ms.median, r.accelerated_ms.q1,
      r.accelerated_ms.q3, r.speedup,
      r.identical ? "identical" : "DIFFERENT");
  return r;
}

// ---- end-to-end: H2LL ----------------------------------------------------

/// The pre-rewrite H2LL: full std::sort of all machine completions every
/// iteration. Kept verbatim as the reference arm.
void h2ll_sorted_reference(sched::Schedule& s, const cga::H2LLParams& params,
                           support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0 ? machines / 2
                             : std::min(params.candidates, machines - 1);
  std::vector<std::size_t> order(machines);
  for (std::size_t it = 0; it < params.iterations; ++it) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return s.completion(a) < s.completion(b);
    });
    const std::size_t most_loaded = order.back();
    const std::size_t task = cga::random_task_on_machine(
        s, static_cast<sched::MachineId>(most_loaded), rng);
    if (task == s.tasks()) continue;
    double best_score = s.completion(most_loaded);
    std::size_t best_mac = machines;
    for (std::size_t c = 0; c < n_candidates; ++c) {
      const std::size_t mac = order[c];
      if (mac == most_loaded) continue;
      const double new_score = s.completion(mac) + s.etc()(task, mac);
      if (new_score < best_score) {
        best_score = new_score;
        best_mac = mac;
      }
    }
    if (best_mac != machines) {
      s.move_task(task, static_cast<sched::MachineId>(best_mac));
    }
  }
}

EndToEnd bench_h2ll(const Options& opts) {
  const auto m =
      random_matrix(opts.h2ll_tasks, opts.h2ll_machines, opts.seed + 7);
  EndToEnd r;
  r.name = "h2ll";
  r.tasks = m.tasks();
  r.machines = m.machines();
  const cga::H2LLParams params{opts.h2ll_iterations, 0};
  // Every sample descends from the same random start.
  const auto sample = [&](auto&& op) {
    support::Xoshiro256 rng(opts.seed);
    auto s = sched::Schedule::random(m, rng);
    return time_ms([&] { op(s, params, rng); });
  };
  const auto [reference, accelerated] =
      interleave([&] { return sample(h2ll_sorted_reference); },
                 [&] { return sample(cga::h2ll); });
  r.reference_ms = reference;
  r.accelerated_ms = accelerated;
  r.speedup = r.reference_ms.median / r.accelerated_ms.median;
  // Different (deterministic) tie-break definitions: schedules are not
  // required to match here, only both to be valid descents —
  // identical_checked stays false and the JSON reports null.
  std::printf(
      "  %-10s %zux%zu  sorted %8.1f ms [%.1f-%.1f]  incremental %7.1f ms "
      "[%.1f-%.1f]  %5.2fx (%zu iters)\n",
      "h2ll", r.tasks, r.machines, r.reference_ms.median, r.reference_ms.q1,
      r.reference_ms.q3, r.accelerated_ms.median, r.accelerated_ms.q1,
      r.accelerated_ms.q3, r.speedup, opts.h2ll_iterations);
  return r;
}

// ---- end-to-end: service kAuto escalation floor --------------------------

double kauto_ms_per_job(const std::shared_ptr<const etc::EtcMatrix>& m,
                        std::size_t jobs, std::uint64_t seed) {
  service::ServiceOptions so;
  so.workers = 1;
  so.cache_capacity = 0;  // every job must actually solve
  service::SchedulerService svc(so);
  support::WallTimer timer;
  for (std::size_t j = 0; j < jobs; ++j) {
    service::JobSpec spec;
    spec.etc = m;
    spec.seed = seed + j;
    spec.deadline_ms = 1.0;  // urgent: kAuto stays on the heuristic floor
    spec.policy = service::SolvePolicy::kAuto;
    spec.use_cache = false;
    const auto id = svc.submit(spec);
    (void)svc.wait(id);
  }
  return timer.elapsed_seconds() * 1e3 / static_cast<double>(jobs);
}

EndToEnd bench_kauto(const Options& opts) {
  const auto m = std::make_shared<const etc::EtcMatrix>(
      random_matrix(opts.service_tasks, opts.service_machines, opts.seed + 11));
  EndToEnd r;
  r.name = "service-kauto";
  r.tasks = m->tasks();
  r.machines = m->machines();
  r.accelerated_ms = interleave(
      [&] { return kauto_ms_per_job(m, opts.service_jobs, opts.seed); })[0];
  r.has_reference = false;
  std::printf("  %-10s %zux%zu  accel %8.1f ms/job [%.1f-%.1f]\n", "kauto",
              r.tasks, r.machines, r.accelerated_ms.median,
              r.accelerated_ms.q1, r.accelerated_ms.q3);
  return r;
}

// ---- end-to-end: dynamic repair ------------------------------------------

struct RepairResult {
  std::size_t tasks;
  std::size_t machines;
  Spread full_repair_ms;     ///< session init: every task orphaned
  Spread naive_reference_ms; ///< naive Min-min over the same instance
  double speedup;            ///< of the medians
  Spread machine_down_ms;    ///< one machine-down apply (repair incl.)
  std::size_t orphans;
};

RepairResult bench_repair(const Options& opts) {
  batch::WorkloadSpec spec;
  spec.tasks = opts.repair_tasks;
  spec.machines = opts.repair_machines;
  spec.seed = opts.seed + 13;
  RepairResult r{};
  r.tasks = spec.tasks;
  r.machines = spec.machines;
  std::unique_ptr<dynamic::RescheduleSession> session;
  const auto [full, naive, down] = interleave(
      [&] {
        // Session init repairs with the FULL task set orphaned —
        // constructive Min-min from scratch, through the cached-orphan
        // repairer.
        return time_ms([&] {
          session = std::make_unique<dynamic::RescheduleSession>(
              spec, dynamic::RepairPolicy::kMinMin);
        });
      },
      [&] {
        return time_ms(
            [&] { (void)heur::detail::min_min_naive(session->etc()); });
      },
      [&] {
        // Steady-state event: drop the most loaded machine, repair in
        // place.
        const std::size_t victim = session->schedule().argmax_machine();
        r.orphans = session->schedule().tasks_on(
            static_cast<sched::MachineId>(victim));
        return time_ms(
            [&] { session->apply(dynamic::machine_down(victim)); });
      });
  r.full_repair_ms = full;
  r.naive_reference_ms = naive;
  r.machine_down_ms = down;
  r.speedup = naive.median / full.median;
  std::printf(
      "  %-10s %zux%zu  naive %9.1f ms [%.1f-%.1f]  repair-init %7.1f ms "
      "[%.1f-%.1f]  %5.2fx  (machine-down: %.3f ms [%.3f-%.3f], %zu "
      "orphans)\n",
      "repair", r.tasks, r.machines, naive.median, naive.q1, naive.q3,
      full.median, full.q1, full.q3, r.speedup, down.median, down.q1,
      down.q3, r.orphans);
  return r;
}

// ---- JSON ----------------------------------------------------------------

/// `"key": median, "key_iqr": [q1, q3]` with `digits` decimals.
std::string json_spread(const char* key, const Spread& s, int digits) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "\"%s\": %.*f, \"%s_iqr\": [%.*f, %.*f]",
                key, digits, s.median, key, digits, s.q1, digits, s.q3);
  return buf;
}

void write_json(const char* path, const Options& opts,
                const std::vector<KernelPoint>& points,
                const std::vector<EndToEnd>& e2e, const RepairResult& repair) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"dispatch\": \"%s\",\n  \"quick\": %s,\n",
               kernels::active_dispatch(), opts.quick ? "true" : "false");
  std::fprintf(out, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"dispatch\": \"%s\", "
                 "\"machines\": %zu, %s, %s, \"speedup\": %.2f}%s\n",
                 p.kernel, p.dispatch, p.machines,
                 json_spread("scalar_ns", p.scalar_ns, 1).c_str(),
                 json_spread("dispatched_ns", p.dispatched_ns, 1).c_str(),
                 p.speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const auto& r = e2e[i];
    std::string reference =
        "\"reference_ms\": null, \"reference_ms_iqr\": null";
    char speedup[32] = "null";
    if (r.has_reference) {
      reference = json_spread("reference_ms", r.reference_ms, 3);
      std::snprintf(speedup, sizeof speedup, "%.2f", r.speedup);
    }
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"tasks\": %zu, \"machines\": %zu, "
                 "%s, %s, \"speedup\": %s, \"identical_schedule\": %s}%s\n",
                 r.name.c_str(), r.tasks, r.machines, reference.c_str(),
                 json_spread("accelerated_ms", r.accelerated_ms, 3).c_str(),
                 speedup,
                 !r.identical_checked ? "null" : r.identical ? "true" : "false",
                 i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"repair\": {\"tasks\": %zu, \"machines\": %zu, "
               "%s, %s, \"speedup\": %.2f, %s, \"orphans\": %zu}\n}\n",
               repair.tasks, repair.machines,
               json_spread("naive_reference_ms", repair.naive_reference_ms, 2)
                   .c_str(),
               json_spread("full_repair_ms", repair.full_repair_ms, 2).c_str(),
               repair.speedup,
               json_spread("machine_down_ms", repair.machine_down_ms, 3)
                   .c_str(),
               repair.orphans);
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  support::Cli cli(
      "bench_kernels — SIMD kernel layer, scalar vs dispatched, plus "
      "end-to-end consumer deltas (writes BENCH_kernels.json)");
  cli.option("minmin-tasks", &opts.minmin_tasks, "Min-min bench tasks")
      .option("minmin-machines", &opts.minmin_machines, "Min-min bench machines")
      .option("h2ll-iterations", &opts.h2ll_iterations, "H2LL bench iterations")
      .option("seed", &opts.seed, "master seed")
      .flag("quick", &opts.quick, "CI smoke scale (small instances)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  opts.finalize();

  std::printf("dispatch: %s (avx2 %s, avx512 %s)\n",
              kernels::active_dispatch(),
              kernels::detail::avx2_supported() ? "available" : "unavailable",
              kernels::detail::avx512_supported() ? "available"
                                                  : "unavailable");
  std::printf("kernel-level (scalar vs dispatched):\n");
  const auto points = bench_kernel_level(opts.seed);

  std::printf("end-to-end:\n");
  std::vector<EndToEnd> e2e;
  // The service's S and W shapes, then the class-A shape.
  const std::size_t minmin_shapes[][2] = {
      {512, 16}, {2048, 64}, {opts.minmin_tasks, opts.minmin_machines}};
  for (const auto& shape : minmin_shapes) {
    const auto m = random_matrix(shape[0], shape[1], opts.seed + 3);
    e2e.push_back(bench_heuristic("min-min", m, heur::min_min,
                                  heur::detail::min_min_naive));
    e2e.push_back(bench_heuristic("max-min", m, heur::max_min,
                                  heur::detail::max_min_naive));
  }
  {
    const auto m = random_matrix(opts.sufferage_tasks, opts.sufferage_machines,
                                 opts.seed + 5);
    e2e.push_back(bench_heuristic("sufferage", m, heur::sufferage,
                                  heur::detail::sufferage_naive));
  }
  e2e.push_back(bench_h2ll(opts));
  e2e.push_back(bench_kauto(opts));
  const RepairResult repair = bench_repair(opts);

  write_json("BENCH_kernels.json", opts, points, e2e, repair);
  // A schedule that differs from its reference is a correctness failure,
  // not a timing: fail the run so the CI smoke step catches it.
  const bool all_identical =
      std::all_of(e2e.begin(), e2e.end(), [](const EndToEnd& r) {
        return !r.identical_checked || r.identical;
      });
  if (!all_identical) {
    std::fprintf(stderr, "bench_kernels: a schedule DIFFERENT from its "
                         "naive reference\n");
    return 1;
  }
  return 0;
}
