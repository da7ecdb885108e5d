// The per-layer probe suite of a traced run. Each figure times one layer's
// public call from outside, on inputs drawn from the run's seed; the suite
// is the same on every workload, so a layer figure can be compared across
// workloads and commits. Repetitions merge through support::RunningStats.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "cga/breeder.hpp"
#include "cga/population.hpp"
#include "dynamic/session.hpp"
#include "heuristics/minmin.hpp"
#include "net/protocol.hpp"
#include "pacga/parallel_engine.hpp"
#include "service/service.hpp"
#include "service/solver_pool.hpp"
#include "support/kernels.hpp"

namespace perfbench {

using namespace pacga;

namespace {

constexpr int kReps = 5;

template <typename Fn>
double per_call_ns(std::size_t calls, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < calls; ++r) fn(r);
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(calls);
}

void probe_kernels(support::Xoshiro256& rng, Report& report, Tracer& tracer) {
  namespace k = support::kernels;
  for (std::size_t n : {16, 64, 256}) {
    // 8 spare elements: each call starts at a different offset, so no call
    // can be hoisted out of the loop.
    std::vector<double> a(n + 8), b(n + 8);
    for (auto& x : a) x = rng.uniform(0.0, 1000.0);
    for (auto& x : b) x = rng.uniform(0.0, 1000.0);
    const std::size_t calls = (std::size_t{1} << 22) / n;
    support::RunningStats ns;
    double sink = 0.0;
    Scoped span(tracer, "kernels", "min_completion_index");
    for (int rep = 0; rep < kReps; ++rep) {
      support::RunningStats one;
      one.add(per_call_ns(calls, [&](std::size_t r) {
        const auto s = k::min_completion_index(a.data() + (r & 7),
                                               b.data() + (r & 7), n);
        sink += s.value + static_cast<double>(s.index);
      }));
      ns.merge(one);
    }
    const std::string m = ".m" + std::to_string(n);
    report.check(std::isfinite(sink), "probe min_completion_index results");
    report.set("kernels.min_plus_ns" + m, ns.mean(), "ns");
    report.set("kernels.bytes_per_call.min_plus" + m,
               static_cast<double>(2 * n * sizeof(double)), "B");
  }
  for (std::size_t n : {16, 256}) {
    constexpr std::size_t kRows = 256;  // one paper-grid sweep of offspring
    std::vector<double> data((kRows + 8) * n);
    for (auto& x : data) x = rng.uniform(0.0, 1000.0);
    std::vector<const double*> rows(kRows);
    std::vector<double> out(kRows);
    const std::size_t calls = (std::size_t{1} << 20) / (kRows * n) + 16;
    support::RunningStats ns;
    Scoped span(tracer, "kernels", "batch_max");
    for (int rep = 0; rep < kReps; ++rep) {
      support::RunningStats one;
      one.add(per_call_ns(calls, [&](std::size_t r) {
        for (std::size_t i = 0; i < kRows; ++i)
          rows[i] = data.data() + ((i + r) % (kRows + 8)) * n;
        k::batch_max(rows.data(), kRows, n, out.data());
      }) / static_cast<double>(kRows));
      ns.merge(one);
    }
    const std::string m = ".m" + std::to_string(n);
    report.check(std::isfinite(out[0]), "probe batch_max results");
    report.set("kernels.batch_max_ns_per_row" + m, ns.mean(), "ns");
    report.set("kernels.bytes_per_call.batch_max_row" + m,
               static_cast<double>(n * sizeof(double) + sizeof(double*)), "B");
  }
}

void probe_etc_and_heuristics(const Options& opt, Report& report,
                              Tracer& tracer) {
  for (const ScaleClass& c : kClasses) {
    const int reps = c.name == 'A' ? 1 : 3;
    support::RunningStats gen_ms, mm_ms;
    for (int rep = 0; rep < reps; ++rep) {
      auto t0 = Clock::now();
      const etc::EtcMatrix m = [&] {
        Scoped span(tracer, "etc", "generate");
        return make_instance(c, mix(opt.seed, 0x3000 + rep), 1);
      }();
      gen_ms.add(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      {
        Scoped span(tracer, "heuristics", "min_min");
        report.check(heur::min_min(m).makespan() > 0.0, "probe Min-min");
      }
      mm_ms.add(seconds_since(t0) * 1e3);
    }
    const std::string cls(1, c.name);
    report.set("etc.generate_ms." + cls, gen_ms.mean(), "ms");
    report.set("heuristics.min_min_ms." + cls, mm_ms.mean(), "ms");
  }
}

void probe_breeder(const Options& opt, Report& report, Tracer& tracer) {
  for (char cls : {'S', 'W'}) {
    const ScaleClass& c = scale_class(cls);
    const etc::EtcMatrix m = make_instance(c, mix(opt.seed, 0x4000), 1);
    const cga::Config cfg;  // Table 1
    auto rng = stream(opt.seed, 0x4001);
    cga::Population pop(m, cga::Grid(cfg.width, cfg.height), rng,
                        cfg.seed_min_min, cfg.objective, cfg.lambda);
    cga::Breeder breeder(m, cfg);
    cga::Individual out = pop.at(0);
    const std::size_t steps = cls == 'S' ? 256 : 64;
    support::RunningStats plain, locked;
    for (int rep = 0; rep < (cls == 'S' ? 3 : 1); ++rep) {
      {
        Scoped span(tracer, "cga", "breed_into");
        support::RunningStats one;
        one.add(per_call_ns(steps, [&](std::size_t r) {
          breeder.breed_into(pop, r % pop.size(), rng, out);
        }) / 1e3);
        plain.merge(one);
      }
      if (cls != 'S') continue;
      Scoped span(tracer, "cga", "breed_locked_into");
      support::RunningStats one;
      one.add(per_call_ns(steps, [&](std::size_t r) {
        breeder.breed_locked_into(pop, r % pop.size(), rng, out);
      }) / 1e3);
      locked.merge(one);
    }
    report.check(out.fitness > 0.0, "probe breeder offspring");
    if (cls == 'S') {
      report.set("breeder.step_us", plain.mean(), "us");
      report.set("breeder.locked_step_us", locked.mean(), "us");
    } else {
      report.set("breeder.step_us.W", plain.mean(), "us");
    }
  }
}

void probe_engine(const Options& opt, Report& report, Tracer& tracer) {
  const etc::EtcMatrix m =
      make_instance(scale_class('S'), mix(opt.seed, 0x5000), 1);
  const std::size_t max_threads = std::min<std::size_t>(3, opt.nproc);
  double e1 = 0.0;
  for (std::size_t t = 1; t <= 3; ++t) {
    cga::Config cfg;
    cfg.threads = std::min(t, max_threads);
    cfg.termination = cga::Termination::after_seconds(0.4);
    cfg.seed = mix(opt.seed, 0x5001 + t);
    cfg.pin_threads = true;  // as paper-512x16
    const par::ParallelResult r = [&] {
      Scoped span(tracer, "pacga", "run_parallel", t);
      return par::run_parallel(m, cfg);
    }();
    report.check(check_schedule(m, r.result.best.assignment(),
                                r.result.best_fitness)
                     .empty(),
                 "probe engine result");
    const double eps = static_cast<double>(r.total_evaluations()) /
                       r.result.elapsed_seconds;
    report.set("engine.evals_per_s.t" + std::to_string(t), eps, "1/s");
    if (t == 1) e1 = eps;
    if (t != 3) continue;
    report.set("engine.scaling_eff.t3", e1 > 0.0 ? eps / (3.0 * e1) : 0.0,
               "ratio");
    double evals = 0.0, repl = 0.0, lo = 0.0, hi = 0.0;
    for (const auto& th : r.threads) {
      const double e = static_cast<double>(th.evaluations);
      evals += e;
      repl += static_cast<double>(th.replacements);
      lo = lo == 0.0 ? e : std::min(lo, e);
      hi = std::max(hi, e);
    }
    report.set("engine.replace_ratio", evals > 0.0 ? repl / evals : 0.0,
               "ratio");
    report.set("engine.thread_imbalance", lo > 0.0 ? hi / lo : 0.0, "ratio");
  }
}

void probe_warm_solver(const Options& opt, Report& report, Tracer& tracer) {
  for (char cls : {'S', 'W'}) {
    const ScaleClass& c = scale_class(cls);
    const etc::EtcMatrix m = make_instance(c, mix(opt.seed, 0x6000), 1);
    service::WarmSolver solver{cga::Config{}};
    service::JobSpec spec;
    spec.policy = service::SolvePolicy::kCga;
    spec.max_generations = c.generations;
    service::JobResult r;
    solver.solve(m, spec, 1e9, nullptr, r);  // builds the arena
    support::RunningStats ms;
    for (int rep = 0; rep < (cls == 'S' ? 3 : 2); ++rep) {
      spec.seed = rep + 1;
      const auto t0 = Clock::now();
      {
        Scoped span(tracer, "service", "warm_solve");
        solver.solve(m, spec, 1e9, nullptr, r);
      }
      ms.add(seconds_since(t0) * 1e3);
      report.check(check_schedule(m, r.assignment, r.makespan).empty(),
                   "probe warm solve");
    }
    report.set(std::string("service.warm_solve_ms.") + cls, ms.mean(), "ms");
  }
}

void probe_dynamic(const Options& opt, Report& report, Tracer& tracer) {
  batch::WorkloadSpec w;
  w.tasks = scale_class('S').tasks;
  w.machines = scale_class('S').machines;
  w.seed = mix(opt.seed, 0x7000);
  dynamic::RescheduleSession session(w);
  auto rng = stream(opt.seed, 0x7001);
  std::vector<double> repair_us;
  support::RunningStats spec_ms, gain_per_ms;
  service::WarmSolver solver{cga::Config{}};
  for (int round = 0; round < 10; ++round) {
    for (int e = 0; e < 20; ++e) {
      // Slowdowns and recoveries plus balanced arrivals and cancels keep
      // the shape near 512 x 16.
      const int pick = static_cast<int>(rng() % 4);
      const dynamic::GridEvent ev =
          pick < 2   ? dynamic::machine_slowdown(rng() % session.machines(),
                                                 rng.uniform(0.6, 1.6))
          : pick == 2 ? dynamic::task_arrival(rng.uniform(1.0, 3000.0))
                      : dynamic::task_cancel(rng() % session.tasks());
      const auto t0 = Clock::now();
      {
        Scoped span(tracer, "dynamic", "apply");
        session.apply(ev);
      }
      repair_us.push_back(seconds_since(t0) * 1e6);
    }
    auto t0 = Clock::now();
    const service::JobSpec spec = [&] {
      Scoped span(tracer, "dynamic", "make_reschedule_spec");
      return session.make_reschedule_spec(0, 1e9, rng());
    }();
    spec_ms.add(seconds_since(t0) * 1e3);
    service::JobSpec job = spec;
    job.policy = service::SolvePolicy::kCga;
    job.max_generations = scale_class('S').generations;
    const double seed_mk = recomputed_makespan(*spec.etc, spec.warm_start);
    service::JobResult r;
    t0 = Clock::now();
    solver.solve(*spec.etc, job, 1e9, nullptr, r);
    const double solve_ms = seconds_since(t0) * 1e3;
    report.check(r.makespan <= seed_mk * (1.0 + 1e-12),
                 "probe reschedule worse than its seed");
    gain_per_ms.add(100.0 * (seed_mk - r.makespan) / seed_mk / solve_ms);
    session.adopt(r.assignment);
  }
  report.set("dynamic.repair_us", pct(repair_us, 0.5), "us");
  report.set("dynamic.spec_ms", spec_ms.mean(), "ms");
  report.set("dynamic.reschedule_gain_per_ms", gain_per_ms.mean(), "%/ms");
}

void probe_session(Report& report, Tracer& tracer) {
  service::ServiceOptions o;
  o.workers = 1;
  service::SchedulerService svc(o);
  net::ProtocolOptions protocol;
  net::InstancePool pool;
  net::Session session(svc, protocol, pool, /*blocking=*/false);
  report.check(session.handle("DYNAMIC 32 8 1").text.rfind("DYNAMIC ", 0) == 0,
               "probe DYNAMIC reply");
  std::vector<double> us;
  static const char* kLines[] = {"STATS", "EVENT SLOW 1 1.25",
                                 "EVENT SLOW 1 0.8"};
  Scoped span(tracer, "net", "session_handle");
  for (int i = 0; i < 600; ++i) {
    const auto t0 = Clock::now();
    const net::Reply reply = session.handle(kLines[i % 3]);
    us.push_back(seconds_since(t0) * 1e6);
    if (reply.text.rfind("ERR", 0) == 0) {
      report.check(false, "probe session line: " + reply.text);
      break;
    }
  }
  report.set("net.session_line_us", pct(us, 0.5), "us");
}

}  // namespace

void run_layer_probes(const Options& opt, Report& report, Tracer& tracer) {
  auto rng = stream(opt.seed, 0x9806);
  Scoped span(tracer, "bench", "layer_probes");
  probe_kernels(rng, report, tracer);
  probe_etc_and_heuristics(opt, report, tracer);
  probe_breeder(opt, report, tracer);
  probe_engine(opt, report, tracer);
  probe_warm_solver(opt, report, tracer);
  probe_dynamic(opt, report, tracer);
  probe_session(report, tracer);
}

}  // namespace perfbench
