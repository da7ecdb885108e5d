// perfbench — the repository benchmark runner (driven by perfbench/run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//             [--rate <1/s>] [--trace-out <file>] [--deck <mix>]
//   perfbench --selftest
//
// Prints a provenance line, then one JSON line with every metric the run
// produced ("correct", "attempted", "failed", "metrics"). Untraced runs
// measure the end-to-end metrics with the benchmark's spans off. A traced
// run adds the per-layer probe suite, runs the workload twice for half the
// time each (spans off, then on), reports the workload's layer figures
// from the traced half and the difference between the halves as the
// tracing overhead, and writes the spans as Chrome trace JSON.
//
// Exit status: 0 when every output checked correct, 1 when a check failed,
// 2 when the run could not be carried out.
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/kernels.hpp"

namespace {

using namespace perfbench;

/// Figures of how a workload loaded a layer. A workload that bypasses the
/// layer reports 0 for them.
const char* const kLoadFigures[][2] = {
    {"service.submit_us", "us"},          {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},  {"service.solve_p50_ms", "ms"},
    {"service.solve_p99_ms", "ms"},       {"service.arena_builds", "count"},
    {"service.steals", "count"},          {"service.cache_hit_share", "ratio"},
    {"service.rejects", "count"},         {"service.retries", "count"},
    {"dynamic.adopted_share", "ratio"},   {"bench.generator_late_p99_ms", "ms"},
};
const char* const kLayers[] = {"kernels", "heuristics", "cga", "pacga",
                               "dynamic", "service",    "net", "etc",
                               "bench"};

void run_workload(const Options& opt, Report& report, Tracer& tracer) {
  if (opt.workload == "paper-512x16") {
    run_paper(opt, report, tracer);
  } else if (opt.workload == "service-mixed") {
    run_service_mixed(opt, report, tracer);
  } else if (opt.workload == "edge-tcp") {
    run_edge(opt, /*tcp=*/true, report, tracer);
  } else if (opt.workload == "edge-pipe") {
    run_edge(opt, /*tcp=*/false, report, tracer);
  } else {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  report.set("ok_share", report.ok_share(), "ratio");
}

std::string provenance(const Options& opt) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"kernels\": \"%s\", "
      "\"nproc\": %zu, \"avx2\": %s, \"avx512f\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"trace\": %d}",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      pacga::support::kernels::active_dispatch(), opt.nproc,
      __builtin_cpu_supports("avx2") ? "true" : "false",
      __builtin_cpu_supports("avx512f") ? "true" : "false", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, opt.trace ? 1 : 0);
  return buf;
}

/// The traced run: layer probes, then the workload untraced and traced.
void run_traced(const Options& opt, Report& report) {
  Tracer tracer(true);
  run_layer_probes(opt, report, tracer);
  Options half = opt;
  half.seconds = opt.seconds / 2.0;
  Report untraced, traced;
  Tracer off(false);
  run_workload(half, untraced, off);
  for (const auto& [name, unit] : kLoadFigures) traced.set(name, 0.0, unit);
  run_workload(half, traced, tracer);
  const char* primary =
      opt.workload == "paper-512x16" ? "evals_per_s" : "jobs_per_s";
  const double u = untraced.value(primary), t = traced.value(primary);
  report.absorb(untraced, false);
  report.absorb(traced, true);
  report.set("bench.trace_overhead_pct", u > 0.0 ? 100.0 * (u - t) / u : 0.0,
             "%");
  for (const char* layer : kLayers)
    report.set(std::string("trace.self_ms.") + layer, 0.0, "ms");
  for (const auto& [layer, ms] : tracer.self_ms())
    report.set("trace.self_ms." + layer, ms, "ms");
  report.set("trace.spans", static_cast<double>(tracer.size()), "count");
  if (!opt.trace_out.empty())
    report.check(tracer.write(opt.trace_out), "cannot write " + opt.trace_out);
}

/// The output checkers must reject what they exist to catch.
int self_test() {
  using pacga::sched::MachineId;
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << '\n';
      ++failures;
    }
  };
  const auto m = make_instance(scale_class('S'), 42, 1);
  std::vector<MachineId> a(m.tasks());
  for (std::size_t t = 0; t < a.size(); ++t)
    a[t] = static_cast<MachineId>(t % m.machines());
  const double mk = recomputed_makespan(m, a);
  expect(check_schedule(m, a, mk).empty(), "a valid schedule passes");
  auto bad = a;
  bad[7] = static_cast<MachineId>(m.machines());
  expect(!check_schedule(m, bad, mk).empty(), "machine out of range");
  bad = a;
  bad.pop_back();
  expect(!check_schedule(m, bad, mk).empty(), "short assignment");
  bad = a;
  for (auto& x : bad) x = 0;  // everything piled on one machine
  expect(!check_schedule(m, bad, mk).empty(), "makespan does not match");

  using K = Transcript::Kind;
  const std::vector<std::string> replies = {
      "JOB 1", "RESULT id=1 status=done makespan=5", "EVENT kind=slowdown",
      "STATS submitted=1"};
  auto feed = [&](const std::vector<std::string>& lines) {
    Transcript t;
    t.expect(K::kJob);
    t.expect(K::kResult, 1);
    t.expect(K::kEvent);
    t.expect(K::kStats);
    Transcript::Match match{};
    for (const auto& line : lines)
      if (!t.accept(line, match)) return false;
    return t.pending() == 0;
  };
  expect(feed(replies), "a complete transcript passes");
  auto dropped = replies;
  dropped.erase(dropped.begin() + 2);
  expect(!feed(dropped), "a dropped reply line is caught");
  auto duplicated = replies;
  duplicated.insert(duplicated.begin() + 1, "JOB 1");
  expect(!feed(duplicated), "a duplicated reply line is caught");
  auto crossed = replies;
  crossed[1] = "RESULT id=2 status=done makespan=5";
  expect(!feed(crossed), "a cross-wired RESULT is caught");
  std::cout << (failures == 0 ? "selftest ok" : "selftest failed") << '\n';
  return failures == 0 ? 0 : 1;
}

std::string self_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  const std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.daemon = self_dir() + "/scheduler_service";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--selftest") return self_test();
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = v == "1";
      else if (a == "--rate") opt.rate = std::stod(v);
      else if (a == "--trace-out") opt.trace_out = v;
      else if (a == "--deck") opt.deck = v;
      else throw std::invalid_argument("unknown option " + a);
    }
    if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
    if (opt.workload != "paper-512x16" && opt.rate <= 0.0)
      throw std::invalid_argument("--rate must be > 0 for " + opt.workload);
    std::cout << provenance(opt) << std::endl;
    Report report;
    if (opt.trace) {
      run_traced(opt, report);
    } else {
      Tracer off(false);
      run_workload(opt, report, off);
    }
    report.set("ok_share", report.ok_share(), "ratio");
    std::cout << report.json() << std::endl;
    return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
