// service-mixed: an in-process SchedulerService fed by one generator
// thread with a seeded mix of shapes and job kinds.
//
// Every kCga job is generation-capped, so the work per job is fixed and
// throughput measures the solver, not a deadline. The mix (one shuffled
// deck of 100 per 100 jobs, so proportions do not drift with the seed):
//   * fresh generation-capped kCga solves of classes S and W (cache off);
//   * Min-min solves of class A, the kernel-heavy shape;
//   * repeats of a hot set solved once during set-up (cache hits);
//   * warm reschedules of dynamic::RescheduleSession grids after seeded
//     grid events (submit_reschedule).
#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "dynamic/session.hpp"
#include "heuristics/minmin.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace pacga;

namespace {

enum class JobKind { kS, kW, kA, kHot, kReschedule };

/// The mix, per 100 jobs, in kind order (see perfbench/workloads.json for
/// the basis of each share). --deck overrides it for sensitivity runs.
constexpr JobKind kKinds[] = {JobKind::kHot, JobKind::kS, JobKind::kW,
                              JobKind::kA, JobKind::kReschedule};
constexpr const char* kKindNames[] = {"hot", "S", "W", "A", "R"};
constexpr int kDeck[] = {40, 33, 8, 2, 17};
constexpr std::size_t kPoolS = 32;
constexpr std::size_t kPoolW = 8;
constexpr std::size_t kPoolA = 2;
constexpr std::size_t kHotS = 6;
constexpr std::size_t kHotW = 2;
constexpr std::size_t kSessions = 8;
/// The instances and the sessions' initial grids are a fixed suite, as the
/// Braun suite is for paper-512x16: the workload seed draws the job seeds,
/// the mix order, the arrival times and the grid events. Instance-to-
/// instance spread in solve cost and gain would otherwise swamp a run.
constexpr std::uint64_t kSuiteSeed = 2010;
constexpr double kDeadlineMs = 30000.0;
constexpr int kSetupReps = 3;
constexpr double kCapacityShare = 0.35;  ///< of the run; the rest is latency
constexpr double kRateWindowSeconds = 1.0;
constexpr double kDrainSeconds = 90.0;
/// Trace lane of service worker w: kWorkerLaneBase + w.
constexpr int kWorkerLaneBase = 1000;

struct Instance {
  std::shared_ptr<const etc::EtcMatrix> etc;
  const ScaleClass* cls = nullptr;
  double min_min = 0.0;
  /// Class A: the Min-min assignment; hot set: the first solve's answer.
  std::vector<sched::MachineId> expected;
};

struct Inflight {
  JobKind kind;
  std::shared_ptr<const etc::EtcMatrix> etc;
  Instance* instance = nullptr;
  double seed_makespan = 0.0;
  std::size_t session = 0;
  Clock::time_point due{};
  Clock::time_point submitted{};
  bool measured = false;
};

const char* span_layer(obs::SpanKind k) {
  switch (k) {
    case obs::SpanKind::kHeuristic:
      return "heuristics";
    case obs::SpanKind::kWarmCga:
      return "cga";
    case obs::SpanKind::kPaCga:
      return "pacga";
    default:
      return "service";
  }
}

class MixedRun {
 public:
  MixedRun(const Options& opt, Report& report, Tracer& tracer)
      : opt_(opt), report_(report), tracer_(tracer),
        rng_(stream(opt.seed, 0x5e41)) {
    std::copy(std::begin(kDeck), std::end(kDeck), deck_counts_.begin());
    if (!opt.deck.empty()) parse_deck(opt.deck);
  }

  ~MixedRun() { stop_service(); }
  MixedRun(const MixedRun&) = delete;
  MixedRun& operator=(const MixedRun&) = delete;

  void run() {
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      stop_service();
      const auto t0 = Clock::now();
      set_up();
      setup.push_back(seconds_since(t0));
    }
    report_.set("setup_s", support::median(setup), "s");

    const double capacity_s = kCapacityShare * opt_.seconds;
    const double latency_s = opt_.seconds - capacity_s;
    begin_phase();
    const auto c0 = Clock::now();
    const std::size_t window = 2 * workers_;
    while (Clock::now() < c0 + std::chrono::duration<double>(capacity_s)) {
      while (inflight_.size() < window) submit(next_kind(), {});
      wait_completions(Clock::now() + std::chrono::milliseconds(50));
    }
    drain();
    report_.set("jobs_per_s",
                windowed_rate(jobs_done_, c0, capacity_s, kRateWindowSeconds),
                "1/s");
    report_.set("evals_per_s",
                windowed_rate(evals_done_, c0, capacity_s, kRateWindowSeconds),
                "1/s");

    begin_phase();
    const auto due = poisson_schedule(opt_.seed, opt_.rate, latency_s);
    const auto t0 = Clock::now();
    for (std::size_t next = 0; next < due.size();) {
      const auto when = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due[next]));
      if (Clock::now() >= when) {
        late_.push_back(std::chrono::duration<double, std::milli>(
                            Clock::now() - when)
                            .count());
        submit(next_kind(), when);
        ++next;
      } else {
        wait_completions(when);
      }
    }
    drain();

    report_.set("e2e_p50_ms", pct(latency_, 0.50), "ms");
    report_.set("e2e_p99_ms", pct(latency_, 0.99), "ms");
    report_.set("bench.latency_jobs", static_cast<double>(latency_.size()),
                "count");
    report_.set("bench.generator_late_p99_ms", pct(late_, 0.99), "ms");
    report_.set("makespan_gain_pct", fresh_gain_.mean(), "%");
    report_.set("reschedule_gain_pct", reschedule_gain_.mean(), "%");
    report_.set("on_time_share",
                attempted_ > 0 ? 1.0 - static_cast<double>(late_jobs_) /
                                           static_cast<double>(attempted_)
                               : 0.0,
                "ratio");
    report_.set("service.submit_us", pct(submit_us_, 0.5), "us");
    report_.set("service.queue_wait_p50_ms", pct(queue_wait_ms_, 0.50), "ms");
    report_.set("service.queue_wait_p99_ms", pct(queue_wait_ms_, 0.99), "ms");
    report_.set("service.solve_p50_ms", pct(solve_ms_, 0.50), "ms");
    report_.set("service.solve_p99_ms", pct(solve_ms_, 0.99), "ms");
    const auto snap = svc_->metrics();
    report_.set("service.arena_builds", static_cast<double>(snap.arena_builds),
                "count");
    report_.set("service.steals", static_cast<double>(svc_->queue_steals()),
                "count");
    report_.set("service.cache_hit_share", snap.cache_hit_rate(), "ratio");
    report_.set("service.rejects", static_cast<double>(snap.rejected), "count");
    report_.set("service.retries", static_cast<double>(snap.retries), "count");
    report_.set("dynamic.adopted_share",
                reschedules_ > 0 ? static_cast<double>(adopted_) /
                                       static_cast<double>(reschedules_)
                                 : 0.0,
                "ratio");
    if (tracer_.enabled()) attach_service_spans();
    stop_service();
    report_.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  }

 private:
  void set_up() {
    pool_s_.clear();
    pool_w_.clear();
    pool_a_.clear();
    hot_.clear();
    sessions_.clear();
    std::uint64_t n = 0;
    auto make = [&](std::vector<Instance>& pool, char cls, std::size_t count,
                    std::size_t profile_step) {
      for (std::size_t i = 0; i < count; ++i) {
        Instance inst;
        inst.cls = &scale_class(cls);
        {
          Scoped span(tracer_, "etc", "generate");
          inst.etc = std::make_shared<const etc::EtcMatrix>(
              make_instance(*inst.cls, mix(kSuiteSeed, n++),
                            1 + i * profile_step));
        }
        Scoped span(tracer_, "heuristics", "min_min");
        const sched::Schedule mm = heur::min_min(*inst.etc);
        inst.min_min = mm.makespan();
        if (cls == 'A')
          inst.expected.assign(mm.assignment().begin(), mm.assignment().end());
        pool.push_back(std::move(inst));
      }
    };
    make(pool_s_, 'S', kPoolS, 1);
    make(pool_w_, 'W', kPoolW, 1);
    // Class A stays on one profile (inconsistent, high heterogeneity): the
    // Min-min cost at 8192 x 256 differs by up to 3x between profiles.
    make(pool_a_, 'A', kPoolA, 0);
    make(hot_, 'S', kHotS, 1);
    make(hot_, 'W', kHotW, 1);
    for (std::size_t i = 0; i < kSessions; ++i) {
      batch::WorkloadSpec w;
      w.tasks = scale_class('S').tasks;
      w.machines = scale_class('S').machines;
      w.seed = mix(kSuiteSeed, 0x2000 + i);
      Scoped span(tracer_, "dynamic", "open_session");
      sessions_.emplace_back(w);
    }

    workers_ = std::max<std::size_t>(1, opt_.nproc - 1);
    service::ServiceOptions o;
    o.workers = workers_;
    o.queue_capacity = 4096;
    svc_ = std::make_unique<service::SchedulerService>(o);
    svc_->set_completion_callback([this](service::JobId id) {
      const auto now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mailbox_mutex_);
        mailbox_.emplace_back(id, now);
      }
      mailbox_cv_.notify_one();
    });
    // The hot set's first solves: later repeats must answer with these.
    measuring_ = false;
    for (Instance& inst : hot_) submit_instance(JobKind::kHot, inst, {});
    drain();
  }

  void stop_service() {
    if (!svc_) return;
    svc_->set_completion_callback({});
    svc_->shutdown();
    svc_.reset();
    inflight_.clear();
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    mailbox_.clear();
  }

  void begin_phase() {
    measuring_ = true;
    jobs_done_.clear();
    evals_done_.clear();
    latency_.clear();
    queue_wait_ms_.clear();
    solve_ms_.clear();
  }

  /// "hot:40,S:33,W:8,A:2,R:17"; kinds left out keep their default share.
  void parse_deck(const std::string& text) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t colon = text.find(':', pos);
      std::size_t comma = text.find(',', pos);
      if (comma == std::string::npos) comma = text.size();
      if (colon == std::string::npos || colon > comma)
        throw std::invalid_argument("bad --deck entry in " + text);
      const std::string kind = text.substr(pos, colon - pos);
      const auto it = std::find(std::begin(kKindNames), std::end(kKindNames),
                                kind);
      if (it == std::end(kKindNames))
        throw std::invalid_argument("unknown --deck kind " + kind);
      const int count = std::stoi(text.substr(colon + 1, comma - colon - 1));
      if (count < 0) throw std::invalid_argument("negative --deck share");
      deck_counts_[static_cast<std::size_t>(it - std::begin(kKindNames))] =
          count;
      pos = comma + 1;
    }
    if (std::accumulate(deck_counts_.begin(), deck_counts_.end(), 0) <= 0)
      throw std::invalid_argument("--deck holds no job");
  }

  JobKind next_kind() {
    if (deck_pos_ == deck_.size()) {
      deck_.clear();
      for (std::size_t k = 0; k < std::size(kKinds); ++k)
        deck_.insert(deck_.end(), deck_counts_[k], kKinds[k]);
      std::shuffle(deck_.begin(), deck_.end(), rng_);
      deck_pos_ = 0;
    }
    return deck_[deck_pos_++];
  }

  void submit(JobKind kind, Clock::time_point due) {
    switch (kind) {
      case JobKind::kS:
        return submit_instance(kind, pool_s_[next_s_++ % pool_s_.size()], due);
      case JobKind::kW:
        return submit_instance(kind, pool_w_[next_w_++ % pool_w_.size()], due);
      case JobKind::kA:
        return submit_instance(kind, pool_a_[next_a_++ % pool_a_.size()], due);
      case JobKind::kHot:
        return submit_instance(kind, hot_[next_hot_++ % hot_.size()], due);
      case JobKind::kReschedule:
        return submit_reschedule(due);
    }
  }

  void submit_instance(JobKind kind, Instance& inst,
                       Clock::time_point due) {
    service::JobSpec spec;
    spec.etc = inst.etc;
    spec.seed = rng_();
    spec.deadline_ms = kDeadlineMs;
    spec.use_cache = kind == JobKind::kHot;
    if (inst.cls->name == 'A') {
      spec.policy = service::SolvePolicy::kMinMin;
    } else {
      spec.policy = service::SolvePolicy::kCga;
      spec.max_generations = inst.cls->generations;
    }
    Inflight job{kind, inst.etc, &inst};
    admit(std::move(spec), std::move(job), due, false);
  }

  /// A reschedule unit: one or two seeded grid events on a session, then
  /// its repaired schedule as the warm start of a generation-capped job.
  void submit_reschedule(Clock::time_point due) {
    const std::size_t si = next_session_++ % sessions_.size();
    dynamic::RescheduleSession& session = sessions_[si];
    for (int e = 0; e < 2; ++e) {
      const dynamic::GridEvent ev = next_event(session);
      Scoped span(tracer_, "dynamic", "apply");
      session.apply(ev);
    }
    std::optional<service::JobSpec> spec;
    {
      Scoped span(tracer_, "dynamic", "make_reschedule_spec");
      spec = session.make_reschedule_spec(0, kDeadlineMs, rng_());
    }
    spec->policy = service::SolvePolicy::kCga;
    spec->max_generations = scale_class('S').generations;
    Inflight job{JobKind::kReschedule, spec->etc};
    job.seed_makespan = recomputed_makespan(*spec->etc, spec->warm_start);
    job.session = si;
    admit(std::move(*spec), std::move(job), due, true);
  }

  /// Seeded events that keep a session near the S shape: 448..576 tasks,
  /// 12..20 machines.
  dynamic::GridEvent next_event(const dynamic::RescheduleSession& s) {
    // Kinds come from a shuffled deck of the six, so every seed applies
    // them in the same proportions.
    if (event_pos_ == event_deck_.size()) {
      event_deck_ = {0, 1, 2, 3, 4, 5};
      std::shuffle(event_deck_.begin(), event_deck_.end(), rng_);
      event_pos_ = 0;
    }
    int pick = event_deck_[event_pos_++];
    if (pick == 2 && s.tasks() >= 576) pick = 3;
    if (pick == 3 && s.tasks() <= 448) pick = 2;
    if (pick == 4 && s.machines() <= 12) pick = 5;
    if (pick == 5 && s.machines() >= 20) pick = 4;
    switch (pick) {
      case 0:
      case 1:
        return dynamic::machine_slowdown(rng_() % s.machines(),
                                         rng_.uniform(0.6, 1.6));
      case 2:
        return dynamic::task_arrival(rng_.uniform(1.0, 3000.0));
      case 3:
        return dynamic::task_cancel(rng_() % s.tasks());
      case 4:
        return dynamic::machine_down(rng_() % s.machines());
      default:
        return dynamic::machine_up(rng_.uniform(1.0, 10.0));
    }
  }

  void admit(service::JobSpec spec, Inflight job, Clock::time_point due,
             bool reschedule) {
    const auto t0 = Clock::now();
    job.due = due.time_since_epoch().count() == 0 ? t0 : due;
    job.submitted = t0;
    job.measured = measuring_;
    std::optional<service::JobId> id;
    {
      Scoped span(tracer_, "service", "try_submit");
      id = reschedule ? svc_->try_submit_reschedule(std::move(spec))
                      : svc_->try_submit(std::move(spec));
    }
    if (measuring_)
      submit_us_.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (!id) {
      // Refused: counted as attempted and late, with nothing to check.
      if (job.measured) {
        ++attempted_;
        ++late_jobs_;
        report_.check(true, "");
      }
      return;
    }
    inflight_.emplace(*id, std::move(job));
  }

  void wait_completions(Clock::time_point until) {
    std::deque<std::pair<service::JobId, Clock::time_point>> ready;
    {
      std::unique_lock<std::mutex> lock(mailbox_mutex_);
      mailbox_cv_.wait_until(lock, until, [&] { return !mailbox_.empty(); });
      ready.swap(mailbox_);
    }
    for (const auto& [id, at] : ready) complete(id, at);
  }

  void drain() {
    const auto t0 = Clock::now();
    while (!inflight_.empty() && seconds_since(t0) < kDrainSeconds)
      wait_completions(Clock::now() + std::chrono::milliseconds(100));
    for (std::size_t i = 0; i < inflight_.size(); ++i)
      report_.check(false, "job never completed");
    inflight_.clear();
  }

  void complete(service::JobId id, Clock::time_point done) {
    const auto it = inflight_.find(id);
    if (it == inflight_.end()) return;
    Inflight job = std::move(it->second);
    inflight_.erase(it);
    service::JobResult r;
    bool ready;
    {
      Scoped span(tracer_, "service", "poll_result", id);
      ready = svc_->poll_result(id, r) == service::SchedulerService::Poll::kReady;
    }
    std::string why;
    if (!ready || r.status != service::JobStatus::kDone) {
      why = "job " + std::to_string(id) + " not done";
    } else {
      why = check_schedule(*job.etc, r.assignment, r.makespan);
    }
    if (why.empty()) why = check_kind(job, r);
    if (job.measured) {
      ++attempted_;
      if (!why.empty() || r.deadline_missed) ++late_jobs_;
      jobs_done_.emplace_back(done, 1.0);
      evals_done_.emplace_back(done, static_cast<double>(r.evaluations));
      latency_.push_back(
          std::chrono::duration<double, std::milli>(done - job.due).count());
      queue_wait_ms_.push_back(r.queue_wait_seconds * 1e3);
      solve_ms_.push_back(r.solve_seconds * 1e3);
    }
    report_.check(why.empty(), why);
    if (tracer_.enabled())
      tracer_.async_span("service", "job", id, job.submitted, done);
  }

  std::string check_kind(const Inflight& job, const service::JobResult& r) {
    switch (job.kind) {
      case JobKind::kS:
      case JobKind::kW:
        // Min-min seeds every kCga population: never worse than Min-min.
        if (r.cache_hit) return "fresh solve answered from the cache";
        if (r.makespan > job.instance->min_min * (1.0 + 1e-12))
          return "kCga result worse than Min-min";
        fresh_gain_.add(100.0 * (job.instance->min_min - r.makespan) /
                        job.instance->min_min);
        return {};
      case JobKind::kA:
        if (r.assignment != job.instance->expected)
          return "class A Min-min differs from the reference";
        return {};
      case JobKind::kHot: {
        auto& first = job.instance->expected;
        if (first.empty()) {
          if (r.cache_hit) return "first solve of a hot instance was a hit";
          first = r.assignment;
          return {};
        }
        if (!r.cache_hit) return "repeated instance missed the cache";
        if (r.assignment != first)
          return "cache hit differs from the first solve";
        return {};
      }
      case JobKind::kReschedule: {
        if (!r.warm_started) return "reschedule not warm-started";
        if (r.makespan > job.seed_makespan * (1.0 + 1e-12))
          return "reschedule worse than its seed";
        reschedule_gain_.add(100.0 * (job.seed_makespan - r.makespan) /
                             job.seed_makespan);
        ++reschedules_;
        Scoped span(tracer_, "dynamic", "adopt");
        if (sessions_[job.session].adopt(r.assignment)) ++adopted_;
        return {};
      }
    }
    return {};
  }

  /// Parents the service's own spans (queue wait, serve, and the solver
  /// phases inside serve) under the benchmark's per-job spans.
  void attach_service_spans() {
    const auto& trace = svc_->trace();
    const auto ref = Clock::now();
    const auto ref_ns = static_cast<std::int64_t>(trace.to_ns(ref));
    auto at = [&](std::uint64_t ns) {
      return ref - std::chrono::nanoseconds(ref_ns - static_cast<std::int64_t>(ns));
    };
    const auto spans = trace.snapshot();
    std::unordered_map<std::uint64_t, std::uint64_t> serve_of;
    for (int pass = 0; pass < 2; ++pass) {
      for (const obs::SpanEvent& e : spans) {
        if (!obs::span_has_duration(e.kind)) continue;
        const bool envelope = e.kind == obs::SpanKind::kQueueWait ||
                              e.kind == obs::SpanKind::kServe;
        if (envelope != (pass == 0)) continue;
        const std::uint64_t job = tracer_.async_id(e.job_id);
        if (job == 0) continue;
        std::uint64_t parent = job;
        if (!envelope) {
          const auto s = serve_of.find(e.job_id);
          if (s != serve_of.end()) parent = s->second;
        }
        // Queue waits overlap on a shard, so they go on the exempt async
        // lanes; serve and its solver phases go on a nesting lane per
        // worker, numbered clear of the benchmark's own thread lanes.
        const bool wait = e.kind == obs::SpanKind::kQueueWait;
        const std::uint64_t id = tracer_.child_span(
            span_layer(e.kind), obs::to_string(e.kind), e.job_id, parent,
            wait ? Tracer::kAsyncPid : Tracer::kLanePid,
            static_cast<int>(e.worker) + (wait ? 0 : kWorkerLaneBase),
            at(e.ts_ns), at(e.ts_ns + e.dur_ns));
        if (e.kind == obs::SpanKind::kServe) serve_of[e.job_id] = id;
      }
    }
  }

  const Options& opt_;
  Report& report_;
  Tracer& tracer_;
  support::Xoshiro256 rng_;

  std::vector<Instance> pool_s_, pool_w_, pool_a_, hot_;
  std::deque<dynamic::RescheduleSession> sessions_;  ///< never relocated
  // Pools are visited round robin, so each profile's share of the jobs is
  // the same on every seed.
  std::size_t next_s_ = 0, next_w_ = 0, next_a_ = 0, next_hot_ = 0;
  std::size_t next_session_ = 0;
  std::vector<int> event_deck_;
  std::size_t event_pos_ = 0;
  std::size_t workers_ = 1;
  std::unique_ptr<service::SchedulerService> svc_;

  std::mutex mailbox_mutex_;
  std::condition_variable mailbox_cv_;
  std::deque<std::pair<service::JobId, Clock::time_point>> mailbox_;
  std::unordered_map<service::JobId, Inflight> inflight_;

  std::array<int, std::size(kKinds)> deck_counts_{};
  std::vector<JobKind> deck_;
  std::size_t deck_pos_ = 0;
  bool measuring_ = false;
  std::vector<Completion> jobs_done_, evals_done_;
  std::uint64_t attempted_ = 0;
  std::uint64_t late_jobs_ = 0;
  std::uint64_t reschedules_ = 0;
  std::uint64_t adopted_ = 0;
  std::vector<double> latency_, late_, submit_us_, queue_wait_ms_, solve_ms_;
  support::RunningStats fresh_gain_;
  support::RunningStats reschedule_gain_;
};

}  // namespace

void run_service_mixed(const Options& opt, Report& report, Tracer& tracer) {
  MixedRun run(opt, report, tracer);
  run.run();
}

}  // namespace perfbench
