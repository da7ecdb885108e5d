// Shared pieces of the perfbench runner: options, the scale-class table,
// the run report, the output checkers and the in-memory span recorder.
//
// The runner drives the library and the scheduler_service daemon through
// their public entry points only. Every workload takes its seed from the
// command line and hands the program generated inputs; every output it gets
// back is checked, and a failed check is counted, never skipped.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "sched/schedule.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Latency-phase arrival rate (1/s) of the open loop, from
  /// perfbench/workloads.json (all workloads but paper-512x16).
  double rate = 0.0;
  std::string trace_out;  ///< Chrome JSON span file of a traced run
  /// service-mixed job mix override ("hot:40,S:33,W:8,A:2,R:17"), used only
  /// for sensitivity runs; empty keeps the workload's own mix.
  std::string deck;
  std::string daemon;     ///< the scheduler_service binary beside the runner
  std::size_t nproc = 1;
};

/// The three scale classes, one row each (tasks x machines, and the
/// generation cap a kCga job of that class runs). A is served by Min-min
/// only: at 8192 x 256 it is the kernel-heavy class.
struct ScaleClass {
  char name;
  std::size_t tasks;
  std::size_t machines;
  std::uint64_t generations;
};
inline constexpr ScaleClass kClasses[] = {
    {'S', 512, 16, 5},
    {'W', 2048, 64, 3},
    {'A', 8192, 256, 0},
};
const ScaleClass& scale_class(char name);

/// Deterministic stream derivation: the same (seed, stream) pair always
/// yields the same generator.
pacga::support::Xoshiro256 stream(std::uint64_t seed, std::uint64_t stream_id);
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream_id);

/// A seeded ETC instance of one scale class (Braun range-based generator).
/// `profile` picks one of eight Braun classes: semi-consistent or
/// inconsistent, times the four heterogeneity pairs. Consistent classes are
/// left out: their Min-min cost is an order of magnitude above the others
/// at 8192 x 256, so which instances a seed drew would dominate the run.
pacga::etc::EtcMatrix make_instance(const ScaleClass& c, std::uint64_t seed,
                                    std::size_t profile);

/// Outcome of one run: counts for the final JSON line plus the metrics.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; a false `ok` counts it as failed and
  /// logs the first few reasons to stderr.
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Share of attempted operations whose output was correct.
  double ok_share() const;
  /// Value of a metric already set (0 when absent).
  double value(const std::string& name) const;
  /// Adds `other`'s counts and copies its metrics; `overwrite` decides
  /// which side wins a name both carry.
  void absorb(const Report& other, bool overwrite);
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- output checks ---------------------------------------------------------

/// Re-validates a returned schedule: length, machine range,
/// Schedule::validate(), and the reported makespan against the makespan
/// recomputed from the ETC matrix. Returns "" when correct, else why not.
std::string check_schedule(const pacga::etc::EtcMatrix& etc,
                           std::span<const pacga::sched::MachineId> assignment,
                           double reported_makespan);

/// Makespan of `assignment` recomputed from scratch.
double recomputed_makespan(const pacga::etc::EtcMatrix& etc,
                           std::span<const pacga::sched::MachineId> assignment);

bool same_value(double a, double b, double rel = 1e-9);

/// Ordered reply checker of one daemon session (bench_net's rule): every
/// request expects exactly one reply of its kind, in request order, and
/// admitted jobs carry consecutive session-local ids. A lost, duplicated
/// or cross-wired line is a violation.
class Transcript {
 public:
  enum class Kind { kJob, kResult, kEvent, kDynamic, kReschedule, kStats };
  /// Registers one sent request. `id` is the job id a WAIT names.
  void expect(Kind kind, std::uint64_t id = 0);
  struct Match {
    Kind kind;
    std::uint64_t id = 0;  ///< admitted job id (kJob / kReschedule)
    bool busy = false;     ///< ERR BUSY: refused, no id consumed
  };
  /// Checks one reply line against the oldest unanswered request. On a
  /// violation returns false and leaves the reason in error().
  bool accept(const std::string& line, Match& match);
  std::size_t pending() const { return pending_.size(); }
  const std::string& error() const { return error_; }

 private:
  struct Pending {
    Kind kind;
    std::uint64_t id;
  };
  std::deque<Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::string error_;
};

/// Value of `key=` in a key=value reply line; false when absent.
bool field(const std::string& line, const std::string& key, std::string& out);
double field_num(const std::string& line, const std::string& key);

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder of a traced run. Spans are recorded by the
/// benchmark around its calls into a layer's public functions, kept in
/// memory, and written as Chrome trace_event JSON when the run ends.
/// Disabled (every call a no-op) in untraced runs.
class Tracer {
 public:
  static constexpr int kLanePid = 1;   ///< nested synchronous spans
  static constexpr int kAsyncPid = 2;  ///< overlapping request lifetimes
  /// Request-lifetime and collector spans kept per run; later ones are
  /// dropped so a long edge run writes a bounded file.
  static constexpr std::size_t kMaxAsyncSpans = 100000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; closes with end(). The parent is
  /// the innermost open span of the same thread.
  std::uint64_t begin(const char* layer, const char* name,
                      std::uint64_t request = 0);
  void end(std::uint64_t id);
  /// Records a finished request-lifetime span (async lane, no nesting).
  void async_span(const char* layer, const char* name, std::uint64_t request,
                  Clock::time_point start, Clock::time_point end);
  /// Records a finished span with an explicit parent (spans a library
  /// collector recorded, re-parented under the request they belong to).
  /// Returns its id (0 when disabled).
  std::uint64_t child_span(const char* layer, const char* name, std::uint64_t request,
                  std::uint64_t parent, int pid, int tid,
                  Clock::time_point start, Clock::time_point end);
  /// Id of the async span of `request` (0 when none).
  std::uint64_t async_id(std::uint64_t request) const;

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part of it its child spans cover.
  std::map<std::string, double> self_ms() const;
  /// Writes Chrome trace JSON; false when the file cannot be written.
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    const char* layer;
    const char* name;
    int pid;
    int tid;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  int lane_of_current_thread();
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> lanes_;
  std::map<int, std::vector<std::size_t>> open_;  ///< lane -> open span idx
  std::map<std::uint64_t, std::uint64_t> async_by_request_;
};

/// RAII span around one call into a layer.
class Scoped {
 public:
  Scoped(Tracer& t, const char* layer, const char* name,
         std::uint64_t request = 0)
      : tracer_(t), id_(t.enabled() ? t.begin(layer, name, request) : 0) {}
  ~Scoped() {
    if (id_ != 0) tracer_.end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Latency-phase helpers shared by the open-loop generators.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds);
/// Work finished at a time point (a job, or a number of evaluations).
using Completion = std::pair<Clock::time_point, double>;
/// Rate of a closed-loop phase: the median, over consecutive windows of
/// `window` seconds from `start` to `start + seconds`, of the work finished
/// in the window per second. A median of windows rides out a transient
/// stall on a shared machine that a whole-phase mean would absorb.
double windowed_rate(const std::vector<Completion>& done,
                     Clock::time_point start, double seconds, double window);
/// Latency quantile of an open-loop phase: the median, over consecutive
/// windows of `window` seconds (by due time), of each window's q-quantile.
/// On a shared machine one host stall would otherwise decide a whole run's
/// tail.
double windowed_pct(const std::vector<Completion>& samples,
                    Clock::time_point start, double seconds, double window,
                    double q);
/// Quantile of a sample in the sample's units (type-7); 0 when empty.
double pct(const std::vector<double>& sample, double q);

/// Peak resident set of this process in MB.
double self_peak_rss_mb();

// ---- workloads and probes ----------------------------------------------------

void run_paper(const Options& opt, Report& report, Tracer& tracer);
void run_service_mixed(const Options& opt, Report& report, Tracer& tracer);
void run_edge(const Options& opt, bool tcp, Report& report, Tracer& tracer);
/// The per-layer probe suite: times each layer's public calls from
/// outside, identically on every workload.
void run_layer_probes(const Options& opt, Report& report, Tracer& tracer);

}  // namespace perfbench
