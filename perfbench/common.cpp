#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "etc/braun.hpp"

namespace perfbench {

using namespace pacga;

const ScaleClass& scale_class(char name) {
  for (const auto& c : kClasses)
    if (c.name == name) return c;
  throw std::invalid_argument(std::string("unknown scale class ") + name);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream_id) {
  support::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL ^ (stream_id + 1));
  sm.next();
  return sm.next();
}

support::Xoshiro256 stream(std::uint64_t seed, std::uint64_t stream_id) {
  return support::Xoshiro256(mix(seed, stream_id));
}

etc::EtcMatrix make_instance(const ScaleClass& c, std::uint64_t seed,
                             std::size_t profile) {
  etc::GenSpec g;
  g.tasks = c.tasks;
  g.machines = c.machines;
  g.seed = seed;
  g.consistency = profile % 2 ? etc::Consistency::kInconsistent
                              : etc::Consistency::kSemiConsistent;
  g.task_het = (profile / 2) % 2 ? etc::Heterogeneity::kLow
                                 : etc::Heterogeneity::kHigh;
  g.machine_het = (profile / 4) % 2 ? etc::Heterogeneity::kLow
                                    : etc::Heterogeneity::kHigh;
  return etc::generate(g);
}

// ---- report ------------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::cerr << "perfbench: check failed: " << what << '\n';
}

double Report::ok_share() const {
  return attempted_ == 0 ? 0.0
                         : 1.0 - static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::absorb(const Report& other, bool overwrite) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [name, m] : other.metrics_)
    if (overwrite || metrics_.count(name) == 0) metrics_[name] = m;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---- checks ------------------------------------------------------------------

bool same_value(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

double recomputed_makespan(const etc::EtcMatrix& etc,
                           std::span<const sched::MachineId> assignment) {
  std::vector<double> ct(etc.ready_times().begin(), etc.ready_times().end());
  for (std::size_t t = 0; t < assignment.size(); ++t)
    ct[assignment[t]] += etc(t, assignment[t]);
  return *std::max_element(ct.begin(), ct.end());
}

std::string check_schedule(const etc::EtcMatrix& etc,
                           std::span<const sched::MachineId> assignment,
                           double reported_makespan) {
  if (assignment.size() != etc.tasks())
    return "assignment length " + std::to_string(assignment.size()) +
           " != tasks " + std::to_string(etc.tasks());
  for (std::size_t t = 0; t < assignment.size(); ++t)
    if (assignment[t] >= etc.machines())
      return "task " + std::to_string(t) + " on machine " +
             std::to_string(assignment[t]) + " of " +
             std::to_string(etc.machines());
  const sched::Schedule s(
      etc, std::vector<sched::MachineId>(assignment.begin(), assignment.end()));
  if (!s.validate()) return "Schedule::validate() failed";
  const double mk = recomputed_makespan(etc, assignment);
  if (!same_value(mk, reported_makespan))
    return "reported makespan " + std::to_string(reported_makespan) +
           " != recomputed " + std::to_string(mk);
  return {};
}

bool field(const std::string& line, const std::string& key,
           std::string& out) {
  const std::string needle = " " + key + "=";
  const auto at = line.find(needle);
  if (at == std::string::npos) return false;
  const auto begin = at + needle.size();
  out = line.substr(begin, line.find(' ', begin) - begin);
  return true;
}

double field_num(const std::string& line, const std::string& key) {
  std::string v;
  if (!field(line, key, v)) return std::nan("");
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  return end && *end == '\0' ? x : std::nan("");
}

void Transcript::expect(Kind kind, std::uint64_t id) {
  pending_.push_back({kind, id});
}

bool Transcript::accept(const std::string& line, Match& match) {
  if (pending_.empty()) {
    error_ = "unexpected reply (nothing pending): " + line;
    return false;
  }
  const Pending p = pending_.front();
  pending_.pop_front();
  match = Match{p.kind};
  const bool busy = line.rfind("ERR BUSY queue full", 0) == 0;
  auto starts = [&](const std::string& prefix) {
    return line.rfind(prefix, 0) == 0;
  };
  bool ok = false;
  switch (p.kind) {
    case Kind::kJob:
      if (busy) {
        match.busy = ok = true;
      } else if (starts("JOB ")) {
        ok = line == "JOB " + std::to_string(next_id_);
        match.id = next_id_++;
      }
      break;
    case Kind::kResult:
      ok = starts("RESULT id=" + std::to_string(p.id) + " ");
      match.id = p.id;
      break;
    case Kind::kReschedule:
      if (busy) {
        match.busy = ok = true;
      } else {
        ok = starts("RESULT id=" + std::to_string(next_id_) + " ") &&
             line.find(" adopted=") != std::string::npos;
        match.id = next_id_++;
      }
      break;
    case Kind::kEvent:
      ok = starts("EVENT kind=");
      break;
    case Kind::kDynamic:
      ok = starts("DYNAMIC tasks=");
      break;
    case Kind::kStats:
      ok = starts("STATS submitted=");
      break;
  }
  if (!ok) error_ = "reply out of order or malformed: " + line;
  return ok;
}

// ---- spans -------------------------------------------------------------------

int Tracer::lane_of_current_thread() {
  const auto [it, inserted] = lanes_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(lanes_.size()) + 1);
  return it->second;
}

std::uint64_t Tracer::begin(const char* layer, const char* name,
                            std::uint64_t request) {
  const auto now = ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  const int lane = lane_of_current_thread();
  auto& open = open_[lane];
  const std::uint64_t id = spans_.size() + 1;
  const std::uint64_t parent = open.empty() ? 0 : spans_[open.back()].id;
  spans_.push_back({id, parent, request, layer, name, kLanePid, lane, now, now});
  open.push_back(spans_.size() - 1);
  return id;
}

void Tracer::end(std::uint64_t id) {
  const auto now = ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[id - 1];
  s.end_ns = now;
  auto& open = open_[s.tid];
  if (!open.empty() && open.back() == id - 1) open.pop_back();
}

void Tracer::async_span(const char* layer, const char* name,
                        std::uint64_t request, Clock::time_point start,
                        Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxAsyncSpans) return;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(
      {id, 0, request, layer, name, kAsyncPid, 0, ns(start), ns(end)});
  async_by_request_[request] = id;
}

std::uint64_t Tracer::child_span(const char* layer, const char* name,
                                 std::uint64_t request, std::uint64_t parent,
                                 int pid, int tid, Clock::time_point start,
                                 Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxAsyncSpans) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(
      {id, parent, request, layer, name, pid, tid, ns(start), ns(end)});
  return id;
}

std::uint64_t Tracer::async_id(std::uint64_t request) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = async_by_request_.find(request);
  return it == async_by_request_.end() ? 0 : it->second;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (std::size_t c : it->second) {
        const auto lo = std::max(s.start_ns, spans_[c].start_ns);
        const auto hi = std::min(s.end_ns, spans_[c].end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
       "\"args\": {\"name\": \"perfbench lanes\"}}";
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s.%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                  "\"args\": {\"span\": %llu, \"parent\": %llu, "
                  "\"request\": %llu}}",
                  s.layer, s.name, s.layer, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.pid, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    f << buf;
  }
  f << "\n]}\n";
  f.flush();
  return static_cast<bool>(f);
}

// ---- helpers -----------------------------------------------------------------

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds) {
  auto rng = stream(seed, 0xa771);
  std::vector<double> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

double windowed_rate(const std::vector<Completion>& done,
                     Clock::time_point start, double seconds, double window) {
  const auto n = static_cast<std::size_t>(std::max(1.0, seconds / window));
  std::vector<double> sums(n, 0.0);
  for (const auto& [t, work] : done) {
    const double at = std::chrono::duration<double>(t - start).count();
    if (at < 0.0) continue;
    const auto w = static_cast<std::size_t>(at / window);
    if (w < n) sums[w] += work;
  }
  for (auto& x : sums) x /= window;
  return support::median(sums);
}

double windowed_pct(const std::vector<Completion>& samples,
                    Clock::time_point start, double seconds, double window,
                    double q) {
  const auto n = static_cast<std::size_t>(std::max(1.0, seconds / window));
  std::vector<std::vector<double>> windows(n);
  for (const auto& [t, value] : samples) {
    const double at = std::chrono::duration<double>(t - start).count();
    if (at < 0.0) continue;
    windows[std::min(n - 1, static_cast<std::size_t>(at / window))].push_back(
        value);
  }
  std::vector<double> per_window;
  for (const auto& w : windows)
    if (!w.empty()) per_window.push_back(support::quantile(w, q));
  return pct(per_window, 0.5);
}

double pct(const std::vector<double>& sample, double q) {
  return sample.empty() ? 0.0 : support::quantile(sample, q);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
