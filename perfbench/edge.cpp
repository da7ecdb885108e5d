// edge-tcp and edge-pipe: the daemon protocol through the scheduler_service
// binary, over loopback TCP (net::Server's poll loop, async sessions) or
// its stdin/stdout pipe (net::Session's blocking mode).
//
// One generator thread drives every connection from one poll() loop. The
// request script is a shuffled deck of cheap units: inline 12x8 SUBMITs
// (fresh matrices, so never cache hits), repeated INSTANCE requests (cache
// hits on instances solved during set-up), dynamic-grid EVENTs, an
// occasional DYNAMIC reset, generation-capped RESCHEDULEs, and STATS. Each
// unit's reply lines are checked in order against the transcript rule and
// against references the generator computed itself.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"

extern char** environ;

namespace perfbench {

using namespace pacga;

namespace {

enum class UnitKind { kSubmit, kInstance, kEvent, kDynamic, kReschedule, kStats };

/// The script's proportions: one deck of 40 units, reshuffled per deck.
constexpr std::pair<UnitKind, int> kDeck[] = {
    {UnitKind::kSubmit, 20},    {UnitKind::kInstance, 10},
    {UnitKind::kEvent, 6},      {UnitKind::kReschedule, 2},
    {UnitKind::kStats, 1},      {UnitKind::kDynamic, 1},
};
// 12 tasks keep kAuto on the heuristic path (best of Min-min and
// Sufferage) whatever the budget; 32-task dynamic sessions escalate to a
// generation-capped warm CGA on RESCHEDULE.
constexpr std::size_t kSubmitTasks = 12;
constexpr std::size_t kSubmitMachines = 8;
constexpr std::size_t kDynTasks = 32;
constexpr std::size_t kDynMachines = 8;
constexpr int kRescheduleGenerations = 2;
constexpr const char* kDeadlineMs = "60000";
/// Warm-up solves of the hot INSTANCE names: a deadline inside the warm-CGA
/// band of kAuto, so the answer is cached (a budget-starved heuristic
/// answer would not be).
constexpr const char* kWarmupDeadlineMs = "30";
constexpr std::size_t kHotNames = 4;
constexpr int kSetupReps = 3;
constexpr double kCapacityShare = 0.35;  ///< of the run; the rest is latency
constexpr double kRateWindowSeconds = 0.5;
constexpr double kLatencyWindowSeconds = 1.0;
constexpr double kDrainSeconds = 60.0;

struct Unit {
  UnitKind kind = UnitKind::kStats;
  Clock::time_point due{};
  Clock::time_point sent{};
  bool measured = false;  ///< counts toward the current phase
  double ref = 0.0;       ///< SUBMIT: expected makespan; INSTANCE: cached one
  double min_min = 0.0;   ///< SUBMIT: Min-min makespan of the matrix
  std::string event;      ///< EVENT: expected kind
  std::size_t tasks = 0;  ///< EVENT/DYNAMIC: expected shape after the line
  std::size_t machines = 0;
  std::size_t hot = 0;    ///< INSTANCE: which hot name
  bool warmup = false;
  std::uint64_t seq = 0;  ///< request id of the unit's span
};

struct Conn {
  int rfd = -1;
  int wfd = -1;
  std::string out;
  std::size_t off = 0;
  std::string in;
  Transcript transcript;
  std::deque<std::size_t> owner;  ///< unit slot of each pending reply
  std::size_t tasks = kDynTasks;  ///< session shape after every sent line
  std::size_t machines = kDynMachines;
  double session_makespan = 0.0;  ///< after every received reply
  std::size_t inflight = 0;
  bool broken = false;
};

void set_nonblocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
}

void append_num(std::string& s, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  s.append(buf, r.ptr);
}

class EdgeRun {
 public:
  EdgeRun(const Options& opt, bool tcp, Report& report, Tracer& tracer)
      : opt_(opt),
        tcp_(tcp),
        report_(report),
        tracer_(tracer),
        rng_(stream(opt.seed, 0xed9e)) {
    const auto names = etc::braun_suite_names();
    for (std::size_t i = 0; i < kHotNames; ++i)
      hot_names_.push_back(names[(opt.seed + 3 * i) % names.size()]);
  }
  ~EdgeRun() { stop_daemon(false); }
  EdgeRun(const EdgeRun&) = delete;
  EdgeRun& operator=(const EdgeRun&) = delete;

  void run() {
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (rep > 0) stop_daemon(false);
      const auto t0 = Clock::now();
      start_daemon();
      warm_up();
      setup.push_back(seconds_since(t0));
    }
    report_.set("setup_s", support::median(setup), "s");

    const double capacity_s = kCapacityShare * opt_.seconds;
    const double latency_s = opt_.seconds - capacity_s;
    // Capacity phase: closed loop, a fixed window of units per connection.
    begin_phase();
    const auto c0 = Clock::now();
    closed_loop(c0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(capacity_s)));
    drain();
    report_.set("jobs_per_s",
                windowed_rate(jobs_done_, c0, capacity_s, kRateWindowSeconds),
                "1/s");
    report_.set("evals_per_s",
                windowed_rate(evals_done_, c0, capacity_s, kRateWindowSeconds),
                "1/s");

    // Latency phase: open loop on a seeded Poisson schedule.
    begin_phase();
    latency_.clear();
    overhead_us_.clear();
    const auto l0 = Clock::now();
    open_loop(poisson_schedule(opt_.seed, opt_.rate, latency_s), l0);
    drain();
    report_.set("e2e_p50_ms",
                windowed_pct(latency_, l0, latency_s, kLatencyWindowSeconds,
                             0.50),
                "ms");
    report_.set("e2e_p99_ms",
                windowed_pct(latency_, l0, latency_s, kLatencyWindowSeconds,
                             0.99),
                "ms");
    report_.set("bench.generator_late_p99_ms", pct(late_, 0.99), "ms");
    report_.set("bench.latency_jobs", static_cast<double>(latency_.size()),
                "count");

    final_stats();
    const double daemon_rss = stop_daemon(true);
    report_.set("peak_rss_mb", self_peak_rss_mb() + daemon_rss, "MB");

    const double attempted = static_cast<double>(total_units_);
    report_.set("on_time_share",
                attempted > 0 ? 1.0 - static_cast<double>(late_units_) / attempted
                              : 0.0,
                "ratio");
    report_.set("makespan_gain_pct", submit_gain_.mean(), "%");
    report_.set("reschedule_gain_pct", reschedule_gain_.mean(), "%");
    report_.set("net.overhead_us", pct(overhead_us_, 0.5), "us");
    report_.set("net.busy_replies", static_cast<double>(busy_), "count");
  }

 private:
  // ---- daemon process ------------------------------------------------------

  void start_daemon() {
    // One solver worker: the solves here take microseconds, and with the
    // generator and the daemon's transport thread that leaves a core spare.
    // A second worker bought no throughput and made runs on a busy host
    // swing by 2x.
    std::vector<std::string> args = {opt_.daemon,       "--workers", "1",
                                     "--policy",        "auto",
                                     "--queue-capacity", "4096"};
    if (tcp_) {
      args.push_back("--listen");
      args.push_back("0");
    }
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe() failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&fa, from_child[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addclose(&fa, to_child[1]);
    posix_spawn_file_actions_addclose(&fa, from_child[0]);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, opt_.daemon.c_str(), &fa, nullptr, argv.data(),
                    environ);
    posix_spawn_file_actions_destroy(&fa);
    close(to_child[0]);
    close(from_child[1]);
    if (rc != 0) throw std::runtime_error("cannot start " + opt_.daemon);
    child_in_ = to_child[1];
    child_out_ = from_child[0];
    conns_.clear();
    if (tcp_) {
      const std::string line = read_line_blocking(child_out_, 10.0);
      const auto colon = line.rfind(':');
      if (line.rfind("LISTENING ", 0) != 0 || colon == std::string::npos)
        throw std::runtime_error("daemon did not announce its port: " + line);
      const int port = std::stoi(line.substr(colon + 1));
      const std::size_t n = std::max<std::size_t>(1, opt_.nproc);
      for (std::size_t i = 0; i < n; ++i) {
        const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd < 0 ||
            connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
          throw std::runtime_error("connect to the daemon failed");
        // Requests are small and pipelined: without NODELAY, Nagle holds a
        // WAIT back until the previous segment is acknowledged.
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        set_nonblocking(fd);
        Conn c;
        c.rfd = c.wfd = fd;
        conns_.push_back(std::move(c));
      }
    } else {
      set_nonblocking(child_in_);
      set_nonblocking(child_out_);
      Conn c;
      c.rfd = child_out_;
      c.wfd = child_in_;
      conns_.push_back(std::move(c));
    }
  }

  static std::string read_line_blocking(int fd, double timeout_s) {
    std::string line;
    const auto t0 = Clock::now();
    char ch = 0;
    while (seconds_since(t0) < timeout_s) {
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      if (read(fd, &ch, 1) != 1) break;
      if (ch == '\n') return line;
      line.push_back(ch);
    }
    return line;
  }

  /// Shuts the daemon down and reaps it; returns its peak RSS in MB.
  double stop_daemon(bool graceful) {
    if (pid_ <= 0) return 0.0;
    if (!tcp_ && graceful && !conns_.empty() && !conns_[0].broken) {
      send_line(0, "QUIT");
      flush_blocking();
    }
    for (auto& c : conns_)
      if (tcp_ && c.rfd >= 0) close(c.rfd);
    if (child_in_ >= 0) close(child_in_);
    if (tcp_) kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    const auto t0 = Clock::now();
    while (wait4(pid_, &status, WNOHANG, &ru) == 0) {
      if (seconds_since(t0) > 10.0) kill(pid_, SIGKILL);
      usleep(1000);
    }
    if (child_out_ >= 0) close(child_out_);
    pid_ = -1;
    child_in_ = child_out_ = -1;
    conns_.clear();
    if (graceful)
      report_.check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                    "daemon exit status");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  // ---- units ---------------------------------------------------------------

  std::size_t new_unit(UnitKind kind, Clock::time_point due) {
    std::size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      units_[slot] = Unit{};
    } else {
      slot = units_.size();
      units_.emplace_back();
    }
    units_[slot].kind = kind;
    units_[slot].due = due;
    units_[slot].measured = measuring_;
    units_[slot].seq = ++seq_;
    return slot;
  }

  UnitKind next_kind() {
    if (deck_pos_ == deck_.size()) {
      deck_.clear();
      for (const auto& [k, n] : kDeck) deck_.insert(deck_.end(), n, k);
      std::shuffle(deck_.begin(), deck_.end(), rng_);
      deck_pos_ = 0;
    }
    return deck_[deck_pos_++];
  }

  void send_line(std::size_t ci, const std::string& line) {
    conns_[ci].out += line;
    conns_[ci].out += '\n';
  }

  void expect(std::size_t ci, Transcript::Kind kind, std::size_t slot,
              std::uint64_t id = 0) {
    conns_[ci].transcript.expect(kind, id);
    conns_[ci].owner.push_back(slot);
  }

  /// Sends the first line of a unit on connection `ci`.
  void issue(std::size_t ci, std::size_t slot) {
    Conn& c = conns_[ci];
    Unit& u = units_[slot];
    u.sent = Clock::now();
    if (u.measured && u.due.time_since_epoch().count() != 0)
      late_.push_back(
          std::chrono::duration<double, std::milli>(u.sent - u.due).count());
    if (u.due.time_since_epoch().count() == 0) u.due = u.sent;
    ++c.inflight;
    const std::string seed = std::to_string(rng_() % 1000000);
    std::string line;
    switch (u.kind) {
      case UnitKind::kSubmit: {
        std::vector<double> v(kSubmitTasks * kSubmitMachines);
        line = "SUBMIT 0 ";
        line += kDeadlineMs;
        line += ' ' + seed + ' ' + std::to_string(kSubmitTasks) + ' ' +
                std::to_string(kSubmitMachines);
        for (auto& x : v) {
          x = static_cast<double>(rng_.uniform_int(1, 99999));
          line += ' ';
          append_num(line, x);
        }
        const etc::EtcMatrix m(kSubmitTasks, kSubmitMachines, std::move(v));
        u.min_min = heur::min_min(m).makespan();
        u.ref = std::min(u.min_min, heur::sufferage(m).makespan());
        expect(ci, Transcript::Kind::kJob, slot);
        break;
      }
      case UnitKind::kInstance:
        if (!u.warmup) u.hot = rng_() % kHotNames;
        u.ref = hot_makespan_.empty() ? 0.0 : hot_makespan_[u.hot];
        line = std::string("INSTANCE 0 ") +
               (u.warmup ? kWarmupDeadlineMs : kDeadlineMs) + ' ' + seed +
               ' ' + hot_names_[u.hot];
        expect(ci, Transcript::Kind::kJob, slot);
        break;
      case UnitKind::kEvent:
        line = event_line(c, u);
        expect(ci, Transcript::Kind::kEvent, slot);
        break;
      case UnitKind::kDynamic:
        c.tasks = u.tasks = kDynTasks;
        c.machines = u.machines = kDynMachines;
        line = "DYNAMIC " + std::to_string(kDynTasks) + ' ' +
               std::to_string(kDynMachines) + ' ' + seed;
        expect(ci, Transcript::Kind::kDynamic, slot);
        break;
      case UnitKind::kReschedule:
        line = std::string("RESCHEDULE 0 ") + kDeadlineMs + ' ' + seed + ' ' +
               std::to_string(kRescheduleGenerations);
        expect(ci, Transcript::Kind::kReschedule, slot);
        break;
      case UnitKind::kStats:
        line = "STATS";
        expect(ci, Transcript::Kind::kStats, slot);
        break;
    }
    send_line(ci, line);
  }

  /// A grid event that keeps the session inside 24..40 tasks and 6..10
  /// machines (the shape is tracked at send time, so no reply is needed).
  std::string event_line(Conn& c, Unit& u) {
    int pick = static_cast<int>(rng_.uniform_int(0, 4));
    if (pick == 1 && c.tasks >= 40) pick = 2;
    if (pick == 2 && c.tasks <= 24) pick = 1;
    if (pick == 3 && c.machines <= 6) pick = 4;
    if (pick == 4 && c.machines >= 10) pick = 3;
    std::string line = "EVENT ";
    switch (pick) {
      case 0: {
        line += "SLOW " + std::to_string(rng_() % c.machines) + ' ';
        append_num(line, 0.5 + static_cast<double>(rng_() % 1000) / 1000.0);
        u.event = "slowdown";
        break;
      }
      case 1:
        line += "ARRIVE " + std::to_string(rng_.uniform_int(1, 3000));
        u.event = "arrival";
        ++c.tasks;
        break;
      case 2:
        line += "CANCEL " + std::to_string(rng_() % c.tasks);
        u.event = "cancel";
        --c.tasks;
        break;
      case 3:
        line += "DOWN " + std::to_string(rng_() % c.machines);
        u.event = "down";
        --c.machines;
        break;
      default:
        line += "UP " + std::to_string(rng_.uniform_int(1, 10));
        u.event = "up";
        ++c.machines;
        break;
    }
    u.tasks = c.tasks;
    u.machines = c.machines;
    return line;
  }

  void finish(std::size_t ci, std::size_t slot, bool ok, bool late,
              const std::string& why) {
    Unit& u = units_[slot];
    --conns_[ci].inflight;
    if (!u.warmup) {
      report_.check(ok, why);
      ++total_units_;
      if (late || !ok) ++late_units_;
      if (u.measured) {
        jobs_done_.emplace_back(Clock::now(), 1.0);
        latency_.emplace_back(u.due, std::chrono::duration<double, std::milli>(
                                         Clock::now() - u.due)
                                         .count());
      }
      if (tracer_.enabled()) {
        static constexpr const char* kNames[] = {"submit",  "instance",
                                                 "event",   "dynamic",
                                                 "reschedule", "stats"};
        tracer_.async_span("net", kNames[static_cast<int>(u.kind)], u.seq,
                           u.sent, Clock::now());
      }
    }
    free_.push_back(slot);
  }

  void on_line(std::size_t ci, const std::string& line) {
    Conn& c = conns_[ci];
    if (c.broken) return;
    Transcript::Match m{};
    if (c.owner.empty() || !c.transcript.accept(line, m)) {
      report_.check(false, "transcript: " + c.transcript.error());
      break_conn(ci);
      return;
    }
    const std::size_t slot = c.owner.front();
    c.owner.pop_front();
    Unit& u = units_[slot];
    switch (m.kind) {
      case Transcript::Kind::kJob:
        if (m.busy) {
          ++busy_;
          finish(ci, slot, true, true, "");
          return;
        }
        send_line(ci, "WAIT " + std::to_string(m.id));
        expect(ci, Transcript::Kind::kResult, slot, m.id);
        return;
      case Transcript::Kind::kResult:
        on_result(ci, slot, line);
        return;
      case Transcript::Kind::kEvent: {
        std::string kind;
        const bool ok = field(line, "kind", kind) && kind == u.event &&
                        field_num(line, "tasks") == double(u.tasks) &&
                        field_num(line, "machines") == double(u.machines) &&
                        field_num(line, "makespan") > 0.0;
        c.session_makespan = field_num(line, "makespan");
        finish(ci, slot, ok, false, "EVENT reply: " + line);
        return;
      }
      case Transcript::Kind::kDynamic: {
        const bool ok = field_num(line, "tasks") == double(u.tasks) &&
                        field_num(line, "machines") == double(u.machines) &&
                        field_num(line, "makespan") > 0.0;
        c.session_makespan = field_num(line, "makespan");
        finish(ci, slot, ok, false, "DYNAMIC reply: " + line);
        return;
      }
      case Transcript::Kind::kReschedule: {
        if (m.busy) {
          ++busy_;
          finish(ci, slot, true, true, "");
          return;
        }
        std::string status, warm, adopted;
        const double mk = field_num(line, "makespan");
        const double seed = c.session_makespan;
        const bool ok = field(line, "status", status) && status == "done" &&
                        field(line, "warm_started", warm) && warm == "1" &&
                        field(line, "adopted", adopted) && mk > 0.0 &&
                        mk <= seed * (1.0 + 1e-8);
        if (ok) {
          reschedule_gain_.add(100.0 * (seed - mk) / seed);
          if (adopted == "1") c.session_makespan = mk;
          if (u.measured)
            evals_done_.emplace_back(Clock::now(),
                                     field_num(line, "evaluations"));
        }
        finish(ci, slot, ok, field_num(line, "deadline_missed") != 0.0,
               "RESCHEDULE reply (seed " + std::to_string(seed) + "): " + line);
        return;
      }
      case Transcript::Kind::kStats:
        last_stats_ = line;
        finish(ci, slot, true, false, "");
        return;
    }
  }

  void on_result(std::size_t ci, std::size_t slot, const std::string& line) {
    Unit& u = units_[slot];
    std::string status, hit, policy;
    const double mk = field_num(line, "makespan");
    bool ok = field(line, "status", status) && status == "done" &&
              field(line, "cache_hit", hit) && field(line, "policy", policy);
    if (u.kind == UnitKind::kSubmit) {
      ok = ok && hit == "0" && (policy == "minmin" || policy == "sufferage") &&
           same_value(mk, u.ref, 1e-8);
      if (ok) submit_gain_.add(100.0 * (u.min_min - mk) / u.min_min);
      const double service_ms =
          field_num(line, "wait_ms") + field_num(line, "solve_ms");
      overhead_us_.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - u.sent)
              .count() -
          service_ms * 1e3);
    } else if (u.warmup) {
      ok = ok && hit == "0" && mk > 0.0;
      hot_makespan_.resize(kHotNames, 0.0);
      hot_makespan_[u.hot] = mk;
    } else {
      // A cache hit answers with the first solve of that instance.
      ok = ok && hit == "1" && same_value(mk, u.ref, 1e-12);
    }
    finish(ci, slot, ok, field_num(line, "deadline_missed") != 0.0,
           "RESULT: " + line);
  }

  void break_conn(std::size_t ci) {
    Conn& c = conns_[ci];
    c.broken = true;
    for (std::size_t slot : c.owner) {
      if (units_[slot].warmup) continue;
      report_.check(false, "reply lost after a transcript violation");
      ++late_units_;
      ++total_units_;
    }
    c.owner.clear();
    c.inflight = 0;
  }

  // ---- event loop ----------------------------------------------------------

  /// One round of I/O: writes what is pending, waits up to `timeout` for
  /// replies, and dispatches every complete line.
  void pump(std::chrono::nanoseconds timeout) {
    std::vector<pollfd> fds;
    for (auto& c : conns_) {
      if (c.broken) continue;
      flush(c);
      short ev = POLLIN;
      if (c.off < c.out.size()) {
        if (c.wfd == c.rfd) {
          ev |= POLLOUT;
        } else {
          fds.push_back({c.wfd, POLLOUT, 0});
        }
      }
      fds.push_back({c.rfd, ev, 0});
    }
    if (timeout.count() < 0) timeout = std::chrono::nanoseconds(0);
    const timespec ts{static_cast<time_t>(timeout.count() / 1000000000),
                      static_cast<long>(timeout.count() % 1000000000)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    char buf[65536];
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& c = conns_[ci];
      if (c.broken) continue;
      for (;;) {
        const ssize_t n = read(c.rfd, buf, sizeof buf);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 && !c.owner.empty()) {
          report_.check(false, "daemon closed the connection early");
          break_conn(ci);
        }
        break;
      }
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        on_line(ci, c.in.substr(start, nl - start));
        if (c.broken) break;
      }
      c.in.erase(0, start);
    }
  }

  void flush(Conn& c) {
    while (c.off < c.out.size()) {
      const ssize_t n = write(c.wfd, c.out.data() + c.off, c.out.size() - c.off);
      if (n <= 0) break;
      c.off += static_cast<std::size_t>(n);
    }
    if (c.off == c.out.size()) {
      c.out.clear();
      c.off = 0;
    }
  }

  void flush_blocking() {
    const auto t0 = Clock::now();
    for (auto& c : conns_) {
      while (!c.broken && c.off < c.out.size() && seconds_since(t0) < 5.0) {
        flush(c);
        pollfd p{c.wfd, POLLOUT, 0};
        poll(&p, 1, 10);
      }
    }
  }

  std::size_t inflight() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c.broken ? 0 : c.inflight;
    return n;
  }

  /// Runs the loop until every sent unit is answered (or the drain times
  /// out: the rest are lost replies).
  void drain() {
    const auto t0 = Clock::now();
    while (inflight() > 0 && seconds_since(t0) < kDrainSeconds)
      pump(std::chrono::milliseconds(50));
    for (std::size_t ci = 0; ci < conns_.size(); ++ci)
      if (!conns_[ci].owner.empty()) {
        report_.check(false, "replies missing after the drain");
        break_conn(ci);
      }
  }

  void warm_up() {
    measuring_ = false;
    hot_makespan_.assign(kHotNames, 0.0);
    // One at a time: a warm-up that queued behind another would find its
    // budget spent and escalate to a heuristic, whose answer is not cached.
    for (std::size_t i = 0; i < kHotNames; ++i) {
      const std::size_t slot = new_unit(UnitKind::kInstance, {});
      units_[slot].warmup = true;
      units_[slot].hot = i;
      issue(0, slot);
      drain();
    }
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      const std::size_t slot = new_unit(UnitKind::kDynamic, {});
      units_[slot].warmup = true;
      issue(ci, slot);
    }
    drain();
    for (std::size_t i = 0; i < kHotNames; ++i)
      report_.check(hot_makespan_[i] > 0.0, "warm-up solve of " + hot_names_[i]);
  }

  void begin_phase() {
    measuring_ = true;
    jobs_done_.clear();
    evals_done_.clear();
  }

  void closed_loop(Clock::time_point until) {
    const std::size_t window = tcp_ ? 16 : 32;
    while (Clock::now() < until) {
      for (std::size_t ci = 0; ci < conns_.size(); ++ci)
        while (!conns_[ci].broken && conns_[ci].inflight < window)
          issue(ci, new_unit(next_kind(), {}));
      pump(std::chrono::milliseconds(10));
    }
  }

  void open_loop(const std::vector<double>& due, Clock::time_point t0) {
    std::size_t next = 0, rr = 0;
    while (next < due.size()) {
      const auto now = Clock::now();
      while (next < due.size() &&
             t0 + std::chrono::duration<double>(due[next]) <= now) {
        const auto when = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due[next]));
        const std::size_t ci = rr++ % conns_.size();
        if (!conns_[ci].broken) issue(ci, new_unit(next_kind(), when));
        ++next;
      }
      // Busy-poll instead of sleeping until the next due time: a timer
      // wake-up on a busy host can come milliseconds late, and that
      // lateness would be charged to the daemon.
      if (next < due.size()) pump(std::chrono::nanoseconds(0));
    }
  }

  void final_stats() {
    measuring_ = false;
    const std::size_t slot = new_unit(UnitKind::kStats, {});
    units_[slot].warmup = true;
    issue(0, slot);
    drain();
    auto num = [&](const char* key) {
      const double v = field_num(last_stats_, key);
      return std::isfinite(v) ? v : 0.0;
    };
    report_.set("service.queue_wait_p50_ms", num("p50_wait_ms"), "ms");
    report_.set("service.queue_wait_p99_ms", num("p99_wait_ms"), "ms");
    report_.set("service.solve_p50_ms", num("p50_solve_ms"), "ms");
    report_.set("service.solve_p99_ms", num("p99_solve_ms"), "ms");
    report_.set("service.arena_builds", num("arena_builds"), "count");
    report_.set("service.steals", num("steals"), "count");
    report_.set("service.cache_hit_share", num("cache_hit_rate"), "ratio");
    report_.set("service.rejects", num("rejected"), "count");
    report_.set("service.retries", num("retries"), "count");
  }

  const Options& opt_;
  const bool tcp_;
  Report& report_;
  Tracer& tracer_;
  support::Xoshiro256 rng_;
  std::vector<std::string> hot_names_;
  std::vector<double> hot_makespan_;

  pid_t pid_ = -1;
  int child_in_ = -1;
  int child_out_ = -1;
  std::vector<Conn> conns_;

  std::vector<Unit> units_;
  std::vector<std::size_t> free_;
  std::vector<UnitKind> deck_;
  std::size_t deck_pos_ = 0;
  bool measuring_ = false;
  std::uint64_t seq_ = 0;

  std::vector<Completion> jobs_done_, evals_done_;
  std::uint64_t total_units_ = 0;
  std::uint64_t late_units_ = 0;
  std::uint64_t busy_ = 0;
  std::vector<Completion> latency_;  ///< (due time, latency ms)
  std::vector<double> late_;
  std::vector<double> overhead_us_;
  support::RunningStats submit_gain_;
  support::RunningStats reschedule_gain_;
  std::string last_stats_;
};

}  // namespace

void run_edge(const Options& opt, bool tcp, Report& report, Tracer& tracer) {
  signal(SIGPIPE, SIG_IGN);
  EdgeRun run(opt, tcp, report, tracer);
  run.run();
}

}  // namespace perfbench
