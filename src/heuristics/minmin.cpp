#include "heuristics/minmin.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::heur {

namespace kernels = support::kernels;

namespace {

/// Shared skeleton of Min-min / Max-min: each round, compute for every
/// unassigned task its best (machine, completion time); then commit the
/// task chosen by `pick_max` (false = Min-min, true = Max-min). Naive
/// reference: rescans every unassigned task every round.
sched::Schedule min_max_min_naive(const etc::EtcMatrix& etc, bool pick_max) {
  const std::size_t tasks = etc.tasks();
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(tasks, 0);
  std::vector<bool> done(tasks, false);

  for (std::size_t round = 0; round < tasks; ++round) {
    std::size_t chosen_task = tasks;
    std::size_t chosen_machine = 0;
    double chosen_ct = pick_max ? -1.0 : std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < tasks; ++t) {
      if (done[t]) continue;
      // Best machine for task t under current loads.
      std::size_t best_m = 0;
      double best_ct = std::numeric_limits<double>::infinity();
      const auto row = etc.of_task(t);
      for (std::size_t m = 0; m < machines; ++m) {
        const double c = ct[m] + row[m];
        if (c < best_ct) {
          best_ct = c;
          best_m = m;
        }
      }
      const bool take = pick_max ? best_ct > chosen_ct : best_ct < chosen_ct;
      if (take || chosen_task == tasks) {
        chosen_task = t;
        chosen_machine = best_m;
        chosen_ct = best_ct;
      }
    }
    done[chosen_task] = true;
    assignment[chosen_task] = static_cast<sched::MachineId>(chosen_machine);
    ct[chosen_machine] = chosen_ct;
  }
  return sched::Schedule(etc, std::move(assignment));
}

/// Reusable scratch of the accelerated skeleton. Grow-only: vectors are
/// resized, never shrunk, so repeated calls at one shape on one thread
/// allocate nothing.
struct MinMaxMinScratch {
  std::vector<double> ct;            // machine completion times
  std::vector<double> key;           // task's best completion time
  std::vector<std::uint32_t> best_m; // task's cached best machine
  std::vector<std::uint32_t> head;   // per machine: first live task on it
  std::vector<std::uint32_t> next;   // per task: next live task, same list
};

constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();

/// Accelerated skeleton: cached best machine per task + invalidation,
/// with the live tasks kept in one intrusive list per cached best machine.
///
/// NOTE: this exactness invariant is implemented three times, shaped by
/// each site's data layout — here (dense key arrays plus per-machine
/// lists of live tasks), sufferage.cpp's sufferage (adds a cached second
/// slot, scans every live task per round), and the dynamic repairer's
/// reassign_orphans (erase-based orphan list). If you touch the
/// invalidation condition or a tie-break in one, audit the other two;
/// each copy is pinned schedule-for-schedule to its own naive reference
/// (test_heuristics, test_dynamic).
///
/// Why the cache stays exact: committing a task strictly RAISES its
/// machine's completion (ETC entries are positive) and touches nothing
/// else. For any task whose cached best machine is a different machine,
/// both the minimal value and its lowest achieving index are therefore
/// unchanged — the one machine that moved only got worse. Only tasks whose
/// cached best machine just took load are rescanned, through the fused
/// SIMD min-scan; they are exactly the committed machine's list, so a
/// round detaches that list and pushes each rescanned task onto its new
/// best machine's list — a round costs the tasks on the loaded machine,
/// not a pass over every task. Rescans within a round read the same `ct`,
/// so the walk order cannot change a result. The per-round winner is one
/// argmin/argmax kernel scan over the dense key array (finished tasks
/// parked at +/-infinity, which no live completion time can reach).
/// Strict comparisons everywhere keep the naive loop's lowest-index
/// tie-breaks.
void min_max_min_into(const etc::EtcMatrix& etc, bool pick_max,
                      std::span<sched::MachineId> assignment) {
  const std::size_t tasks = etc.tasks();
  const std::size_t machines = etc.machines();
  thread_local MinMaxMinScratch scratch;
  scratch.ct.resize(machines);
  scratch.key.resize(tasks);
  scratch.best_m.resize(tasks);
  scratch.head.assign(machines, kEnd);
  scratch.next.resize(tasks);
  double* const ct = scratch.ct.data();
  double* const key = scratch.key.data();
  std::uint32_t* const best_m = scratch.best_m.data();
  std::uint32_t* const head = scratch.head.data();
  std::uint32_t* const next = scratch.next.data();
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);

  const auto rescan = [&](std::uint32_t t) {
    const auto r =
        kernels::min_completion_index(ct, etc.of_task(t).data(), machines);
    const auto m = static_cast<std::uint32_t>(r.index);
    key[t] = r.value;
    best_m[t] = m;
    next[t] = head[m];
    head[m] = t;
  };
  for (std::size_t t = 0; t < tasks; ++t) rescan(static_cast<std::uint32_t>(t));

  const double parked = pick_max ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < tasks; ++round) {
    const std::size_t chosen = pick_max ? kernels::argmax(key, tasks)
                                        : kernels::argmin(key, tasks);
    const std::uint32_t machine = best_m[chosen];
    assignment[chosen] = static_cast<sched::MachineId>(machine);
    ct[machine] = key[chosen];
    key[chosen] = parked;
    if (round + 1 == tasks) break;
    // The chosen task is on this list too: dropping it instead of
    // re-linking it is what retires it.
    std::uint32_t t = head[machine];
    head[machine] = kEnd;
    while (t != kEnd) {
      const std::uint32_t after = next[t];
      if (t != chosen) rescan(t);
      t = after;
    }
  }
}

}  // namespace

namespace detail {

sched::Schedule min_min_naive(const etc::EtcMatrix& etc) {
  return min_max_min_naive(etc, /*pick_max=*/false);
}

sched::Schedule max_min_naive(const etc::EtcMatrix& etc) {
  return min_max_min_naive(etc, /*pick_max=*/true);
}

}  // namespace detail

void min_min_into(const etc::EtcMatrix& etc,
                  std::span<sched::MachineId> assignment) {
  if (assignment.size() != etc.tasks())
    throw std::invalid_argument("min_min_into: assignment size != tasks");
  min_max_min_into(etc, /*pick_max=*/false, assignment);
}

sched::Schedule min_min(const etc::EtcMatrix& etc) {
  std::vector<sched::MachineId> assignment(etc.tasks());
  min_max_min_into(etc, /*pick_max=*/false, assignment);
  return sched::Schedule(etc, std::move(assignment));
}

sched::Schedule max_min(const etc::EtcMatrix& etc) {
  std::vector<sched::MachineId> assignment(etc.tasks());
  min_max_min_into(etc, /*pick_max=*/true, assignment);
  return sched::Schedule(etc, std::move(assignment));
}

sched::Schedule duplex(const etc::EtcMatrix& etc) {
  // Two plain returns so the winner is implicitly MOVED out; the former
  // `cond ? a : b` ternary yielded an lvalue and copied the winner —
  // one whole-schedule allocation per call for nothing.
  sched::Schedule a = min_min(etc);
  sched::Schedule b = max_min(etc);
  if (a.makespan() <= b.makespan()) return a;
  return b;
}

}  // namespace pacga::heur
