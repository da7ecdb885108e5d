// Min-min and Max-min (Ibarra & Kim 1977; Braun et al. 2001).
//
// Min-min seeds one individual of the PA-CGA population (paper Table 1) and
// is the strongest of the simple constructive heuristics on consistent
// instances; Max-min is its pessimistic dual.
//
// Both run the cached-best-machine rewrite: each unassigned task caches its
// (best machine, best completion) pair, and a round only rescans tasks whose
// cached best machine just changed load — machine loads are monotone
// increasing, so every other cache entry is provably still exact. The live
// tasks sit in one list per cached best machine, so a round walks only the
// committed machine's list. Typical cost drops from O(tasks^2 * machines) to
// ~O(tasks * machines + tasks^2 + machines * rescans), where the tasks^2
// term is the per-round argmin/argmax, one SIMD kernel scan over a dense
// key array; the rescans go through the fused kernel scan too. The schedules are IDENTICAL to the naive
// textbook loops, tie-break for tie-break (test_heuristics proves it).
#pragma once

#include <span>

#include "sched/schedule.hpp"

namespace pacga::heur {

/// Min-min: repeatedly pick the (task, machine) pair whose completion time
/// is globally minimal among unassigned tasks and assign it.
sched::Schedule min_min(const etc::EtcMatrix& etc);

/// Min-min into caller storage: writes the schedule's assignment (one
/// entry per task) into `assignment`. Runs on grow-only thread-local
/// scratch, so repeated calls at one shape on one thread allocate nothing
/// — the warm service path seeds populations through this. Throws
/// std::invalid_argument when `assignment.size() != etc.tasks()`.
void min_min_into(const etc::EtcMatrix& etc,
                  std::span<sched::MachineId> assignment);

/// Max-min: pick the task whose best completion time is LARGEST, assign it
/// to its best machine. Tends to balance long tasks first.
sched::Schedule max_min(const etc::EtcMatrix& etc);

/// Duplex (Braun et al. 2001): run both Min-min and Max-min and keep the
/// schedule with the lower makespan — cheap insurance against the classes
/// where one of the duals degenerates.
sched::Schedule duplex(const etc::EtcMatrix& etc);

namespace detail {

/// The textbook O(tasks^2 * machines) loops — the semantic reference the
/// accelerated paths must match schedule-for-schedule.
sched::Schedule min_min_naive(const etc::EtcMatrix& etc);
sched::Schedule max_min_naive(const etc::EtcMatrix& etc);

}  // namespace detail

}  // namespace pacga::heur
