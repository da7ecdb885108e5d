// Mutation operators. The paper's mutation "moves one randomly chosen task
// to a randomly chosen machine" (Table 1); swap and rebalance are standard
// companions in the grid-scheduling literature, kept for ablations.
#pragma once

#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

enum class MutationKind {
  kMove,       ///< random task -> random machine (the paper's operator)
  kSwap,       ///< swap the machines of two random tasks
  kRebalance,  ///< random task from the most loaded machine -> random machine
};

const char* to_string(MutationKind k) noexcept;

/// Applies one mutation of `kind` in place.
void mutate(MutationKind kind, sched::Schedule& s, support::Xoshiro256& rng);

/// Picks one task uniformly among those assigned to machine `m` via a
/// single reservoir-sampling pass. Returns tasks() when `m` is empty.
/// H2LL (local_search.cpp) makes the same draws over its own per-machine
/// task lists; the two must stay in step.
std::size_t random_task_on_machine(const sched::Schedule& s,
                                   sched::MachineId m,
                                   support::Xoshiro256& rng);

}  // namespace pacga::cga
