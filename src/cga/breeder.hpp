// The breeding step (paper Algorithm 3 lines 3-8, minus replacement) as a
// reusable, allocation-free component.
//
// The historical loops heap-allocated two parent Individual copies plus a
// fresh offspring Schedule on EVERY evaluation — 4+ vector allocations on
// the hottest path in the system. A Breeder owns all of that storage:
// parent-copy buffers (locked mode), the offspring buffer, and the
// neighborhood/fitness scratch. After the first step sizes the vectors
// (warm-up), a steady-state select -> crossover -> mutate -> local-search
// -> evaluate sequence performs ZERO heap allocations (verified by
// test_breeder's operator-new counter; kTabuHop and the flowtime-based
// objectives are the documented exceptions — they allocate internally).
//
// One Breeder per thread: it is as thread-private as the RNG stream it is
// used with.
#pragma once

#include "cga/config.hpp"
#include "cga/population.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

class Breeder {
 public:
  /// Sizes every internal buffer for `etc`'s shape. `config` must outlive
  /// the breeder (the engines own both).
  Breeder(const etc::EtcMatrix& etc, const Config& config);

  /// One breeding step on cell `cell`, reading the population
  /// UNSYNCHRONIZED (the sequential engine and the synchronous core, whose
  /// commits happen between barriers). Writes the evaluated offspring into
  /// `out`, which must not alias a population cell and must belong to the
  /// same ETC instance (any same-shape Individual; typically a
  /// preallocated buffer).
  void breed_into(const Population& pop, std::size_t cell,
                  support::Xoshiro256& rng, Individual& out);

  /// Same step under the PA-CGA locking discipline (paper §3.2): neighbor
  /// fitness snapshot and parent copies are taken under per-cell READ
  /// locks, one at a time, into the breeder's private buffers; variation
  /// and evaluation run outside all locks.
  void breed_locked_into(Population& pop, std::size_t cell,
                         support::Xoshiro256& rng, Individual& out);

  /// Convenience forms returning the internal offspring buffer; the
  /// reference is valid until the next breed call.
  const Individual& breed(const Population& pop, std::size_t cell,
                          support::Xoshiro256& rng) {
    breed_into(pop, cell, rng, offspring_);
    return offspring_;
  }
  const Individual& breed_locked(Population& pop, std::size_t cell,
                                 support::Xoshiro256& rng) {
    breed_locked_into(pop, cell, rng, offspring_);
    return offspring_;
  }

  /// Allocation-free replacement: copies `offspring` into `cell`'s
  /// existing storage instead of moving vectors out of it (a move would
  /// leave the source to reallocate on its next use).
  static void replace(Individual& cell, const Individual& offspring) {
    cell.schedule.assign_from(offspring.schedule);
    cell.fitness = offspring.fitness;
  }

 private:
  const Config* config_;
  Individual parent_b_;   ///< locked-mode parent snapshot
  Individual offspring_;  ///< internal offspring buffer
  std::vector<std::size_t> neigh_;
  std::vector<double> fit_;
};

namespace detail {

/// Shared variation tail: `child` holds a copy of parent a on entry; the
/// call applies recombination (against `parent_b`), mutation, and local
/// search per `config`, then evaluates into `child.fitness`. The RNG draw
/// order is identical to the historical engine loops, so refactored
/// engines reproduce the same trajectories seed for seed.
void vary_and_evaluate(Individual& child, const sched::Schedule& parent_b,
                       const Config& config, support::Xoshiro256& rng);

}  // namespace detail

}  // namespace pacga::cga
