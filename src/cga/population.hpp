// The structured population: a toroidal grid of individuals plus one
// read-write lock per cell (paper §3.2 — POSIX rwlock; here
// std::shared_mutex). The sequential engine simply never takes the locks.
//
// Locks live in their own cache-line-padded array, separate from the
// individuals, so lock traffic does not invalidate schedule data lines.
#pragma once

#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "cga/grid.hpp"
#include "cga/individual.hpp"
#include "etc/etc_matrix.hpp"
#include "support/rng.hpp"
#include "support/threading.hpp"

namespace pacga::cga {

class Population {
 public:
  /// Random initialization; when `seed_min_min` is set, cell 0 holds the
  /// Min-min schedule (paper Table 1: "Min-min (1 ind)"). `lambda` weights
  /// the combined objective (Config::lambda).
  Population(const etc::EtcMatrix& etc, Grid grid, support::Xoshiro256& rng,
             bool seed_min_min, sched::Objective objective,
             double lambda = 0.75);

  // Not copyable (per-cell locks are identity); movable so populations can
  // be swapped wholesale (checkpoint restore, engine handoff). Moving
  // while any lock is held is undefined — move only between runs.
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;
  Population(Population&&) noexcept = default;
  Population& operator=(Population&&) noexcept = default;

  /// In-place re-initialization for a NEW instance of the same tasks x
  /// machines shape: every cell is rebound to `etc` and randomized into
  /// its existing storage (no per-cell reallocation); cell 0 optionally
  /// gets the Min-min seed. The per-cell locks are untouched. This is the
  /// warm-start path of the scheduler service: a reseed of a same-shape
  /// population performs zero heap allocations, Min-min seed included
  /// (heur::min_min_into writes into a population-owned buffer and runs on
  /// thread-local scratch that the first seed on a thread sizes). Throws
  /// std::invalid_argument when `etc`'s shape differs from the shape the
  /// population was built for.
  void reseed(const etc::EtcMatrix& etc, support::Xoshiro256& rng,
              bool seed_min_min, sched::Objective objective, double lambda);

  /// Overwrites cell `i` with `assignment` (adopted into the existing
  /// storage — zero heap allocations) and re-evaluates its fitness. This
  /// is the warm-start injection point of the dynamic rescheduling path:
  /// a repaired schedule becomes one individual of the initial population
  /// and the anytime CGA can only improve on it. Throws
  /// std::invalid_argument on shape or machine-id range violations
  /// (Schedule::adopt's checks).
  void seed_cell(std::size_t i, const etc::EtcMatrix& etc,
                 std::span<const sched::MachineId> assignment,
                 sched::Objective objective, double lambda);

  const Grid& grid() const noexcept { return grid_; }
  std::size_t size() const noexcept { return cells_.size(); }

  Individual& at(std::size_t i) noexcept { return cells_[i]; }
  const Individual& at(std::size_t i) const noexcept { return cells_[i]; }

  /// Per-cell read-write lock (only the parallel engine takes these).
  std::shared_mutex& lock(std::size_t i) noexcept { return locks_[i].value; }

  /// Index of the best (lowest-fitness) individual. Unsynchronized scan —
  /// call only when no writer is active (end of run, or from tests).
  std::size_t best_index() const noexcept;

  /// Mean fitness across all cells. Unsynchronized scan.
  double mean_fitness() const noexcept;

 private:
  Grid grid_;
  std::vector<Individual> cells_;
  std::unique_ptr<support::Padded<std::shared_mutex>[]> locks_;
  std::vector<sched::MachineId> min_min_seed_;  // one entry per task
};

}  // namespace pacga::cga
