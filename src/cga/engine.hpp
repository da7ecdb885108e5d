// The cellular GA engines of paper §3.1, on one thread or many.
//
// run_sequential is the canonical asynchronous CGA (paper Algorithm 1;
// PA-CGA with one thread is exactly this engine with kLineSweep/async).
// run_synchronous is the ONE implementation of the synchronous
// (generational) update the paper contrasts against: run_sequential runs
// it with one inline worker and par::run_parallel with `config.threads`
// workers, so a synchronous result is the same gene for gene from either
// entry point and for any worker count.
//
// The loop bodies are assembled from the shared core (cga/loop.hpp +
// cga/breeder.hpp): a steady-state breeding step allocates nothing and
// every engine exposes the same per-generation observer hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cga/config.hpp"
#include "cga/loop.hpp"
#include "cga/population.hpp"
#include "etc/etc_matrix.hpp"

namespace pacga::cga {

/// Per-worker counters, exposed because the paper's speedup metric is
/// "total evaluations across threads in a fixed wall budget" (eq. 5).
struct ThreadStats {
  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;  ///< full sweeps of the worker's share
  std::uint64_t replacements = 0; ///< offspring that entered the population
};

/// Runs the sequential CGA on `etc` per `config`. Deterministic: same seed,
/// same result. `config.threads` is ignored here; `config.update ==
/// kSynchronous` runs run_synchronous with one worker on the calling
/// thread. `observer` (optional) is called after every committed
/// generation from a quiescent point — checkpointing and streaming stats
/// hook in there. `cancel` (optional) is an external stop flag polled once
/// per generation; raising it ends the run early with the best-so-far
/// result (the service's job-cancellation path).
Result run_sequential(const etc::EtcMatrix& etc, const Config& config,
                      const GenerationObserver& observer = {},
                      const std::atomic<bool>* cancel = nullptr);

/// The synchronous update on `workers` workers (cell-parallel; the paper's
/// one-thread-per-cell future work, simulated on CPU). Each generation,
/// worker w breeds cells w, w+workers, ... from the frozen population
/// without locks, drawing from one RNG stream per (cell, generation) pair,
/// and stages the offspring; between two barriers worker 0 commits the
/// whole generation in cell order, records the trace, calls `observer`
/// (population quiescent) and takes the termination verdict for everyone.
/// Hence the result does not depend on `workers`, and the best is the
/// first minimum in (generation, cell) order. `config.sweep` and
/// `config.threads` are ignored; budgets and `cancel` are checked once per
/// generation, so the evaluation budget stops at a generation boundary.
/// One worker runs inline on the calling thread; more are spawned (and
/// pinned when `config.pin_threads`). Throws std::invalid_argument unless
/// 1 <= `workers` <= the population size. `stats` (optional) receives one
/// entry per worker: its evaluations, the replacements of its cells, and
/// the shared generation count.
Result run_synchronous(const etc::EtcMatrix& etc, const Config& config,
                       std::size_t workers,
                       const GenerationObserver& observer = {},
                       const std::atomic<bool>* cancel = nullptr,
                       std::vector<ThreadStats>* stats = nullptr);

namespace detail {

/// Builds the visiting order for one generation. For kUniformChoice the
/// returned order is a fresh uniform sample WITH replacement (paper's
/// "uniform choice" policy); all other policies are permutations.
/// (Compatibility wrapper over cga::fill_sweep_order; the engines use
/// SweepOrderCache and never reallocate.)
std::vector<std::size_t> make_sweep_order(SweepPolicy policy, std::size_t n,
                                          support::Xoshiro256& rng);

/// One breeding step on cell `index` (paper Algorithm 3 lines 3-8, minus
/// replacement): neighborhood -> selection -> recombination -> mutation ->
/// local search -> evaluation. Reads the population unsynchronized.
/// (Compatibility wrapper: allocates a fresh offspring per call. The
/// engines use cga::Breeder, which reuses buffers and allocates nothing.)
Individual breed(const Population& pop, std::size_t index,
                 const Config& config, support::Xoshiro256& rng,
                 std::vector<std::size_t>& neigh_scratch,
                 std::vector<double>& fit_scratch);

/// Applies `policy`: returns true when `offspring` should replace a cell
/// whose current fitness is `incumbent`.
bool should_replace(ReplacementPolicy policy, double offspring,
                    double incumbent) noexcept;

}  // namespace detail

}  // namespace pacga::cga
