// PA-CGA — the paper's contribution (§3.2, Algorithms 2 & 3).
//
// The population grid is split into contiguous row-major blocks, one per
// thread. Threads evolve their block asynchronously: no generation barrier,
// a fixed line sweep inside each block, and immediate (asynchronous)
// replacement. Neighborhoods cross block boundaries, so every access to an
// individual that may be shared is guarded by that cell's read-write lock:
//   * fitness snapshot of each neighbor        — shared (read) lock;
//   * copy of each selected parent             — shared (read) lock;
//   * replacement of the thread's own cell     — exclusive (write) lock.
// Locks are taken one at a time (never nested), so the scheme is trivially
// deadlock-free. Breeding (crossover, mutation, H2LL, evaluation) runs on
// private copies outside any lock — exactly the property the paper exploits
// to scale: more local-search iterations means a larger unsynchronized
// fraction (Figure 4).
//
// The synchronous update is not implemented here: run_parallel hands it to
// cga::run_synchronous, the one cell-parallel core it shares with
// cga::run_sequential.
#pragma once

#include <cstdint>
#include <vector>

#include "cga/config.hpp"
#include "cga/engine.hpp"
#include "cga/loop.hpp"
#include "etc/etc_matrix.hpp"

namespace pacga::par {

using cga::ThreadStats;

/// Result of a PA-CGA run plus per-thread accounting.
struct ParallelResult {
  cga::Result result;
  std::vector<ThreadStats> threads;

  /// Sum of evaluations across threads (the Figure 4 numerator).
  std::uint64_t total_evaluations() const noexcept;
};

/// Runs PA-CGA with `config.threads` threads on `etc`.
///
/// Termination: wall clock is checked by every thread after each full block
/// sweep (the paper's coarse-grained approximation); `max_generations`
/// bounds each thread's own sweep count; `max_evaluations` bounds the
/// global evaluation total (checked per sweep).
///
/// Warm seeding: a non-empty `config.warm_seed` is injected into one cell
/// of the initial population (cga::apply_warm_seed) before the workers
/// start AND before the initial best is recorded, so a seeded run's result
/// is never worse than the seed by construction — the service's dynamic
/// rescheduling path relies on this instead of clamping after the fact.
///
/// With `config.threads == 1` this is the canonical asynchronous CGA of
/// §3.1 (same algorithm as cga::run_sequential, modulo lock overhead).
///
/// `config.update == kSynchronous` selects the generational variant the
/// paper contrasts against (§3.1): cga::run_synchronous with
/// `config.threads` workers, so the result is the same gene for gene as
/// cga::run_sequential's for any thread count, and `config.sweep` is
/// ignored. Every ThreadStats entry then carries the shared generation
/// count.
/// `observer` (optional) runs on thread 0 after each of ITS block sweeps.
/// In the asynchronous mode the population is live — observers must take
/// the per-cell locks for anything they read from it; in the synchronous
/// mode it runs between barriers (quiescent).
/// `cancel` (optional) is an external stop flag every thread polls at its
/// per-block-sweep termination check; raising it ends the run within one
/// block sweep per thread (one generation in the synchronous mode; the
/// service's job-cancellation path).
ParallelResult run_parallel(const etc::EtcMatrix& etc,
                            const cga::Config& config,
                            const cga::GenerationObserver& observer = {},
                            const std::atomic<bool>* cancel = nullptr);

}  // namespace pacga::par
