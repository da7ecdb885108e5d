#include "cga/engine.hpp"

#include <stdexcept>

#include "cga/breeder.hpp"
#include "cga/neighborhood.hpp"
#include "cga/selection.hpp"
#include "support/threading.hpp"

namespace pacga::cga {

namespace detail {

std::vector<std::size_t> make_sweep_order(SweepPolicy policy, std::size_t n,
                                          support::Xoshiro256& rng) {
  std::vector<std::size_t> order;
  fill_sweep_order(policy, n, order, rng);
  return order;
}

Individual breed(const Population& pop, std::size_t index,
                 const Config& config, support::Xoshiro256& rng,
                 std::vector<std::size_t>& neigh_scratch,
                 std::vector<double>& fit_scratch) {
  neighborhood_of(pop.grid(), index, config.neighborhood, neigh_scratch);
  fit_scratch.clear();
  for (std::size_t cell : neigh_scratch) {
    fit_scratch.push_back(pop.at(cell).fitness);
  }
  const auto [pa_pos, pb_pos] =
      select_parents(config.selection, fit_scratch, rng);
  Individual child(pop.at(neigh_scratch[pa_pos]).schedule, 0.0);
  vary_and_evaluate(child, pop.at(neigh_scratch[pb_pos]).schedule, config,
                    rng);
  return child;
}

bool should_replace(ReplacementPolicy policy, double offspring,
                    double incumbent) noexcept {
  switch (policy) {
    case ReplacementPolicy::kReplaceIfBetter:
      return offspring < incumbent;
    case ReplacementPolicy::kAlways:
      return true;
  }
  return false;
}

}  // namespace detail

namespace {

/// Deterministic stream for one (cell, generation) pair: which worker
/// breeds the cell must not matter.
support::Xoshiro256 cell_stream(std::uint64_t seed, std::size_t cell,
                                std::uint64_t generation) {
  support::SplitMix64 mix(seed ^ (cell * 0x9e3779b97f4a7c15ULL) ^
                          (generation * 0xc2b2ae3d27d4eb4fULL));
  return support::Xoshiro256(mix.next());
}

}  // namespace

Result run_sequential(const etc::EtcMatrix& etc, const Config& config,
                      const GenerationObserver& observer,
                      const std::atomic<bool>* cancel) {
  if (config.update == UpdatePolicy::kSynchronous) {
    return run_synchronous(etc, config, 1, observer, cancel);
  }
  config.validate();
  support::Xoshiro256 rng(config.seed);
  Grid grid(config.width, config.height);
  Population pop(etc, grid, rng, config.seed_min_min, config.objective,
                 config.lambda);
  apply_warm_seed(pop, etc, config);

  // The shared core. Everything below is preallocated once; the breeding
  // loop itself performs no heap allocation.
  TerminationController termination(config.termination);
  termination.bind_stop_flag(cancel);
  BestTracker best(pop.at(pop.best_index()));
  TraceRecorder trace(config.collect_trace);
  Breeder breeder(etc, config);
  SweepOrderCache order(config.sweep, pop.size(), rng);
  Individual scratch(sched::Schedule(etc), 0.0);

  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  trace.sample(generations, termination.elapsed_seconds(), pop);

  run_sweep_loop(
      order, rng,
      [&](std::size_t idx) {  // one breeding step
        breeder.breed_into(pop, idx, rng, scratch);
        best.observe(scratch);
        if (detail::should_replace(config.replacement, scratch.fitness,
                                   pop.at(idx).fitness)) {
          Breeder::replace(pop.at(idx), scratch);
        }
        ++evaluations;
        return termination.evaluations_exhausted(evaluations);
      },
      [&] {  // end of sweep
        ++generations;
        trace.sample(generations, termination.elapsed_seconds(), pop);
        if (observer) {
          observer({generations, evaluations, termination.elapsed_seconds(),
                    best.fitness(), pop});
        }
        // Wall-clock and generation budgets once per generation — the
        // paper's coarse-grained approximation (Algorithm 3 checks after
        // the block sweep).
        return termination.sweep_done(generations, evaluations);
      });

  Individual winner = best.take();
  Result result{std::move(winner.schedule)};
  result.best_fitness = winner.fitness;
  result.evaluations = evaluations;
  result.generations = generations;
  result.elapsed_seconds = termination.elapsed_seconds();
  result.trace = trace.take();
  return result;
}

Result run_synchronous(const etc::EtcMatrix& etc, const Config& config,
                       std::size_t workers, const GenerationObserver& observer,
                       const std::atomic<bool>* cancel,
                       std::vector<ThreadStats>* stats) {
  config.validate();
  if (workers == 0 || workers > config.population_size()) {
    throw std::invalid_argument(
        "run_synchronous: workers must be in [1, population size]");
  }
  support::Xoshiro256 init_rng(config.seed);
  Grid grid(config.width, config.height);
  Population pop(etc, grid, init_rng, config.seed_min_min, config.objective,
                 config.lambda);
  apply_warm_seed(pop, etc, config);
  const std::size_t n = pop.size();

  TerminationController termination(config.termination);
  termination.bind_stop_flag(cancel);
  BestTracker best(pop.at(pop.best_index()));
  TraceRecorder trace(config.collect_trace);
  // The auxiliary population, preallocated once: staged[c] holds the
  // offspring bred for cell c this generation.
  std::vector<Individual> staged;
  staged.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    staged.emplace_back(sched::Schedule(etc), 0.0);
  }

  std::vector<support::Padded<ThreadStats>> counts(workers);
  // Written by worker 0 between the two barriers, read by every worker
  // after them: the barriers order all accesses.
  std::uint64_t generation = 0;
  bool stop = false;
  support::Barrier barrier(workers);
  trace.sample(generation, termination.elapsed_seconds(), pop);

  auto worker = [&](std::size_t w) {
    if (config.pin_threads && workers > 1) support::pin_current_thread(w);
    ThreadStats& mine = counts[w].value;
    Breeder breeder(etc, config);
    while (!stop) {
      // Breed phase: the population is read-only until the barrier.
      for (std::size_t cell = w; cell < n; cell += workers) {
        support::Xoshiro256 rng = cell_stream(config.seed, cell, generation);
        breeder.breed_into(pop, cell, rng, staged[cell]);
        ++mine.evaluations;
      }
      barrier.arrive_and_wait();  // every offspring staged

      if (w == 0) {
        // Commit phase: serial and in cell order, so the result does not
        // depend on the worker count.
        for (std::size_t cell = 0; cell < n; ++cell) {
          best.observe(staged[cell]);
          if (detail::should_replace(config.replacement, staged[cell].fitness,
                                     pop.at(cell).fitness)) {
            Breeder::replace(pop.at(cell), staged[cell]);
            ++counts[cell % workers].value.replacements;
          }
        }
        ++generation;
        const std::uint64_t evaluations = generation * n;
        trace.sample(generation, termination.elapsed_seconds(), pop);
        if (observer) {
          observer({generation, evaluations, termination.elapsed_seconds(),
                    best.fitness(), pop});
        }
        // One verdict for everyone, or the workers would disagree near the
        // deadline and deadlock at the next barrier.
        stop = termination.sweep_done(generation, evaluations);
      }
      barrier.arrive_and_wait();  // commit and verdict visible
    }
  };
  if (workers == 1) {
    worker(0);
  } else {
    support::ScopedThreads threads(workers, worker);
  }

  Individual winner = best.take();
  Result result{std::move(winner.schedule)};
  result.best_fitness = winner.fitness;
  result.evaluations = generation * n;
  result.generations = generation;
  result.elapsed_seconds = termination.elapsed_seconds();
  result.trace = trace.take();
  if (stats) {
    stats->clear();
    for (auto& c : counts) {
      c.value.generations = generation;
      stats->push_back(c.value);
    }
  }
  return result;
}

}  // namespace pacga::cga
