// Engine-equivalence golden tests for the shared Breeder/loop core.
//
// The refactor's contract: rebasing the evolution loops on the shared
// core changed ZERO observable behavior. These tests pin that contract —
//  * the asynchronous run_sequential reproduces a hand-rolled reference
//    loop written the way the engines were before the refactor (legacy
//    detail::breed + manual bookkeeping), gene for gene;
//  * the synchronous update — run_sequential and run_parallel at any
//    thread count — reproduces one hand-rolled generational reference
//    loop gene for gene, seeded and unseeded;
//  * the asynchronous engines are individually deterministic on a fixed
//    seed;
//  * Config::lambda reaches the evaluation (weighted objective with
//    lambda = 1 is numerically the makespan objective, so the whole
//    trajectory must match);
//  * the per-generation observer fires with consistent accounting in all
//    engines;
//  * warm seeding (Config::warm_seed) places the seed verbatim in the
//    documented cell of the initial population, perturbs nothing else, and
//    a seeded run reproduces the hand-rolled seeded reference gene for
//    gene.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "cga/engine.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "pacga/parallel_engine.hpp"
#include "sched/schedule.hpp"
#include "support/timer.hpp"

namespace pacga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 31) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

cga::Config fast_config() {
  cga::Config c;
  c.width = 8;
  c.height = 8;
  c.termination = cga::Termination::after_generations(8);
  c.local_search.iterations = 2;
  return c;
}

/// The asynchronous sequential loop exactly as it was written before the
/// shared core: fresh allocations per step, manual best/termination/trace
/// bookkeeping.
cga::Result reference_sequential(const etc::EtcMatrix& etc,
                                 const cga::Config& config) {
  config.validate();
  support::Xoshiro256 rng(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(etc, grid, rng, config.seed_min_min, config.objective,
                      config.lambda);
  const std::size_t n = pop.size();
  if (!config.warm_seed.empty()) {
    // Hand-rolled warm injection, written out the way the engines document
    // it: cell 1 when Min-min holds cell 0, cell 0 otherwise — BEFORE the
    // initial best is taken.
    const std::size_t cell = config.seed_min_min && n > 1 ? 1 : 0;
    pop.seed_cell(cell, etc, config.warm_seed, config.objective,
                  config.lambda);
  }

  cga::Individual best = pop.at(pop.best_index());
  support::WallTimer timer;
  const support::Deadline deadline(config.termination.wall_seconds);

  std::vector<std::size_t> neigh;
  std::vector<double> fit;
  std::vector<std::size_t> order =
      cga::detail::make_sweep_order(config.sweep, n, rng);

  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  bool stop = false;

  while (!stop) {
    if (config.sweep == cga::SweepPolicy::kNewShuffle ||
        config.sweep == cga::SweepPolicy::kUniformChoice) {
      order = cga::detail::make_sweep_order(config.sweep, n, rng);
    }

    for (std::size_t idx : order) {
      cga::Individual offspring =
          cga::detail::breed(pop, idx, config, rng, neigh, fit);
      ++evaluations;
      if (offspring.fitness < best.fitness) best = offspring;
      if (cga::detail::should_replace(config.replacement, offspring.fitness,
                                      pop.at(idx).fitness)) {
        pop.at(idx) = std::move(offspring);
      }
      if (evaluations >= config.termination.max_evaluations) {
        stop = true;
        break;
      }
    }

    ++generations;
    if (deadline.expired()) stop = true;
    if (generations >= config.termination.max_generations) stop = true;
  }

  cga::Result result{std::move(best.schedule)};
  result.best_fitness = best.fitness;
  result.evaluations = evaluations;
  result.generations = generations;
  return result;
}

class UpdatePolicyEquivalence
    : public ::testing::TestWithParam<cga::UpdatePolicy> {};

TEST_P(UpdatePolicyEquivalence, RefactoredEngineMatchesLegacyLoop) {
  const auto m = instance();
  for (std::uint64_t seed : {1ull, 17ull, 131ull}) {
    cga::Config c = fast_config();
    c.update = GetParam();
    c.seed = seed;
    const auto refactored = cga::run_sequential(m, c);
    const auto legacy = reference_sequential(m, c);
    EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness)
        << "seed " << seed;
    EXPECT_EQ(refactored.best.hamming_distance(legacy.best), 0u)
        << "seed " << seed;
    EXPECT_EQ(refactored.evaluations, legacy.evaluations);
    EXPECT_EQ(refactored.generations, legacy.generations);
  }
}

TEST_P(UpdatePolicyEquivalence, SeededRunMatchesLegacyLoopGeneForGene) {
  // Warm seeding must not change anything about the trajectory except the
  // contents of the seeded cell: a seeded engine run reproduces the seeded
  // legacy loop exactly, and the result is never worse than the seed.
  const auto m = instance();
  support::Xoshiro256 seed_rng(77);
  const auto warm = sched::Schedule::random(m, seed_rng);
  for (std::uint64_t seed : {5ull, 97ull}) {
    cga::Config c = fast_config();
    c.update = GetParam();
    c.seed = seed;
    c.warm_seed.assign(warm.assignment().begin(), warm.assignment().end());
    const auto refactored = cga::run_sequential(m, c);
    const auto legacy = reference_sequential(m, c);
    EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness)
        << "seed " << seed;
    EXPECT_EQ(refactored.best.hamming_distance(legacy.best), 0u)
        << "seed " << seed;
    EXPECT_EQ(refactored.evaluations, legacy.evaluations);
    EXPECT_EQ(refactored.generations, legacy.generations);
    EXPECT_LE(refactored.best_fitness, warm.makespan());
  }
}

// The synchronous update has its own reference (SynchronousEngine below).
INSTANTIATE_TEST_SUITE_P(Async, UpdatePolicyEquivalence,
                         ::testing::Values(cga::UpdatePolicy::kAsynchronous),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

/// The synchronous update written out by hand: every cell breeds from the
/// frozen population with its own (cell, generation) stream, then the
/// generation commits in cell order; the best is the first minimum in
/// (generation, cell) order, and budgets are checked once per generation.
/// No worker count appears: the engine must match this loop for all.
cga::Result reference_synchronous(const etc::EtcMatrix& etc,
                                  const cga::Config& config) {
  support::Xoshiro256 init(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(etc, grid, init, config.seed_min_min, config.objective,
                      config.lambda);
  const std::size_t n = pop.size();
  if (!config.warm_seed.empty()) {
    const std::size_t cell = config.seed_min_min && n > 1 ? 1 : 0;
    pop.seed_cell(cell, etc, config.warm_seed, config.objective,
                  config.lambda);
  }
  cga::Individual best = pop.at(pop.best_index());
  const support::Deadline deadline(config.termination.wall_seconds);

  std::vector<std::size_t> neigh;
  std::vector<double> fit;
  std::vector<cga::Individual> staged;
  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  bool stop = false;
  while (!stop) {
    staged.clear();
    for (std::size_t cell = 0; cell < n; ++cell) {
      support::SplitMix64 mix(config.seed ^
                              (cell * 0x9e3779b97f4a7c15ULL) ^
                              (generations * 0xc2b2ae3d27d4eb4fULL));
      support::Xoshiro256 rng(mix.next());
      staged.push_back(cga::detail::breed(pop, cell, config, rng, neigh, fit));
    }
    for (std::size_t cell = 0; cell < n; ++cell) {
      if (staged[cell].fitness < best.fitness) best = staged[cell];
      if (cga::detail::should_replace(config.replacement,
                                      staged[cell].fitness,
                                      pop.at(cell).fitness)) {
        pop.at(cell) = std::move(staged[cell]);
      }
    }
    evaluations += n;
    ++generations;
    stop = deadline.expired() ||
           generations >= config.termination.max_generations ||
           evaluations >= config.termination.max_evaluations;
  }

  cga::Result result{std::move(best.schedule)};
  result.best_fitness = best.fitness;
  result.evaluations = evaluations;
  result.generations = generations;
  return result;
}

void expect_same_run(const cga::Result& engine, const cga::Result& reference,
                     const std::string& where) {
  EXPECT_DOUBLE_EQ(engine.best_fitness, reference.best_fitness) << where;
  EXPECT_EQ(engine.best.hamming_distance(reference.best), 0u) << where;
  EXPECT_EQ(engine.evaluations, reference.evaluations) << where;
  EXPECT_EQ(engine.generations, reference.generations) << where;
}

TEST(SynchronousEngine, BothEntryPointsMatchReferenceForAnyThreadCount) {
  // One synchronous model: run_sequential (one inline worker) and
  // run_parallel (config.threads workers) reproduce the hand-rolled
  // generational loop gene for gene, seeded and unseeded.
  const auto m = instance();
  support::Xoshiro256 seed_rng(77);
  const auto warm = sched::Schedule::random(m, seed_rng);
  for (bool seeded : {false, true}) {
    for (std::uint64_t seed : {1ull, 17ull, 131ull}) {
      cga::Config c = fast_config();
      c.update = cga::UpdatePolicy::kSynchronous;
      c.seed = seed;
      if (seeded) {
        c.warm_seed.assign(warm.assignment().begin(),
                           warm.assignment().end());
      }
      const std::string run = "seed " + std::to_string(seed) +
                              (seeded ? " seeded" : " unseeded");
      const auto reference = reference_synchronous(m, c);
      expect_same_run(cga::run_sequential(m, c), reference,
                      run + " run_sequential");
      for (std::size_t threads : {1, 2, 3, 4, 8}) {
        c.threads = threads;
        expect_same_run(par::run_parallel(m, c).result, reference,
                        run + " run_parallel threads " +
                            std::to_string(threads));
      }
      if (seeded) {
        EXPECT_LE(reference.best_fitness, warm.makespan()) << run;
      }
    }
  }
}

TEST(SynchronousEngine, CancelEndsTheRunFromBothEntryPoints) {
  // The observer raises the flag after generation 3; worker 0 polls it at
  // that generation's verdict, so both entry points stop right there.
  const auto m = instance();
  cga::Config c = fast_config();
  c.update = cga::UpdatePolicy::kSynchronous;
  c.termination = cga::Termination::after_generations(100);
  c.threads = 3;
  auto cancel_at_3 = [](std::atomic<bool>& flag) {
    return [&flag](const cga::GenerationEvent& e) {
      if (e.generation == 3) flag.store(true);
    };
  };
  std::atomic<bool> seq_flag{false};
  const auto seq = cga::run_sequential(m, c, cancel_at_3(seq_flag), &seq_flag);
  EXPECT_EQ(seq.generations, 3u);
  EXPECT_EQ(seq.evaluations, 3u * 64u);

  std::atomic<bool> par_flag{false};
  const auto parallel =
      par::run_parallel(m, c, cancel_at_3(par_flag), &par_flag);
  EXPECT_EQ(parallel.result.generations, 3u);
  for (const auto& t : parallel.threads) EXPECT_EQ(t.generations, 3u);
  expect_same_run(parallel.result, seq, "cancelled run_parallel");

  // A flag raised before the run still lets the first generation commit.
  std::atomic<bool> raised{true};
  EXPECT_EQ(cga::run_sequential(m, c, {}, &raised).generations, 1u);
  EXPECT_EQ(par::run_parallel(m, c, {}, &raised).result.generations, 1u);
}

TEST(SynchronousEngine, RejectsWorkerCountOutsidePopulation) {
  const auto m = instance();
  cga::Config c = fast_config();  // 64 cells
  EXPECT_THROW(cga::run_synchronous(m, c, 0), std::invalid_argument);
  EXPECT_THROW(cga::run_synchronous(m, c, 65), std::invalid_argument);
  EXPECT_EQ(cga::run_synchronous(m, c, 64).generations, 8u);
}

TEST(EngineEquivalence, SweepPoliciesMatchLegacyLoop) {
  const auto m = instance();
  for (auto sweep :
       {cga::SweepPolicy::kReverseSweep, cga::SweepPolicy::kFixedShuffle,
        cga::SweepPolicy::kNewShuffle, cga::SweepPolicy::kUniformChoice}) {
    cga::Config c = fast_config();
    c.sweep = sweep;
    c.seed = 23;
    const auto refactored = cga::run_sequential(m, c);
    const auto legacy = reference_sequential(m, c);
    EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness)
        << to_string(sweep);
    EXPECT_EQ(refactored.best.hamming_distance(legacy.best), 0u)
        << to_string(sweep);
  }
}

TEST(EngineEquivalence, MidSweepEvaluationBudgetMatchesLegacyLoop) {
  const auto m = instance();
  cga::Config c = fast_config();
  c.termination = cga::Termination::after_evaluations(100);  // mid-sweep
  const auto refactored = cga::run_sequential(m, c);
  const auto legacy = reference_sequential(m, c);
  EXPECT_EQ(refactored.evaluations, 100u);
  EXPECT_EQ(refactored.evaluations, legacy.evaluations);
  EXPECT_EQ(refactored.generations, legacy.generations);
  EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness);
}

TEST(EngineEquivalence, AsyncEnginesPinnedOnFixedSeed) {
  // Each asynchronous engine is deterministic on a fixed seed: run twice,
  // compare everything. (The engines use different RNG stream layouts by
  // design, so they are pinned individually, not against each other.)
  const auto m = instance(47);
  cga::Config c = fast_config();
  c.seed = 2026;
  c.threads = 1;

  const auto s1 = cga::run_sequential(m, c);
  const auto s2 = cga::run_sequential(m, c);
  EXPECT_DOUBLE_EQ(s1.best_fitness, s2.best_fitness);
  EXPECT_EQ(s1.best.hamming_distance(s2.best), 0u);

  const auto p1 = par::run_parallel(m, c);
  const auto p2 = par::run_parallel(m, c);
  EXPECT_DOUBLE_EQ(p1.result.best_fitness, p2.result.best_fitness);
  EXPECT_EQ(p1.result.best.hamming_distance(p2.result.best), 0u);

  // Both search the same landscape from the same Min-min seed; their
  // qualities must be in the same ballpark.
  EXPECT_LT(p1.result.best_fitness, s1.best_fitness * 1.25);
  EXPECT_LT(s1.best_fitness, p1.result.best_fitness * 1.25);
}

TEST(EngineEquivalence, LambdaReachesEvaluation) {
  // lambda = 1 makes the weighted objective numerically equal to makespan,
  // so the full search trajectory must coincide with a makespan run.
  const auto m = instance();
  cga::Config makespan = fast_config();
  makespan.objective = sched::Objective::kMakespan;
  cga::Config weighted = fast_config();
  weighted.objective = sched::Objective::kWeightedMakespanFlowtime;
  weighted.lambda = 1.0;
  const auto rm = cga::run_sequential(m, makespan);
  const auto rw = cga::run_sequential(m, weighted);
  EXPECT_DOUBLE_EQ(rm.best_fitness, rw.best_fitness);
  EXPECT_EQ(rm.best.hamming_distance(rw.best), 0u);

  // And different lambdas genuinely change the search.
  cga::Config half = fast_config();
  half.objective = sched::Objective::kWeightedMakespanFlowtime;
  half.lambda = 0.5;
  const auto rh = cga::run_sequential(m, half);
  EXPECT_NE(rh.best_fitness, rw.best_fitness);
}

TEST(EngineEquivalence, ObserverFiresPerGenerationInAllEngines) {
  const auto m = instance();
  cga::Config c = fast_config();
  c.threads = 2;

  std::uint64_t seq_calls = 0;
  std::uint64_t last_evals = 0;
  const auto rs = cga::run_sequential(m, c, [&](const cga::GenerationEvent& e) {
    ++seq_calls;
    EXPECT_EQ(e.generation, seq_calls);
    EXPECT_GT(e.evaluations, last_evals);
    last_evals = e.evaluations;
    EXPECT_GT(e.best_fitness, 0.0);
    EXPECT_EQ(e.population.size(), 64u);
  });
  EXPECT_EQ(seq_calls, rs.generations);
  EXPECT_EQ(last_evals, rs.evaluations);

  std::uint64_t sync_calls = 0;
  cga::Config sync = c;
  sync.update = cga::UpdatePolicy::kSynchronous;
  const auto rsync =
      par::run_parallel(m, sync, [&](const cga::GenerationEvent& e) {
        ++sync_calls;
        EXPECT_EQ(e.generation, sync_calls);
        EXPECT_EQ(e.evaluations, sync_calls * 64u);
      });
  EXPECT_EQ(sync_calls, rsync.result.generations);

  std::uint64_t par_calls = 0;
  par::run_parallel(m, c, [&](const cga::GenerationEvent& e) {
    ++par_calls;
    EXPECT_GT(e.evaluations, 0u);
  });
  EXPECT_GT(par_calls, 0u);
}

TEST(EngineEquivalence, WarmSeedPresentVerbatimInInitialPopulation) {
  // apply_warm_seed is THE injection point every engine routes through:
  // the seed lands gene-for-gene in the documented cell, the Min-min
  // individual survives in cell 0, and an empty seed is a no-op.
  const auto m = instance();
  support::Xoshiro256 seed_rng(5);
  const auto warm = sched::Schedule::random(m, seed_rng);

  for (bool min_min : {true, false}) {
    cga::Config c = fast_config();
    c.seed_min_min = min_min;
    c.warm_seed.assign(warm.assignment().begin(), warm.assignment().end());
    support::Xoshiro256 init(c.seed);
    cga::Grid grid(c.width, c.height);
    cga::Population pop(m, grid, init, c.seed_min_min, c.objective,
                        c.lambda);
    const std::size_t cell = cga::apply_warm_seed(pop, m, c);
    EXPECT_EQ(cell, cga::warm_seed_cell(min_min, pop.size()));
    const cga::Individual& seeded = pop.at(cell);
    EXPECT_EQ(seeded.schedule.hamming_distance(warm), 0u);
    EXPECT_DOUBLE_EQ(seeded.fitness, warm.makespan());
    if (min_min) {
      // Both survive: the heuristic seed keeps cell 0.
      EXPECT_DOUBLE_EQ(pop.at(0).fitness, heur::min_min(m).makespan());
    }
  }

  cga::Config empty = fast_config();
  support::Xoshiro256 init(empty.seed);
  cga::Grid grid(empty.width, empty.height);
  cga::Population pop(m, grid, init, empty.seed_min_min, empty.objective,
                      empty.lambda);
  EXPECT_EQ(cga::apply_warm_seed(pop, m, empty), pop.size());
}

TEST(EngineEquivalence, MalformedWarmSeedThrows) {
  // A wrong-length or out-of-range seed must be rejected loudly (the
  // Schedule::adopt checks), not silently clamped or truncated.
  const auto m = instance();
  cga::Config short_seed = fast_config();
  short_seed.warm_seed.assign(m.tasks() - 1, sched::MachineId{0});
  EXPECT_THROW(cga::run_sequential(m, short_seed), std::invalid_argument);

  cga::Config bad_machine = fast_config();
  bad_machine.warm_seed.assign(
      m.tasks(), static_cast<sched::MachineId>(m.machines()));
  EXPECT_THROW(cga::run_sequential(m, bad_machine), std::invalid_argument);
}

}  // namespace
}  // namespace pacga
