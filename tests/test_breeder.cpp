// Breeder correctness and the zero-allocation guarantee.
//
//  * every in-place operator path is cross-checked against
//    Schedule::validate() (full completion-time recomputation);
//  * in-place crossover produces bit-identical offspring to the historical
//    by-value operators from the same RNG state;
//  * Breeder::breed_into reproduces detail::breed exactly;
//  * a steady-state breeding step (select -> crossover -> mutate -> H2LL
//    -> evaluate -> replace) performs ZERO heap allocations after warm-up,
//    counted by replacing every global allocation form (alloc_counter.hpp).
#include "cga/breeder.hpp"

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "cga/crossover.hpp"
#include "cga/engine.hpp"
#include "etc/suite.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 7) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

Config small_config() {
  Config c;
  c.width = 8;
  c.height = 8;
  c.local_search.iterations = 2;
  return c;
}

TEST(AssignFrom, CopiesAssignmentAndCache) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  const auto src = sched::Schedule::random(m, rng);
  sched::Schedule dst(m);  // degenerate all-on-machine-0 schedule
  dst.assign_from(src);
  EXPECT_EQ(dst, src);
  EXPECT_TRUE(dst.validate(1e-12));
  EXPECT_DOUBLE_EQ(dst.makespan(), src.makespan());
}

TEST(AssignFrom, ReusesCapacityWithoutAllocating) {
  const auto m = instance();
  support::Xoshiro256 rng(2);
  const auto a = sched::Schedule::random(m, rng);
  const auto b = sched::Schedule::random(m, rng);
  sched::Schedule dst = a;  // same shape: capacity is already right
  const std::uint64_t before = alloc_counter::count();
  dst.assign_from(b);
  dst.assign_from(a);
  EXPECT_EQ(alloc_counter::count(), before);
}

TEST(CrossoverInto, MatchesByValueOperators) {
  const auto m = instance();
  support::Xoshiro256 rng(3);
  const auto a = sched::Schedule::random(m, rng);
  const auto b = sched::Schedule::random(m, rng);
  for (auto kind : {CrossoverKind::kOnePoint, CrossoverKind::kTwoPoint,
                    CrossoverKind::kUniform}) {
    support::Xoshiro256 r1(99), r2(99);
    const auto by_value = crossover(kind, a, b, r1);
    sched::Schedule in_place(m);
    in_place.assign_from(a);
    crossover_into(kind, in_place, b, r2);
    EXPECT_EQ(in_place, by_value) << to_string(kind);
    EXPECT_TRUE(in_place.validate(1e-9)) << to_string(kind);
    EXPECT_EQ(r1(), r2()) << "RNG streams diverged for " << to_string(kind);
  }
}

TEST(Breeder, MatchesLegacyBreed) {
  const auto m = instance();
  const Config config = small_config();
  support::Xoshiro256 init(5);
  Grid grid(config.width, config.height);
  Population pop(m, grid, init, true, config.objective);

  Breeder breeder(m, config);
  Individual out(sched::Schedule(m), 0.0);
  std::vector<std::size_t> neigh;
  std::vector<double> fit;
  for (std::size_t cell = 0; cell < pop.size(); cell += 7) {
    support::Xoshiro256 r1(1000 + cell), r2(1000 + cell);
    const Individual legacy = detail::breed(pop, cell, config, r1, neigh, fit);
    breeder.breed_into(pop, cell, r2, out);
    EXPECT_EQ(out.schedule, legacy.schedule) << "cell " << cell;
    EXPECT_DOUBLE_EQ(out.fitness, legacy.fitness) << "cell " << cell;
    EXPECT_TRUE(out.schedule.validate(1e-9));
  }
}

TEST(Breeder, LockedMatchesUnsynchronized) {
  // Single-threaded, so the locked variant sees identical state; the two
  // paths must produce the same offspring from the same stream.
  const auto m = instance();
  const Config config = small_config();
  support::Xoshiro256 init(6);
  Grid grid(config.width, config.height);
  Population pop(m, grid, init, true, config.objective);

  Breeder breeder(m, config);
  Individual plain(sched::Schedule(m), 0.0);
  Individual locked(sched::Schedule(m), 0.0);
  for (std::size_t cell : {0u, 9u, 31u, 63u}) {
    support::Xoshiro256 r1(77 + cell), r2(77 + cell);
    breeder.breed_into(pop, cell, r1, plain);
    breeder.breed_locked_into(pop, cell, r2, locked);
    EXPECT_EQ(plain.schedule, locked.schedule) << "cell " << cell;
    EXPECT_DOUBLE_EQ(plain.fitness, locked.fitness);
  }
}

TEST(Breeder, SteadyStateBreedingStepAllocatesNothing) {
  // THE acceptance property of the refactor: after warm-up, one breeding
  // step (select -> crossover -> mutate -> H2LL -> evaluate -> replace)
  // performs zero heap allocations, in both the unsynchronized and the
  // locked form. Two shapes bred in turn on one thread prove that the
  // per-thread scratch (H2LL's task lists and machine order among it)
  // keeps its capacity across shapes instead of reallocating per shape.
  Config config = small_config();
  config.local_search.iterations = 10;  // paper configuration
  const auto small = instance();  // 128 x 16
  etc::GenSpec wide_spec;
  wide_spec.tasks = 256;
  wide_spec.machines = 32;
  wide_spec.consistency = etc::Consistency::kInconsistent;
  wide_spec.seed = 17;
  const auto wide = etc::generate(wide_spec);

  support::Xoshiro256 init(8);
  Population small_pop(small, Grid(config.width, config.height), init, true,
                       config.objective);
  Population wide_pop(wide, Grid(config.width, config.height), init, true,
                      config.objective);
  Breeder small_breeder(small, config);
  Breeder wide_breeder(wide, config);
  Individual small_out(sched::Schedule(small), 0.0);
  Individual wide_out(sched::Schedule(wide), 0.0);
  support::Xoshiro256 rng(9);

  auto steps = [&](Population& pop, Breeder& breeder, Individual& out,
                   bool locked, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t cell = i % pop.size();
      if (locked) {
        breeder.breed_locked_into(pop, cell, rng, out);
      } else {
        breeder.breed_into(pop, cell, rng, out);
      }
      if (detail::should_replace(config.replacement, out.fitness,
                                 pop.at(cell).fitness)) {
        Breeder::replace(pop.at(cell), out);
      }
    }
  };
  auto both_forms = [&](std::size_t count) {
    steps(small_pop, small_breeder, small_out, false, count);
    steps(wide_pop, wide_breeder, wide_out, false, count);
    steps(small_pop, small_breeder, small_out, true, count);
    steps(wide_pop, wide_breeder, wide_out, true, count);
  };

  both_forms(small_pop.size());  // warm-up: sizes every scratch buffer
  const std::uint64_t before = alloc_counter::count();
  both_forms(4 * small_pop.size());
  EXPECT_EQ(alloc_counter::count(), before)
      << "steady-state breeding steps must not touch the heap";
}

TEST(Breeder, SynchronousGenerationsAllocateNothing) {
  // The synchronous core preallocates its auxiliary population and draws
  // each (cell, generation) stream on the stack, so a run's allocation
  // count is the same however many generations it commits.
  const auto m = instance();
  Config config = small_config();
  config.local_search.iterations = 10;  // paper configuration
  config.update = UpdatePolicy::kSynchronous;
  auto allocations = [&](std::uint64_t generations) {
    config.termination = Termination::after_generations(generations);
    const std::uint64_t before = alloc_counter::count();
    (void)run_sequential(m, config);
    return alloc_counter::count() - before;
  };
  allocations(2);  // warm-up: sizes the thread-local operator scratch
  EXPECT_EQ(allocations(2), allocations(8))
      << "synchronous generations must not touch the heap";
}

TEST(Flowtime, AllocationFreeAfterWarmup) {
  // flowtime() groups per-machine ETCs with a counting sort into
  // thread-local scratch; once the scratch has seen the shape, repeated
  // evaluations must not touch the heap (it sits on the multi-objective
  // evaluation path).
  const auto m = instance();
  support::Xoshiro256 rng(13);
  const auto s = sched::Schedule::random(m, rng);
  const double first = s.flowtime();  // warm-up: sizes the scratch
  const std::uint64_t before = alloc_counter::count();
  bool stable = true;
  for (int i = 0; i < 50; ++i) stable = stable && (s.flowtime() == first);
  EXPECT_EQ(alloc_counter::count(), before)
      << "steady-state flowtime must not touch the heap";
  EXPECT_TRUE(stable) << "flowtime must be deterministic";
}

TEST(BestTracker, ObserveDoesNotAllocateAfterConstruction) {
  const auto m = instance();
  support::Xoshiro256 rng(11);
  BestTracker best(
      Individual::evaluated(sched::Schedule::random(m, rng),
                            sched::Objective::kMakespan));
  Individual candidate =
      Individual::evaluated(sched::Schedule::random(m, rng),
                            sched::Objective::kMakespan);
  const std::uint64_t before = alloc_counter::count();
  for (int i = 0; i < 100; ++i) {
    candidate.fitness = best.fitness() - 1.0;  // always an improvement
    best.observe(candidate);
  }
  EXPECT_EQ(alloc_counter::count(), before);
}

}  // namespace
}  // namespace pacga::cga
