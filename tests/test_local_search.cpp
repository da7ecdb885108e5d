#include "cga/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "support/kernels.hpp"
#include "support/stats.hpp"

#include "etc/suite.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 31) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

// --- reference H2LL -------------------------------------------------------
// The operator as it was before it kept state across passes: every pass
// rescans all tasks with a reservoir draw per task on the most loaded
// machine and reselects the candidates with nth_element. Kept verbatim as
// the reference arm of the equivalence wall below.

std::size_t reference_random_task(const sched::Schedule& s,
                                  sched::MachineId m,
                                  support::Xoshiro256& rng) {
  std::size_t chosen = s.tasks();
  std::size_t seen = 0;
  for (std::size_t t = 0; t < s.tasks(); ++t) {
    if (s.machine_of(t) != m) continue;
    ++seen;
    if (rng.index(seen) == 0) chosen = t;
  }
  return chosen;
}

void reference_least_loaded(const sched::Schedule& s, std::size_t k,
                            std::vector<std::uint32_t>& cand) {
  const std::size_t machines = s.machines();
  cand.resize(machines);
  std::iota(cand.begin(), cand.end(), std::uint32_t{0});
  const auto lighter = [&](std::uint32_t a, std::uint32_t b) {
    const double ca = s.completion(a);
    const double cb = s.completion(b);
    return ca < cb || (ca == cb && a < b);
  };
  if (k < machines) {
    std::nth_element(cand.begin(),
                     cand.begin() + static_cast<std::ptrdiff_t>(k), cand.end(),
                     lighter);
  }
  std::sort(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(k));
}

void reference_h2ll(sched::Schedule& s, const H2LLParams& params,
                    support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0
          ? machines / 2
          : std::min(params.candidates, machines - 1);
  std::vector<std::uint32_t> cand;
  for (std::size_t it = 0; it < params.iterations; ++it) {
    const std::size_t most_loaded =
        support::kernels::argmax(s.completions().data(), machines);
    const std::size_t task = reference_random_task(
        s, static_cast<sched::MachineId>(most_loaded), rng);
    if (task == s.tasks()) continue;
    reference_least_loaded(s, n_candidates, cand);
    double best_score = s.completion(most_loaded);
    std::size_t best_mac = machines;
    for (std::size_t c = 0; c < n_candidates; ++c) {
      const std::size_t mac = cand[c];
      if (mac == most_loaded) continue;
      const double new_score = s.completion(mac) + s.etc()(task, mac);
      if (new_score < best_score) {
        best_score = new_score;
        best_mac = mac;
      }
    }
    if (best_mac != machines) {
      s.move_task(task, static_cast<sched::MachineId>(best_mac));
    }
  }
}

/// Runs h2ll and the reference from the same schedule and RNG state and
/// returns the number of mismatches (assignment, cache coherence, or the
/// RNG output that follows), reporting the first through gtest.
int h2ll_mismatches(const sched::Schedule& base, const H2LLParams& params,
                    std::uint64_t seed) {
  support::Xoshiro256 r_new(seed), r_ref(seed);
  auto s_new = base;
  auto s_ref = base;
  h2ll(s_new, params, r_new);
  reference_h2ll(s_ref, params, r_ref);
  const bool same =
      s_new == s_ref && s_new.validate(1e-9) && r_new() == r_ref();
  EXPECT_TRUE(same) << "iterations " << params.iterations << ", candidates "
                    << params.candidates << ", seed " << seed;
  return same ? 0 : 1;
}

/// Every iteration count 1..25 crossed with every candidate count
/// (0 = machines/2, then 1..machines-1).
int sweep_mismatches(const sched::Schedule& base, std::uint64_t seed) {
  int bad = 0;
  for (std::size_t it = 1; it <= 25; ++it) {
    for (std::size_t k = 0; k < base.machines(); ++k) {
      bad += h2ll_mismatches(base, {it, k}, seed + 101 * it + k);
      if (bad > 0) return bad;
    }
  }
  return bad;
}

TEST(H2LL, NeverWorsensMakespan) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  for (int i = 0; i < 50; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    h2ll(s, {5, 0}, rng);
    EXPECT_LE(s.makespan(), before);
    EXPECT_TRUE(s.validate());
  }
}

TEST(H2LL, UsuallyImprovesRandomSchedules) {
  const auto m = instance();
  support::Xoshiro256 rng(2);
  int improved = 0;
  for (int i = 0; i < 50; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    h2ll(s, {10, 0}, rng);
    improved += (s.makespan() < before);
  }
  // Random schedules are badly unbalanced; H2LL should fix most.
  EXPECT_GT(improved, 40);
}

TEST(H2LL, MoreIterationsNeverHurtOnAverage) {
  const auto m = instance();
  support::RunningStats few, many;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    support::Xoshiro256 r1(seed), r2(seed);
    auto s1 = sched::Schedule::random(m, r1);
    auto s2 = s1;
    h2ll(s1, {2, 0}, r1);
    h2ll(s2, {20, 0}, r2);
    few.add(s1.makespan());
    many.add(s2.makespan());
  }
  EXPECT_LE(many.mean(), few.mean());
}

TEST(H2LL, ZeroIterationsIsIdentity) {
  const auto m = instance();
  support::Xoshiro256 rng(3);
  auto s = sched::Schedule::random(m, rng);
  const auto before = s;
  h2ll(s, {0, 0}, rng);
  EXPECT_EQ(s.hamming_distance(before), 0u);
}

TEST(H2LL, MovesOnlyTasksFromMostLoadedMachine) {
  const auto m = instance();
  support::Xoshiro256 rng(4);
  auto s = sched::Schedule::random(m, rng);
  const auto loaded = s.argmax_machine();
  const auto before = s;
  h2ll(s, {1, 0}, rng);
  // Exactly zero or one gene changed, and if one, it left `loaded`.
  const auto d = s.hamming_distance(before);
  ASSERT_LE(d, 1u);
  if (d == 1) {
    for (std::size_t t = 0; t < s.tasks(); ++t) {
      if (s.machine_of(t) != before.machine_of(t)) {
        EXPECT_EQ(before.machine_of(t), loaded);
        EXPECT_NE(s.machine_of(t), loaded);
      }
    }
  }
}

TEST(H2LL, CandidateParameterRestrictsTargets) {
  const auto m = instance();
  support::Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    auto s = sched::Schedule::random(m, rng);
    // candidates = 1: the only candidate is the least loaded machine.
    const auto least = s.argmin_machine();
    const auto before = s;
    h2ll(s, {1, 1}, rng);
    if (s.hamming_distance(before) == 1) {
      for (std::size_t t = 0; t < s.tasks(); ++t) {
        if (s.machine_of(t) != before.machine_of(t)) {
          EXPECT_EQ(s.machine_of(t), least);
        }
      }
    }
  }
}

TEST(H2LL, SingleMachineNoOp) {
  etc::EtcMatrix m(4, 1, {1, 2, 3, 4});
  auto s = sched::Schedule(m, {0, 0, 0, 0});
  support::Xoshiro256 rng(6);
  h2ll(s, {10, 0}, rng);
  EXPECT_TRUE(s.validate());
}

TEST(H2LL, NewCompletionStaysBelowOldMakespan) {
  // The operator only moves when the target completion stays strictly
  // below the makespan, so the target machine can never become the new
  // argmax unless it was already.
  const auto m = instance(77);
  support::Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before_ms = s.makespan();
    h2ll(s, {1, 0}, rng);
    EXPECT_LE(s.makespan(), before_ms);
  }
}

// --- equivalence wall: h2ll against the per-pass reference -----------------

class H2llEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(H2llEquivalenceTest, MatchesReferenceOnRandomAndPolishedSchedules) {
  const auto m = etc::generate_by_name(GetParam());
  support::Xoshiro256 rng(support::seed_from_string(GetParam().c_str()));
  const auto random = sched::Schedule::random(m, rng);
  EXPECT_EQ(sweep_mismatches(random, 1), 0);
  // Mid-run shape: a schedule H2LL has already balanced, where the most
  // loaded machine changes between passes far more often.
  auto polished = sched::Schedule::random(m, rng);
  reference_h2ll(polished, {200, 0}, rng);
  EXPECT_EQ(sweep_mismatches(polished, 2), 0);
}

INSTANTIATE_TEST_SUITE_P(BraunSuite, H2llEquivalenceTest,
                         ::testing::ValuesIn(etc::braun_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

TEST(H2llEquivalence, TieHeavyCompletions) {
  // Integer ETCs from {1, 2} (and all-equal ones) make equal completions,
  // equal candidate scores and several most loaded machines common.
  for (const bool all_equal : {false, true}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      support::Xoshiro256 gen(seed);
      const std::size_t tasks = 64;
      const std::size_t machines = 8;
      std::vector<double> etc(tasks * machines);
      for (auto& v : etc) v = all_equal ? 1.0 : 1.0 + gen.index(2);
      const etc::EtcMatrix m(tasks, machines, std::move(etc));
      std::vector<sched::MachineId> round_robin(tasks);
      for (std::size_t t = 0; t < tasks; ++t) {
        round_robin[t] = static_cast<sched::MachineId>(t % machines);
      }
      EXPECT_EQ(sweep_mismatches(sched::Schedule(m, round_robin), seed), 0);
      EXPECT_EQ(sweep_mismatches(sched::Schedule::random(m, gen), seed), 0);
    }
  }
}

TEST(H2llEquivalence, MostLoadedMachineHoldsOnlyItsReadyTime) {
  // Machine 2's ready time exceeds every other completion and it holds no
  // task: no pass can move anything or draw.
  support::Xoshiro256 gen(41);
  const std::size_t tasks = 40;
  const std::size_t machines = 6;
  std::vector<double> etc(tasks * machines);
  for (auto& v : etc) v = gen.uniform(1.0, 10.0);
  const etc::EtcMatrix m(tasks, machines, std::move(etc),
                         {0.0, 5.0, 1000.0, 0.0, 2.0, 0.0});
  std::vector<sched::MachineId> assignment(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    assignment[t] = static_cast<sched::MachineId>(t % 2 == 0 ? 0 : 3 + t % 3);
  }
  const sched::Schedule base(m, assignment);
  EXPECT_EQ(sweep_mismatches(base, 7), 0);

  support::Xoshiro256 rng(9), untouched(9);
  auto s = base;
  h2ll(s, {10, 0}, rng);
  EXPECT_EQ(s.hamming_distance(base), 0u);
  EXPECT_EQ(rng(), untouched());
}

TEST(H2llEquivalence, ReadyTimesPassTheLoadedRoleAround) {
  // Unequal ready times with tasks on every machine: the most loaded
  // machine changes mid-call, and ready-time-only load ranks it.
  support::Xoshiro256 gen(43);
  const std::size_t tasks = 96;
  const std::size_t machines = 12;
  std::vector<double> etc(tasks * machines);
  for (auto& v : etc) v = gen.uniform(1.0, 50.0);
  std::vector<double> ready(machines);
  for (auto& r : ready) r = gen.uniform(0.0, 300.0);
  const etc::EtcMatrix m(tasks, machines, std::move(etc), std::move(ready));
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    EXPECT_EQ(sweep_mismatches(sched::Schedule::random(m, gen), seed), 0);
  }
}

TEST(LocalTabuHop, NeverReturnsWorse) {
  const auto m = instance();
  support::Xoshiro256 rng(8);
  for (int i = 0; i < 30; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    local_tabu_hop(s, {10, 4}, rng);
    EXPECT_LE(s.makespan(), before + 1e-9);
    EXPECT_TRUE(s.validate());
  }
}

TEST(LocalTabuHop, ImprovesRandomSchedules) {
  const auto m = instance();
  support::Xoshiro256 rng(9);
  int improved = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    local_tabu_hop(s, {20, 4}, rng);
    improved += (s.makespan() < before);
  }
  EXPECT_GT(improved, 25);
}

TEST(LocalTabuHop, ZeroIterationsIdentity) {
  const auto m = instance();
  support::Xoshiro256 rng(10);
  auto s = sched::Schedule::random(m, rng);
  const auto before = s;
  local_tabu_hop(s, {0, 4}, rng);
  EXPECT_EQ(s.hamming_distance(before), 0u);
}

TEST(H2llSteepest, NeverWorsensAndConverges) {
  const auto m = instance();
  support::Xoshiro256 rng(11);
  for (int i = 0; i < 30; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    h2ll_steepest(s, {10, 0});
    EXPECT_LE(s.makespan(), before);
    EXPECT_TRUE(s.validate(1e-9));
  }
}

TEST(H2llSteepest, DeterministicGivenSchedule) {
  const auto m = instance();
  support::Xoshiro256 rng(12);
  const auto base = sched::Schedule::random(m, rng);
  auto s1 = base;
  auto s2 = base;
  h2ll_steepest(s1, {5, 0});
  h2ll_steepest(s2, {5, 0});
  EXPECT_EQ(s1.hamming_distance(s2), 0u);
}

TEST(H2llSteepest, AtLeastAsGoodAsRandomizedPerPass) {
  // Steepest picks the best move among all tasks on the loaded machine;
  // the randomized version picks a random task. Per single pass from the
  // same start, steepest is never worse on average.
  const auto m = instance();
  support::RunningStats steepest, randomized;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    support::Xoshiro256 rng(seed);
    const auto base = sched::Schedule::random(m, rng);
    auto s1 = base;
    h2ll_steepest(s1, {1, 0});
    steepest.add(s1.makespan());
    auto s2 = base;
    h2ll(s2, {1, 0}, rng);
    randomized.add(s2.makespan());
  }
  EXPECT_LE(steepest.mean(), randomized.mean() + 1e-9);
}

TEST(H2llSteepest, StopsAtLocalOptimum) {
  const auto m = instance();
  support::Xoshiro256 rng(13);
  auto s = sched::Schedule::random(m, rng);
  h2ll_steepest(s, {1000, 0});  // converge fully
  const double converged = s.makespan();
  h2ll_steepest(s, {50, 0});  // extra passes: no further change
  EXPECT_DOUBLE_EQ(s.makespan(), converged);
}

TEST(ApplyLocalSearch, DispatchMatchesDirectCalls) {
  const auto m = instance();
  support::Xoshiro256 rng(21);
  const auto base = sched::Schedule::random(m, rng);
  const H2LLParams hp{5, 0};
  const TabuHopParams tp{5, 4};

  support::Xoshiro256 r1(31), r2(31);
  auto via_enum = base;
  apply_local_search(LocalSearchKind::kH2LL, via_enum, hp, tp, r1);
  auto direct = base;
  h2ll(direct, hp, r2);
  EXPECT_EQ(via_enum.hamming_distance(direct), 0u);

  auto steep_enum = base;
  apply_local_search(LocalSearchKind::kH2LLSteepest, steep_enum, hp, tp, r1);
  auto steep_direct = base;
  h2ll_steepest(steep_direct, hp);
  EXPECT_EQ(steep_enum.hamming_distance(steep_direct), 0u);

  support::Xoshiro256 r3(37), r4(37);
  auto tabu_enum = base;
  apply_local_search(LocalSearchKind::kTabuHop, tabu_enum, hp, tp, r3);
  auto tabu_direct = base;
  local_tabu_hop(tabu_direct, tp, r4);
  EXPECT_EQ(tabu_enum.hamming_distance(tabu_direct), 0u);

  auto none = base;
  apply_local_search(LocalSearchKind::kNone, none, hp, tp, r1);
  EXPECT_EQ(none.hamming_distance(base), 0u);
}

TEST(ApplyLocalSearch, KindNames) {
  EXPECT_STREQ(to_string(LocalSearchKind::kH2LL), "h2ll");
  EXPECT_STREQ(to_string(LocalSearchKind::kH2LLSteepest), "h2ll-steepest");
  EXPECT_STREQ(to_string(LocalSearchKind::kTabuHop), "tabu-hop");
  EXPECT_STREQ(to_string(LocalSearchKind::kNone), "none");
}

/// Property sweep over the Braun suite: H2LL respects its contract on all
/// twelve instance classes.
class H2llSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(H2llSuiteTest, MonotoneAndCoherentOnSuite) {
  const auto m = etc::generate_by_name(GetParam());
  support::Xoshiro256 rng(support::seed_from_string(GetParam().c_str()));
  auto s = sched::Schedule::random(m, rng);
  const double before = s.makespan();
  h2ll(s, {10, 0}, rng);
  EXPECT_LE(s.makespan(), before);
  EXPECT_TRUE(s.validate(1e-9));
}

INSTANTIATE_TEST_SUITE_P(BraunSuite, H2llSuiteTest,
                         ::testing::ValuesIn(etc::braun_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace pacga::cga
