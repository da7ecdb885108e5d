// Takeover-time study — the selection-pressure experiment behind the
// paper's §1/§3.1 claims ("the genetic information of an individual will
// need a high number of generations to reach distant individuals, thus
// avoiding premature convergence").
//
// Protocol (classic cGA analysis, Alba & Dorronsoro 2008): initialize the
// population randomly, plant one far-better individual, run SELECTION +
// REPLACEMENT ONLY (no mutation, no local search), and record the fraction
// of cells carrying the best fitness after each generation. Smaller
// neighborhoods and synchronous updates take over more slowly — the
// diversity-preservation property the cellular structure buys.
#include <atomic>
#include <cstdio>
#include <iostream>

#include "cga/diversity.hpp"
#include "cga/engine.hpp"
#include "etc/suite.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"

namespace {

using namespace pacga;

/// Selection-only evolution on the engine itself: crossover with p_comb =
/// 1 between the selected neighbors, no mutation, no local search —
/// identical parents clone, so once a region converges the champion
/// propagates unchanged. The observer records the takeover fraction after
/// every generation and raises the cancel flag once it reaches 1, so the
/// sync arm measures the engine's own synchronous model.
double takeover_curve(const etc::EtcMatrix& m, cga::NeighborhoodShape shape,
                      cga::UpdatePolicy update, std::uint64_t seed,
                      std::size_t max_generations,
                      support::ConsoleTable& table, const char* label) {
  cga::Config config;
  config.neighborhood = shape;
  config.update = update;
  config.p_mut = 0.0;
  config.local_search.iterations = 0;
  config.seed_min_min = true;  // the planted champion: Min-min is far
                               // better than random on every instance
  config.seed = seed;
  config.termination = cga::Termination::after_generations(max_generations);

  // The diversity probe samples pairs from its own stream, so recording
  // never perturbs the run.
  support::Xoshiro256 probe_rng(seed);
  std::atomic<bool> taken_over{false};
  std::size_t generations_to_takeover = max_generations;
  cga::run_sequential(
      m, config,
      [&](const cga::GenerationEvent& e) {
        const double p = cga::proportion_at_best(e.population, 1e-9);
        if (e.generation <= 4 || e.generation % 4 == 0 || p >= 1.0) {
          table.add_row(
              {label, std::to_string(e.generation),
               support::format_number(p, 4),
               support::format_number(
                   cga::population_diversity_sampled(e.population, 500,
                                                     probe_rng)
                       .gene_entropy,
                   4)});
        }
        if (p >= 1.0) {
          generations_to_takeover = e.generation;
          taken_over.store(true, std::memory_order_relaxed);
        }
      },
      &taken_over);
  return static_cast<double>(generations_to_takeover);
}

int run(int argc, char** argv) {
  std::string instance = "u_i_hihi.0";
  std::size_t max_generations = 200;
  std::uint64_t seed = 1;
  bool csv = false;
  support::Cli cli(
      "bench_takeover — selection-pressure study: generations until the "
      "planted best individual's fitness conquers the grid, per "
      "neighborhood shape and update policy");
  cli.option("instance", &instance, "Braun instance name")
      .option("max-generations", &max_generations, "give-up bound")
      .option("seed", &seed, "random seed")
      .flag("csv", &csv, "CSV output");
  if (!cli.parse(argc, argv)) return 0;

  const auto m = etc::generate_by_name(instance);
  support::ConsoleTable table(
      {"config", "generation", "takeover_fraction", "gene_entropy"});

  struct Arm {
    const char* label;
    cga::NeighborhoodShape shape;
    cga::UpdatePolicy update;
  };
  const Arm arms[] = {
      {"L5/async", cga::NeighborhoodShape::kLinear5,
       cga::UpdatePolicy::kAsynchronous},
      {"L5/sync", cga::NeighborhoodShape::kLinear5,
       cga::UpdatePolicy::kSynchronous},
      {"C9/async", cga::NeighborhoodShape::kCompact9,
       cga::UpdatePolicy::kAsynchronous},
      {"C13/async", cga::NeighborhoodShape::kCompact13,
       cga::UpdatePolicy::kAsynchronous},
  };

  std::printf("# takeover study on %s (16x16 grid, selection only)\n",
              instance.c_str());
  support::ConsoleTable summary({"config", "takeover_generations"});
  for (const auto& arm : arms) {
    const double gens = takeover_curve(m, arm.shape, arm.update, seed,
                                       max_generations, table, arm.label);
    summary.add_row({arm.label, support::format_number(gens, 4)});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::printf("\n");
    summary.print(std::cout);
  }
  std::printf(
      "\n# Expected shape: async takes over faster than sync; larger "
      "neighborhoods (C9, C13) faster than L5 — restricted mating delays "
      "takeover, preserving diversity (paper §3.1).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
