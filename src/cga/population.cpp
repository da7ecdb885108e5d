#include "cga/population.hpp"

#include <stdexcept>

#include "heuristics/minmin.hpp"

namespace pacga::cga {

Population::Population(const etc::EtcMatrix& etc, Grid grid,
                       support::Xoshiro256& rng, bool seed_min_min,
                       sched::Objective objective, double lambda)
    : grid_(grid), min_min_seed_(etc.tasks()) {
  cells_.reserve(grid_.size());
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    cells_.push_back(Individual::evaluated(sched::Schedule::random(etc, rng),
                                           objective, lambda));
  }
  if (seed_min_min && !cells_.empty()) {
    heur::min_min_into(etc, min_min_seed_);
    seed_cell(0, etc, min_min_seed_, objective, lambda);
  }
  locks_ = std::make_unique<support::Padded<std::shared_mutex>[]>(grid_.size());
}

void Population::reseed(const etc::EtcMatrix& etc, support::Xoshiro256& rng,
                        bool seed_min_min, sched::Objective objective,
                        double lambda) {
  if (cells_.empty()) return;
  if (etc.tasks() != cells_.front().schedule.tasks() ||
      etc.machines() != cells_.front().schedule.machines())
    throw std::invalid_argument("Population::reseed: shape mismatch");
  for (auto& cell : cells_) {
    cell.schedule.randomize_from(etc, rng);
    cell.fitness = sched::evaluate(cell.schedule, objective, lambda);
  }
  if (seed_min_min) {
    heur::min_min_into(etc, min_min_seed_);
    seed_cell(0, etc, min_min_seed_, objective, lambda);
  }
}

void Population::seed_cell(std::size_t i, const etc::EtcMatrix& etc,
                           std::span<const sched::MachineId> assignment,
                           sched::Objective objective, double lambda) {
  if (i >= cells_.size())
    throw std::invalid_argument("Population::seed_cell: cell out of range");
  cells_[i].schedule.adopt(etc, assignment);
  cells_[i].fitness = sched::evaluate(cells_[i].schedule, objective, lambda);
}

std::size_t Population::best_index() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    if (cells_[i].fitness < cells_[best].fitness) best = i;
  }
  return best;
}

double Population::mean_fitness() const noexcept {
  double sum = 0.0;
  for (const auto& c : cells_) sum += c.fitness;
  return cells_.empty() ? 0.0 : sum / static_cast<double>(cells_.size());
}

}  // namespace pacga::cga
