#include "cga/breeder.hpp"

#include <shared_mutex>

#include "cga/crossover.hpp"
#include "cga/local_search.hpp"
#include "cga/mutation.hpp"
#include "cga/neighborhood.hpp"
#include "cga/selection.hpp"

namespace pacga::cga {

namespace detail {

void vary_and_evaluate(Individual& child, const sched::Schedule& parent_b,
                       const Config& config, support::Xoshiro256& rng) {
  if (rng.bernoulli(config.p_comb)) {
    crossover_into(config.crossover, child.schedule, parent_b, rng);
  }
  if (rng.bernoulli(config.p_mut)) {
    mutate(config.mutation, child.schedule, rng);
  }
  if (config.ls_kind != LocalSearchKind::kNone &&
      config.local_search.iterations > 0 && rng.bernoulli(config.p_ls)) {
    apply_local_search(config.ls_kind, child.schedule, config.local_search,
                       config.tabu, rng);
  }
  child.fitness =
      sched::evaluate(child.schedule, config.objective, config.lambda);
}

}  // namespace detail

Breeder::Breeder(const etc::EtcMatrix& etc, const Config& config)
    : config_(&config),
      parent_b_(sched::Schedule(etc), 0.0),
      offspring_(sched::Schedule(etc), 0.0) {
  neigh_.reserve(shape_size(config.neighborhood));
  fit_.reserve(shape_size(config.neighborhood));
}

void Breeder::breed_into(const Population& pop, std::size_t cell,
                         support::Xoshiro256& rng, Individual& out) {
  const Config& config = *config_;
  neighborhood_of(pop.grid(), cell, config.neighborhood, neigh_);
  fit_.clear();
  for (std::size_t c : neigh_) fit_.push_back(pop.at(c).fitness);
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit_, rng);

  // Offspring starts as parent a (the "no recombination: clone the first
  // parent" default); crossover then overlays parent b's contribution.
  out.schedule.assign_from(pop.at(neigh_[pa_pos]).schedule);
  detail::vary_and_evaluate(out, pop.at(neigh_[pb_pos]).schedule, config,
                            rng);
}

void Breeder::breed_locked_into(Population& pop, std::size_t cell,
                                support::Xoshiro256& rng, Individual& out) {
  const Config& config = *config_;
  // --- selection: snapshot neighbor fitnesses under read locks.
  neighborhood_of(pop.grid(), cell, config.neighborhood, neigh_);
  fit_.clear();
  for (std::size_t c : neigh_) {
    std::shared_lock lock(pop.lock(c));
    fit_.push_back(pop.at(c).fitness);
  }
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit_, rng);

  // --- copy parents (one lock at a time, never nested; each lock window
  // is exactly one vector copy). Parent a is snapshotted straight into the
  // offspring buffer — it is the offspring's starting point anyway, which
  // saves the third copy the historical path made.
  {
    const std::size_t c = neigh_[pa_pos];
    std::shared_lock lock(pop.lock(c));
    out.schedule.assign_from(pop.at(c).schedule);
  }
  {
    const std::size_t c = neigh_[pb_pos];
    std::shared_lock lock(pop.lock(c));
    parent_b_.schedule.assign_from(pop.at(c).schedule);
  }

  // --- breed on private copies, outside all locks.
  detail::vary_and_evaluate(out, parent_b_.schedule, config, rng);
}

}  // namespace pacga::cga
