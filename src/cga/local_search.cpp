#include "cga/local_search.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "cga/mutation.hpp"
#include "support/kernels.hpp"

namespace pacga::cga {

namespace kernels = support::kernels;

const char* to_string(LocalSearchKind k) noexcept {
  switch (k) {
    case LocalSearchKind::kH2LL: return "h2ll";
    case LocalSearchKind::kH2LLSteepest: return "h2ll-steepest";
    case LocalSearchKind::kTabuHop: return "tabu-hop";
    case LocalSearchKind::kNone: return "none";
  }
  return "?";
}

void apply_local_search(LocalSearchKind kind, sched::Schedule& s,
                        const H2LLParams& h2ll_params,
                        const TabuHopParams& tabu_params,
                        support::Xoshiro256& rng) {
  switch (kind) {
    case LocalSearchKind::kH2LL:
      h2ll(s, h2ll_params, rng);
      return;
    case LocalSearchKind::kH2LLSteepest:
      h2ll_steepest(s, h2ll_params);
      return;
    case LocalSearchKind::kTabuHop:
      local_tabu_hop(s, tabu_params, rng);
      return;
    case LocalSearchKind::kNone:
      return;
  }
}

namespace {

/// Strict total order of machines by (completion, index): ties break
/// toward the lower index, so every selection below is a deterministic
/// function of the completion array, which the golden replays depend on.
bool lighter(const sched::Schedule& s, std::uint32_t a,
             std::uint32_t b) noexcept {
  const double ca = s.completion(a);
  const double cb = s.completion(b);
  return ca < cb || (ca == cb && a < b);
}

/// Fills `cand[0..k)` with the k machines of smallest (completion, index),
/// sorted ascending by machine index. O(machines) selection via
/// nth_element.
void least_loaded(const sched::Schedule& s, std::size_t k,
                  std::vector<std::uint32_t>& cand) {
  const std::size_t machines = s.machines();
  cand.resize(machines);
  std::iota(cand.begin(), cand.end(), std::uint32_t{0});
  const auto by_load = [&](std::uint32_t a, std::uint32_t b) {
    return lighter(s, a, b);
  };
  if (k < machines) {
    std::nth_element(cand.begin(),
                     cand.begin() + static_cast<std::ptrdiff_t>(k), cand.end(),
                     by_load);
  }
  std::sort(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(k));
}

/// Index of the most loaded machine other than `skip` (highest completion;
/// lowest index on ties). Requires at least two machines.
std::size_t argmax_machine_skip(std::span<const double> ct, std::size_t skip) {
  std::size_t best = ct.size();  // sentinel: nothing seen yet
  if (skip > 0) best = kernels::argmax(ct.data(), skip);
  if (skip + 1 < ct.size()) {
    const std::size_t hi =
        skip + 1 + kernels::argmax(ct.data() + skip + 1, ct.size() - skip - 1);
    if (best == ct.size() || ct[hi] > ct[best]) best = hi;
  }
  return best;
}

/// H2LL's state across the passes of one call. A pass moves at most one
/// task, so nothing here is rebuilt between passes. Thread-local storage,
/// resized per call, keeps steady-state calls allocation-free once a
/// thread has seen the shape. Completions must be finite (no NaN).
struct H2llState {
  static constexpr std::uint32_t kEnd =
      std::numeric_limits<std::uint32_t>::max();

  /// Every machine, ascending by (completion, index).
  std::vector<std::uint32_t> order;
  /// Per machine: its tasks as an ascending singly-linked list through
  /// `next`.
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> next;

  /// The position of a drawn task in its machine's list.
  struct Drawn {
    std::uint32_t prev;  ///< predecessor in the list; kEnd at the head
    std::uint32_t task;  ///< kEnd when the machine holds no task
  };

  /// O(tasks + machines log machines), once per call.
  void build(const sched::Schedule& s) {
    const std::size_t machines = s.machines();
    order.resize(machines);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return lighter(s, a, b);
              });
    head.assign(machines, kEnd);
    next.resize(s.tasks());
    // Pushing to the front from the highest task leaves every list ascending.
    for (std::size_t t = s.tasks(); t-- > 0;) {
      const std::size_t m = s.machine_of(t);
      next[t] = head[m];
      head[m] = static_cast<std::uint32_t>(t);
    }
  }

  /// Highest completion, lowest index on ties: kernels::argmax's answer.
  std::size_t most_loaded(const sched::Schedule& s) const noexcept {
    std::size_t p = order.size() - 1;
    const double top = s.completion(order[p]);
    while (p > 0 && s.completion(order[p - 1]) == top) --p;
    return order[p];
  }

  /// random_task_on_machine's reservoir pass, run over machine m's list
  /// instead of over every task: the same draw rng.index(seen) for the
  /// seen-th task of m, in the same order, so the same pick. No draws when
  /// m holds no task.
  Drawn draw_task(std::size_t m, support::Xoshiro256& rng) const noexcept {
    Drawn chosen{kEnd, kEnd};
    std::uint32_t prev = kEnd;
    std::size_t seen = 0;
    for (std::uint32_t t = head[m]; t != kEnd; prev = t, t = next[t]) {
      if (rng.index(++seen) == 0) chosen = {prev, t};
    }
    return chosen;
  }

  void unlink(std::size_t m, std::uint32_t prev, std::uint32_t t) noexcept {
    (prev == kEnd ? head[m] : next[prev]) = next[t];
  }

  /// Links task t into machine m's list at its ascending position.
  void insert_task(std::size_t m, std::uint32_t t) noexcept {
    std::uint32_t* link = &head[m];
    while (*link != kEnd && *link < t) link = &next[*link];
    next[t] = *link;
    *link = t;
  }

  /// Moves machine m to its place in `order` after its completion changed.
  /// O(machines). Exact when every other machine is in place. Also exact
  /// when m got lighter and the one misplaced machine got heavier: m
  /// walks left past heavier machines, and if it stops at the grown one,
  /// everything left of that was no heavier than it before it grew.
  void resift(const sched::Schedule& s, std::uint32_t m) noexcept {
    auto p = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), m) - order.begin());
    for (; p > 0 && lighter(s, m, order[p - 1]); --p) order[p] = order[p - 1];
    for (; p + 1 < order.size() && lighter(s, order[p + 1], m); ++p) {
      order[p] = order[p + 1];
    }
    order[p] = m;
  }
};

}  // namespace

void h2ll(sched::Schedule& s, const H2LLParams& params,
          support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0 || params.iterations == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0
          ? machines / 2
          : std::min(params.candidates, machines - 1);

  thread_local H2llState state;
  state.build(s);

  for (std::size_t it = 0; it < params.iterations; ++it) {
    const std::size_t most_loaded = state.most_loaded(s);
    const auto [prev, task] = state.draw_task(most_loaded, rng);
    // The most loaded machine holds only its ready time: no pass of this
    // call can move anything, nor draw.
    if (task == H2llState::kEnd) return;

    // Paper Alg. 4: best_score starts at the makespan; a candidate is
    // accepted only if it strictly undercuts it. The candidates are the k
    // machines of smallest (completion, index); score ties keep the lowest
    // machine index.
    double best_score = s.completion(most_loaded);
    std::size_t best_mac = machines;  // sentinel: no move
    for (std::size_t c = 0; c < n_candidates; ++c) {
      const std::size_t mac = state.order[c];
      if (mac == most_loaded) continue;
      const double new_score = s.completion(mac) + s.etc()(task, mac);
      const bool tie_to_lower = new_score == best_score &&
                                best_mac != machines && mac < best_mac;
      if (new_score < best_score || tie_to_lower) {
        best_score = new_score;
        best_mac = mac;
      }
    }
    if (best_mac != machines) {
      state.unlink(most_loaded, prev, task);
      s.move_task(task, static_cast<sched::MachineId>(best_mac));
      state.insert_task(best_mac, task);
      // The source only got lighter and the target only heavier; resifting
      // them in that order leaves `order` sorted (see H2llState::resift).
      state.resift(s, static_cast<std::uint32_t>(most_loaded));
      state.resift(s, static_cast<std::uint32_t>(best_mac));
    }
  }
}

void h2ll_steepest(sched::Schedule& s, const H2LLParams& params) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0 ? machines / 2
                             : std::min(params.candidates, machines - 1);

  thread_local std::vector<std::uint32_t> cand;

  for (std::size_t it = 0; it < params.iterations; ++it) {
    const auto ct = s.completions();
    const std::size_t most_loaded = kernels::argmax(ct.data(), machines);
    // Highest completion among machines other than the loaded one (and,
    // when the move target IS that machine, the next one down): the part
    // of the resulting makespan no single move can change. Top-3 kernel
    // scans instead of the former full sort.
    const std::size_t second = argmax_machine_skip(ct, most_loaded);
    double third_ct = 0.0;
    if (machines >= 3) {
      third_ct = -std::numeric_limits<double>::infinity();
      for (std::size_t m = 0; m < machines; ++m) {
        if (m == most_loaded || m == second) continue;
        third_ct = std::max(third_ct, ct[m]);
      }
    }

    least_loaded(s, n_candidates, cand);

    // True steepest descent on the makespan: evaluate the RESULTING
    // makespan of every (task on loaded machine, candidate) move and take
    // the minimum. This is what "steepest" must mean for the operator's
    // objective — minimizing the landing completion alone can prefer
    // moving a tiny task that barely relieves the loaded machine.
    const double current_ms = s.completion(most_loaded);
    double best_ms = current_ms;
    std::size_t best_task = s.tasks();
    std::size_t best_mac = machines;
    for (std::size_t t = 0; t < s.tasks(); ++t) {
      if (s.machine_of(t) != most_loaded) continue;
      const double src_after = current_ms - s.etc()(t, most_loaded);
      for (std::size_t c = 0; c < n_candidates; ++c) {
        const std::size_t mac = cand[c];
        if (mac == most_loaded) continue;
        const double dst_after = s.completion(mac) + s.etc()(t, mac);
        const double rest = mac == second ? third_ct : s.completion(second);
        const double new_ms =
            std::max({src_after, dst_after, rest});
        if (new_ms < best_ms) {
          best_ms = new_ms;
          best_task = t;
          best_mac = mac;
        }
      }
    }
    if (best_task == s.tasks()) return;  // local optimum: converged
    s.move_task(best_task, static_cast<sched::MachineId>(best_mac));
  }
}

void local_tabu_hop(sched::Schedule& s, const TabuHopParams& params,
                    support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  const std::size_t tasks = s.tasks();
  if (machines < 2 || tasks == 0) return;

  // Expiry iteration per task; iteration counter starts at tenure so the
  // initial zeros are all expired.
  std::vector<std::size_t> tabu_until(tasks, 0);
  sched::Schedule best = s;
  double best_makespan = best.makespan();

  for (std::size_t it = 1; it <= params.iterations; ++it) {
    const std::size_t loaded_idx = s.argmax_machine();
    const auto loaded = static_cast<sched::MachineId>(loaded_idx);
    // Best move of any non-tabu task currently on the makespan machine:
    // minimize the resulting pair (new target completion) — classic
    // steepest-descent step, accepted even if worsening (tabu search).
    // Per-task inner loop is one fused skip-scan over (completions, ETC
    // row); the skip-scan's lowest-index tie-break matches the old loop.
    std::size_t move_task_id = tasks;
    std::size_t move_target = machines;
    double move_score = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < tasks; ++t) {
      if (s.machine_of(t) != loaded) continue;
      if (tabu_until[t] > it) continue;
      const auto cand = kernels::min_completion_index_skip(
          s.completions().data(), s.etc().of_task(t).data(), machines,
          loaded_idx);
      if (cand.value < move_score) {
        move_score = cand.value;
        move_task_id = t;
        move_target = cand.index;
      }
    }
    if (move_task_id == tasks) {
      // Everything on the loaded machine is tabu: diversify with a random
      // kick so the search does not stall.
      const std::size_t t = rng.index(tasks);
      s.move_task(t, static_cast<sched::MachineId>(rng.index(machines)));
      tabu_until[t] = it + params.tenure;
    } else {
      s.move_task(move_task_id, static_cast<sched::MachineId>(move_target));
      tabu_until[move_task_id] = it + params.tenure;
    }
    const double ms = s.makespan();
    if (ms < best_makespan) {
      best_makespan = ms;
      best = s;
    }
  }
  if (best_makespan < s.makespan()) s = best;
}

}  // namespace pacga::cga
