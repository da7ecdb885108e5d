#include "support/threading.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace pacga::support {

ScopedThreads::ScopedThreads(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back(fn, i);
  }
}

ScopedThreads::~ScopedThreads() { join(); }

void ScopedThreads::join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

Barrier::Barrier(std::size_t parties) : parties_(parties) {}

void Barrier::arrive_and_wait() {
  const std::size_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    return;
  }
  std::size_t cur = generation_.load(std::memory_order_acquire);
  while (cur == gen) {
    generation_.wait(cur, std::memory_order_acquire);
    cur = generation_.load(std::memory_order_acquire);
  }
}

bool pin_current_thread(std::size_t core) noexcept {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % CPU_SETSIZE, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

std::size_t clamp_threads(std::size_t requested) noexcept {
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : hw;
  if (requested == 0) return 1;
  return requested < cap ? requested : cap;
}

}  // namespace pacga::support
