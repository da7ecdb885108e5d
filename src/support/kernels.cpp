#include "support/kernels.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "support/rng.hpp"

// The vector tiers are GCC vector extensions under `#pragma GCC target`;
// other compilers and architectures alias them to the scalar table.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PACGA_KERNELS_X86_SIMD 1
#endif

namespace pacga::support::kernels {

namespace {

// ---- portable scalar path ------------------------------------------------
//
// These loops ARE the semantic definition: in-order scans with strict
// comparisons (lowest index wins ties). The vector tiers reproduce them
// bit-for-bit; test_kernels holds every tier to that contract.

// max_value/min_value return the extreme VALUE canonicalized by `+ 0.0`:
// the only doubles that compare equal with different bit patterns are
// signed zeros (NaN is excluded by contract), and -0.0 + 0.0 == +0.0, so
// the result is bit-identical across paths no matter WHICH of several
// compare-equal extremes a reduction happens to select. That freedom is
// what lets the vector tiers use raw max/min reductions — the fastest
// shape — instead of index-tracked blends.

double scalar_max_value(const double* d, std::size_t n) {
  assert(n > 0);
  double best = d[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] > best) best = d[i];
  }
  return best + 0.0;
}

double scalar_min_value(const double* d, std::size_t n) {
  assert(n > 0);
  double best = d[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] < best) best = d[i];
  }
  return best + 0.0;
}

std::size_t scalar_argmax(const double* d, std::size_t n) {
  assert(n > 0);
  std::size_t arg = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] > d[arg]) arg = i;
  }
  return arg;
}

std::size_t scalar_argmin(const double* d, std::size_t n) {
  assert(n > 0);
  std::size_t arg = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] < d[arg]) arg = i;
  }
  return arg;
}

MinScan scalar_min_plus(const double* a, const double* b, std::size_t n) {
  assert(n > 0);
  MinScan r{a[0] + b[0], 0};
  for (std::size_t i = 1; i < n; ++i) {
    const double c = a[i] + b[i];
    if (c < r.value) {
      r.value = c;
      r.index = i;
    }
  }
  return r;
}

void scalar_scale_inplace(double* d, std::size_t n, double factor) {
  for (std::size_t i = 0; i < n; ++i) d[i] *= factor;
}

// hash_block is DEFINED as a 4-lane interleaved xorshift mix: lane l folds
// elements l, l+4, l+8, ... so a 4-wide vector path computes the exact same
// lane states. Quality is adequate for content fingerprints (every lane
// word passes through hash_mix avalanches in the combine); stability across
// platforms and dispatch paths is the hard requirement.
inline std::uint64_t hash_lane_step(std::uint64_t h, std::uint64_t bits) {
  h ^= bits;
  h ^= h << 13;
  h ^= h >> 7;
  h ^= h << 17;
  return h;
}

inline std::uint64_t hash_lane_seed(std::uint64_t seed, std::size_t l) {
  return seed + (l + 1) * 0x9e3779b97f4a7c15ULL;
}

// Folds elements [i, n) into their lanes, then combines the lane words.
inline std::uint64_t hash_finish(std::uint64_t (&lane)[4], const double* d,
                                 std::size_t i, std::size_t n,
                                 std::uint64_t seed) {
  for (; i < n; ++i) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &d[i], sizeof bits);
    lane[i & 3] = hash_lane_step(lane[i & 3], bits);
  }
  std::uint64_t acc = hash_mix(seed, n);
  for (std::size_t l = 0; l < 4; ++l) acc = hash_mix(acc, lane[l]);
  return acc;
}

std::uint64_t scalar_hash_block(const double* d, std::size_t n,
                                std::uint64_t seed) {
  std::uint64_t lane[4];
  for (std::size_t l = 0; l < 4; ++l) lane[l] = hash_lane_seed(seed, l);
  return hash_finish(lane, d, 0, n, seed);
}

void scalar_batch_max(const double* const* rows, std::size_t count,
                      std::size_t n, double* out) {
  for (std::size_t r = 0; r < count; ++r) out[r] = scalar_max_value(rows[r], n);
}

constexpr Dispatch kScalar{
    scalar_max_value, scalar_min_value,     scalar_argmax,     scalar_argmin,
    scalar_min_plus,  scalar_scale_inplace, scalar_hash_block,
    scalar_batch_max, "scalar"};

// ---- vector tiers ---------------------------------------------------------
//
// One width-generic body (kernels_simd.inc), compiled once per tier under
// that tier's target. avx512f implies AVX2 in GCC's ISA model, so the
// AVX-512 copy may also emit AVX2 instructions (its 4-lane hash_block does).

#if PACGA_KERNELS_X86_SIMD

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr std::size_t kW = 4;
constexpr const char* kName = "avx2";
#include "support/kernels_simd.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {
constexpr std::size_t kW = 8;
constexpr const char* kName = "avx512";
#include "support/kernels_simd.inc"
}  // namespace avx512
#pragma GCC pop_options

#endif  // PACGA_KERNELS_X86_SIMD

const Dispatch* resolve() {
  const char* error = nullptr;
  const Dispatch* d = detail::resolve_tables(
      std::getenv("PACGA_FORCE_KERNELS"), detail::avx2_supported(),
      detail::avx512_supported(), &error);
  if (d == nullptr) {
    // A forced tier the host cannot honor must not degrade silently: the
    // caller asked for a specific code path (bit-identity audit, CI matrix
    // leg) and running any other would void what the run claims to prove.
    std::fprintf(stderr, "pacga: %s\n", error);
    std::abort();
  }
  return d;
}

}  // namespace

const Dispatch& active() noexcept {
  // Resolved once, on first use; thread-safe by the magic-static rule.
  static const Dispatch* const d = resolve();
  return *d;
}

const char* active_dispatch() noexcept { return active().name; }

namespace detail {

bool avx2_supported() noexcept {
#if PACGA_KERNELS_X86_SIMD
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool avx512_supported() noexcept {
#if PACGA_KERNELS_X86_SIMD
  // avx2 is required too: target("avx512f") implies AVX2, so the AVX-512
  // copy may contain AVX2 instructions (every shipping AVX-512 CPU has
  // them; the check guards against feature-masked environments).
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const Dispatch& scalar_table() noexcept { return kScalar; }

const Dispatch& avx2_table() noexcept {
#if PACGA_KERNELS_X86_SIMD
  return avx2::kTable;
#else
  return kScalar;
#endif
}

const Dispatch& avx512_table() noexcept {
#if PACGA_KERNELS_X86_SIMD
  return avx512::kTable;
#else
  return kScalar;
#endif
}

const Dispatch* resolve_tables(const char* force_kernels, bool have_avx2,
                               bool have_avx512,
                               const char** error) noexcept {
  *error = nullptr;
  if (force_kernels != nullptr && *force_kernels != '\0') {
    const std::string_view want(force_kernels);
    if (want == "scalar") return &scalar_table();
    if (want == "avx2") {
      if (have_avx2) return &avx2_table();
      *error = "PACGA_FORCE_KERNELS=avx2 refused: no AVX2 support on this "
               "CPU/build";
      return nullptr;
    }
    if (want == "avx512") {
      if (have_avx512) return &avx512_table();
      *error = "PACGA_FORCE_KERNELS=avx512 refused: no AVX-512 support on "
               "this CPU/build";
      return nullptr;
    }
    *error = "unrecognized PACGA_FORCE_KERNELS value (want scalar|avx2|"
             "avx512)";
    return nullptr;
  }
  if (have_avx512) return &avx512_table();
  if (have_avx2) return &avx2_table();
  return &scalar_table();
}

}  // namespace detail

}  // namespace pacga::support::kernels
