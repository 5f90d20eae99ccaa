// Blocked (BLAS3-style) fast-path kernels for the host-side numerics.
//
// Every kernel here is a drop-in replacement for a scalar reference loop
// elsewhere in the library, engineered so that each accumulated output
// element is produced by the *same ordered chain of floating-point
// additions* as the reference: register tiles widen across independent
// output elements (instruction-level parallelism, cache blocking) while the
// reduction dimension always runs ascending inside each accumulator.  The
// fast paths therefore change wall-clock time only -- results are
// bit-identical, and the virtual-time model (linalg/flops.hpp) is charged
// exactly as before.
//
// The reference paths are kept selectable at runtime (environment variable
// HPRS_REFERENCE_KERNELS=1, or set_reference_kernels()) so property tests
// can pin the two implementations against each other and benchmarks can
// report before/after numbers from one binary.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hprs::linalg {

/// True when the scalar reference kernels should be used instead of the
/// blocked fast paths.  First call latches the HPRS_REFERENCE_KERNELS
/// environment variable ("1"/"true"/"on" enable it); set_reference_kernels
/// overrides it afterwards (used by tests and benchmarks).
[[nodiscard]] bool use_reference_kernels();
void set_reference_kernels(bool reference);

/// RAII helper: forces the given kernel path for the current scope.
class ScopedKernelPath {
 public:
  explicit ScopedKernelPath(bool reference);
  ~ScopedKernelPath();
  ScopedKernelPath(const ScopedKernelPath&) = delete;
  ScopedKernelPath& operator=(const ScopedKernelPath&) = delete;

 private:
  bool saved_;
};

/// Bump allocator for the per-rank scratch buffers of the hot sweeps.
/// take() hands out uninitialized spans that stay valid until reset();
/// memory is retained across reset() so steady-state sweeps never touch the
/// heap.  Chunks are stable in memory (a new chunk never moves old ones).
class ScratchArena {
 public:
  ScratchArena() = default;
  /// Publishes the arena's lifetime high-water mark into obs::Metrics
  /// (gauge "linalg.scratch_high_water_doubles", the max over all arenas).
  /// The kernel call sequence is deterministic per rank, so the mark is
  /// Domain::kStable and golden-comparable.
  ~ScratchArena();
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  [[nodiscard]] std::span<double> take(std::size_t n);
  void reset() {
    chunk_ = 0;
    used_ = 0;
    live_ = 0;
  }

  /// Largest number of doubles simultaneously outstanding (between resets)
  /// over this arena's lifetime.
  [[nodiscard]] std::size_t high_water_doubles() const { return high_water_; }

 private:
  static constexpr std::size_t kMinChunk = 1 << 14;  // doubles per chunk
  std::vector<std::vector<double>> chunks_;
  std::size_t chunk_ = 0;  // index of the chunk currently bump-allocated
  std::size_t used_ = 0;   // doubles consumed in chunks_[chunk_]
  std::size_t live_ = 0;   // doubles taken since the last reset
  std::size_t high_water_ = 0;
};

/// out[p * u.rows() + i] = dot(u.row(i), x_p) for the m pixels stored
/// contiguously at x (pixel-major, u.cols() samples each).  This is the
/// BLAS3 form of the per-pixel matvec U * x_p: one strip of pixels amortizes
/// the traversal of U and runs 8 independent accumulator chains.  Each
/// element is bit-identical to linalg::dot on the same operands.
void dot_strip(const Matrix& u, const float* x, std::size_t m,
               std::span<double> out);
void dot_strip(const Matrix& u, const double* x, std::size_t m,
               std::span<double> out);

/// out[p] = norm_sq(x_p) for m contiguous n-sample pixels.
void norm_sq_strip(const float* x, std::size_t m, std::size_t n,
                   std::span<double> out);

/// Rank-m symmetric update of a packed upper triangle:
///   tri[idx(i, j)] += sum_p x[p*n + i] * x[p*n + j]   (j >= i)
/// where idx(i, j) = i*n - i*(i-1)/2 + (j-i), the layout used by the PCT
/// covariance accumulator.  Register-tiled over (i, j); the p-chain of every
/// element extends the value already in tri, so calling this strip after
/// strip is bit-identical to the per-pixel rank-1 reference loop.
void syrk_tri_update(const double* x, std::size_t m, std::size_t n,
                     double* tri);

}  // namespace hprs::linalg
