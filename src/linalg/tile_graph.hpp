// Row-strip tile plans for the tiled BLAS3 sweeps (PCT mean/covariance,
// ATDCA brightest/OSP).
//
// A partition's row block is cut into row-strip tiles (TileDesc).  The
// collective driver (core/ft.hpp) builds one plan per rank; its sweeps walk
// the tiles in order, and in streaming mode the copy of every tile is
// enqueued up front so accelerated ranks hide their staging latency behind
// compute (core/spmd_common.hpp: begin_tile_stream, tiled_sweep).  This
// header is pure bookkeeping -- no engine types leak in here.
#pragma once

#include <cstddef>
#include <vector>

namespace hprs::linalg {

/// One row-strip tile of a partition's owned block.
struct TileDesc {
  std::size_t index = 0;      ///< position within the plan (0-based)
  std::size_t row_begin = 0;  ///< first image row of the tile
  std::size_t row_end = 0;    ///< one past the last image row
  std::size_t bytes = 0;      ///< host->device wire bytes of the tile

  [[nodiscard]] std::size_t rows() const { return row_end - row_begin; }
};

/// Cuts [row_begin, row_end) into tiles of `tile_rows` rows (the last tile
/// may be ragged).  `bytes_per_row` sizes the staged copy of each tile.
/// An empty range yields no tiles; tile_rows must be >= 1.
[[nodiscard]] std::vector<TileDesc> make_row_tiles(std::size_t row_begin,
                                                   std::size_t row_end,
                                                   std::size_t bytes_per_row,
                                                   std::size_t tile_rows);

/// Resolves the tile height for a partition of `owned_rows` rows:
/// `configured` when positive, else an automatic split into at most
/// kAutoTilesPerPartition tiles.  Always >= 1.
inline constexpr std::size_t kAutoTilesPerPartition = 4;
[[nodiscard]] std::size_t resolve_tile_rows(std::size_t configured,
                                            std::size_t owned_rows);

}  // namespace hprs::linalg
