#include "linalg/tile_graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hprs::linalg {

std::vector<TileDesc> make_row_tiles(std::size_t row_begin,
                                     std::size_t row_end,
                                     std::size_t bytes_per_row,
                                     std::size_t tile_rows) {
  HPRS_REQUIRE(tile_rows >= 1, "tile_rows must be at least 1");
  std::vector<TileDesc> tiles;
  if (row_end <= row_begin) return tiles;
  tiles.reserve((row_end - row_begin + tile_rows - 1) / tile_rows);
  for (std::size_t r0 = row_begin; r0 < row_end; r0 += tile_rows) {
    const std::size_t r1 = std::min(row_end, r0 + tile_rows);
    tiles.push_back(
        TileDesc{tiles.size(), r0, r1, (r1 - r0) * bytes_per_row});
  }
  return tiles;
}

std::size_t resolve_tile_rows(std::size_t configured,
                              std::size_t owned_rows) {
  if (configured > 0) return configured;
  if (owned_rows == 0) return 1;
  return (owned_rows + kAutoTilesPerPartition - 1) / kAutoTilesPerPartition;
}

}  // namespace hprs::linalg
