// Unit coverage of the tile plan bookkeeping (linalg/tile_graph): row
// tiling and tile-height resolution.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/tile_graph.hpp"

namespace hprs::linalg {
namespace {

TEST(TileGraphTest, MakeRowTilesCoversRangeWithRaggedTail) {
  const auto tiles = make_row_tiles(10, 23, 100, 5);
  ASSERT_EQ(tiles.size(), 3u);
  EXPECT_EQ(tiles[0].index, 0u);
  EXPECT_EQ(tiles[0].row_begin, 10u);
  EXPECT_EQ(tiles[0].row_end, 15u);
  EXPECT_EQ(tiles[0].bytes, 500u);
  EXPECT_EQ(tiles[1].row_begin, 15u);
  EXPECT_EQ(tiles[1].row_end, 20u);
  EXPECT_EQ(tiles[2].row_begin, 20u);
  EXPECT_EQ(tiles[2].row_end, 23u);  // ragged tail
  EXPECT_EQ(tiles[2].bytes, 300u);
  EXPECT_TRUE(make_row_tiles(7, 7, 100, 5).empty());
  EXPECT_THROW(make_row_tiles(0, 4, 100, 0), Error);
}

TEST(TileGraphTest, ResolveTileRowsPrefersConfiguredThenEnvThenAuto) {
  EXPECT_EQ(resolve_tile_rows(7, 100), 7u);  // explicit config wins
  // Automatic split: at most kAutoTilesPerPartition tiles, never zero rows.
  EXPECT_EQ(resolve_tile_rows(0, 100), 25u);
  EXPECT_EQ(resolve_tile_rows(0, 3), 1u);
  EXPECT_EQ(resolve_tile_rows(0, 0), 1u);
}

}  // namespace
}  // namespace hprs::linalg
