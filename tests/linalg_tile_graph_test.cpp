// Unit coverage of the tile DAG (linalg/tile_graph): tiling bookkeeping,
// the deterministic ready order that creates stage/compute overlap, and
// cycle detection.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

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
  ::unsetenv("HPRS_TILE_ROWS");
  EXPECT_EQ(resolve_tile_rows(7, 100), 7u);  // explicit config wins
  // Automatic split: at most kAutoTilesPerPartition tiles, never zero rows.
  EXPECT_EQ(resolve_tile_rows(0, 100), 25u);
  EXPECT_EQ(resolve_tile_rows(0, 3), 1u);
  EXPECT_EQ(resolve_tile_rows(0, 0), 1u);
  ::setenv("HPRS_TILE_ROWS", "9", 1);
  EXPECT_EQ(resolve_tile_rows(0, 100), 9u);
  EXPECT_EQ(resolve_tile_rows(7, 100), 7u);  // config still beats env
  ::unsetenv("HPRS_TILE_ROWS");
}

TEST(TileGraphTest, StreamPipelineInterleavesStageAheadOfCompute) {
  // The documented overlap order: the copy for tile k+1 is issued before
  // the kernel for tile k, and the tail drains compute-only.
  const TileGraph g = TileGraph::stream_pipeline(4);
  EXPECT_EQ(g.node_count(), 8u);
  std::vector<std::pair<TileNodeKind, std::size_t>> order;
  g.run([&](const TileNode& n) { order.emplace_back(n.kind, n.tile); });
  const std::vector<std::pair<TileNodeKind, std::size_t>> expected = {
      {TileNodeKind::kStage, 0},   {TileNodeKind::kStage, 1},
      {TileNodeKind::kCompute, 0}, {TileNodeKind::kStage, 2},
      {TileNodeKind::kCompute, 1}, {TileNodeKind::kStage, 3},
      {TileNodeKind::kCompute, 2}, {TileNodeKind::kCompute, 3},
  };
  EXPECT_EQ(order, expected);
}

TEST(TileGraphTest, RunVisitsEveryNodeOnceRespectingEdges) {
  TileGraph g;
  const std::size_t a = g.add_node(TileNodeKind::kCompute, 0, 5);
  const std::size_t b = g.add_node(TileNodeKind::kCompute, 1, 0);
  const std::size_t c = g.add_node(TileNodeKind::kCompute, 2, 1);
  g.add_edge(a, b);  // b must wait for a despite its smaller generation
  std::vector<std::size_t> order;
  g.run([&](const TileNode& n) { order.push_back(n.tile); });
  const std::vector<std::size_t> expected = {2, 0, 1};
  EXPECT_EQ(order, expected);
  (void)c;
}

TEST(TileGraphTest, CycleIsDiagnosed) {
  TileGraph g;
  const std::size_t a = g.add_node(TileNodeKind::kCompute, 0, 0);
  const std::size_t b = g.add_node(TileNodeKind::kCompute, 1, 1);
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.run([](const TileNode&) {}), Error);
  EXPECT_THROW(g.add_edge(0, 7), Error);
}

TEST(TileStreamTest, ScopedOverrideRestoresTheDefault) {
  const bool before = tile_stream_enabled();
  {
    ScopedTileStream on(true);
    EXPECT_TRUE(tile_stream_enabled());
    {
      ScopedTileStream off(false);
      EXPECT_FALSE(tile_stream_enabled());
    }
    EXPECT_TRUE(tile_stream_enabled());
  }
  EXPECT_EQ(tile_stream_enabled(), before);
}

}  // namespace
}  // namespace hprs::linalg
