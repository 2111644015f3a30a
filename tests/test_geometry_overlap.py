"""Exact tile-overlap (binning) tests."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import ScreenConfig
from repro.geometry import overlap
from repro.geometry.overlap import (
    bin_triangles,
    tile_rect,
    tiles_overlapped_by,
    triangle_overlaps_rect,
)
from repro.geometry.primitives import BoundingBox, Primitive, Vertex
from tests.conftest import make_triangle


@pytest.fixture
def screen() -> ScreenConfig:
    return ScreenConfig(128, 128, 32)  # 4x4 tiles


class TestTileRect:
    def test_interior_tile(self, screen):
        rect = tile_rect(screen, 5)  # (x=1, y=1)
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == \
            (32, 32, 64, 64)

    def test_edge_tile_clipped_to_screen(self):
        screen = ScreenConfig(100, 100, 32)  # 4x4 tiles, last column narrow
        rect = tile_rect(screen, 3)
        assert rect.max_x == 100

    def test_out_of_range(self, screen):
        with pytest.raises(ValueError):
            tile_rect(screen, screen.num_tiles)


class TestTriangleRectOverlap:
    def test_triangle_inside_rect(self):
        rect = BoundingBox(0, 0, 100, 100)
        assert triangle_overlaps_rect(make_triangle(0, 10, 10, 5), rect)

    def test_rect_inside_triangle(self):
        big = Primitive(0, Vertex(-100, -100), Vertex(300, -100),
                        Vertex(-100, 300))
        assert triangle_overlaps_rect(big, BoundingBox(10, 10, 20, 20))

    def test_edge_crossing_without_contained_points(self):
        # A thin triangle slicing through a rect: no vertex of either
        # shape is inside the other.
        sliver = Primitive(0, Vertex(-10, 15), Vertex(50, 15),
                           Vertex(-10, 16))
        assert triangle_overlaps_rect(sliver, BoundingBox(0, 0, 32, 32))

    def test_disjoint(self):
        assert not triangle_overlaps_rect(
            make_triangle(0, 200, 200, 10), BoundingBox(0, 0, 32, 32))

    def test_touching_corner_counts(self):
        # Triangle vertex exactly on the rect corner.
        prim = Primitive(0, Vertex(32, 32), Vertex(40, 32), Vertex(32, 40))
        assert triangle_overlaps_rect(prim, BoundingBox(0, 0, 32, 32))


class TestTilesOverlappedBy:
    def test_single_tile_triangle(self, screen):
        assert tiles_overlapped_by(make_triangle(0, 4, 4, 8), screen) == [0]

    def test_tile_straddling_triangle(self, screen):
        tiles = tiles_overlapped_by(make_triangle(0, 28, 28, 8), screen)
        assert tiles == [0, 1, 4, 5]

    def test_bbox_overestimates_are_filtered(self, screen):
        # A right triangle whose bbox spans 2x2 tiles but whose
        # hypotenuse (x + y = 62) misses the diagonal tile at (32, 32).
        prim = Primitive(0, Vertex(2, 2), Vertex(60, 2), Vertex(2, 60))
        tiles = tiles_overlapped_by(prim, screen)
        assert tiles == [0, 1, 4]  # bbox includes tile 5; the area does not

    def test_offscreen_primitive_is_clipped(self, screen):
        assert tiles_overlapped_by(make_triangle(0, 500, 500, 10), screen) == []
        assert tiles_overlapped_by(make_triangle(0, -50, -50, 10), screen) == []

    def test_full_screen_triangle_covers_everything(self, screen):
        prim = Primitive(0, Vertex(-200, -200), Vertex(600, -200),
                         Vertex(-200, 600))
        assert tiles_overlapped_by(prim, screen) == \
            list(range(screen.num_tiles))

    def test_coverage_is_sorted_row_major(self, screen):
        tiles = tiles_overlapped_by(make_triangle(0, 20, 20, 60), screen)
        assert tiles == sorted(tiles)


# -- the array kernel against the scalar reference ------------------------

def kernel_lists(prims: list[Primitive],
                 screen: ScreenConfig) -> list[list[int]]:
    """:func:`bin_triangles` regrouped as one tile list per primitive."""
    prim_ids, tile_ids = bin_triangles(
        [[v.x for v in p.vertices] for p in prims],
        [[v.y for v in p.vertices] for p in prims], screen)
    assert np.all(np.diff(prim_ids) >= 0)  # grouped by primitive
    lists: list[list[int]] = [[] for _ in prims]
    for prim_id, tile_id in zip(prim_ids.tolist(), tile_ids.tolist()):
        lists[prim_id].append(tile_id)
    return lists


# 100 = 3.125 tiles of 32, 70 = 4.375 tiles of 16: partial last columns
# and rows.
BINNING_SCREENS = (ScreenConfig(100, 70, 32), ScreenConfig(100, 70, 16),
                   ScreenConfig(96, 64, 32))

# Free coordinates (negative and past the screen), exact tile-edge
# multiples (0, 16, 32, ... so vertices also land on tile corners) and
# their neighbours one ulp away.
free = st.floats(min_value=-120, max_value=240, allow_nan=False,
                 allow_infinity=False)
edge = st.integers(min_value=-3, max_value=15).map(lambda k: float(16 * k))
near_edge = edge.flatmap(lambda c: st.sampled_from(
    [c, float(np.nextafter(c, -np.inf)), float(np.nextafter(c, np.inf))]))
coord = st.one_of(free, edge, near_edge)
points = st.tuples(coord, coord)


@st.composite
def triangle_vertices(draw):
    kind = draw(st.sampled_from(["free", "collinear", "point"]))
    a = draw(points)
    if kind == "point":  # zero-area: all three vertices coincide
        return a, a, a
    b = draw(points)
    if kind == "collinear":
        t = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
        return a, b, (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    return a, b, draw(points)


@given(screen=st.sampled_from(BINNING_SCREENS),
       tris=st.lists(triangle_vertices(), max_size=12))
@settings(max_examples=300, deadline=None)
def test_bin_triangles_matches_scalar_reference(screen, tris):
    prims = [Primitive(i, *(Vertex(x, y) for x, y in tri))
             for i, tri in enumerate(tris)]
    assert kernel_lists(prims, screen) == \
        [tiles_overlapped_by(p, screen) for p in prims]


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_bin_triangles_chunking_is_invisible(monkeypatch, chunk):
    screen = ScreenConfig(200, 130, 32)
    rng = np.random.default_rng(11)
    centers = rng.uniform(-40, 240, size=(60, 1, 2))
    corners = centers + rng.uniform(-70, 70, size=(60, 3, 2))
    prims = [Primitive(i, *(Vertex(float(x), float(y)) for x, y in tri))
             for i, tri in enumerate(corners)]
    monkeypatch.setattr(overlap, "_CHUNK_PAIRS", chunk)
    assert kernel_lists(prims, screen) == \
        [tiles_overlapped_by(p, screen) for p in prims]


def test_bin_triangles_empty_input():
    prim_ids, tile_ids = bin_triangles([], [], ScreenConfig(100, 70, 32))
    assert prim_ids.size == 0 and tile_ids.size == 0
