"""Scene container: binning, tile lists, statistics."""

import pytest

from repro.config import ScreenConfig
from repro.geometry.generator import SceneGenerator, SceneParameters
from repro.geometry.overlap import tiles_overlapped_by
from repro.geometry.primitives import Primitive
from repro.geometry.scene import DrawCommand, Scene
from tests.conftest import make_triangle


@pytest.fixture
def screen() -> ScreenConfig:
    return ScreenConfig(128, 64, 32)  # 4x2 tiles


def test_ids_must_be_dense_program_order(screen):
    with pytest.raises(ValueError):
        Scene(screen, [make_triangle(1, 0, 0)])


def test_empty_scene(screen):
    scene = Scene(screen, [])
    assert len(scene) == 0
    assert scene.average_reuse() == 0.0
    assert scene.parameter_buffer_footprint() == 0
    assert scene.draw_commands == []


def test_default_draw_command_covers_all(screen):
    scene = Scene(screen, [make_triangle(0, 0, 0), make_triangle(1, 40, 0)])
    assert scene.draw_commands == [DrawCommand(0, 2)]


def test_tile_lists_preserve_program_order(screen):
    # Both primitives land in tile 0; list order must be program order.
    scene = Scene(screen, [make_triangle(0, 10, 10, 5),
                           make_triangle(1, 2, 2, 5)])
    assert scene.tile_lists()[0] == [0, 1]


def test_coverage_and_reuse(screen):
    scene = Scene(screen, [
        make_triangle(0, 4, 4, 8),     # 1 tile
        make_triangle(1, 28, 4, 8),    # 2 tiles (straddles x boundary)
    ])
    assert scene.average_reuse() == pytest.approx(1.5)


def test_offscreen_primitives_excluded_from_reuse(screen):
    scene = Scene(screen, [make_triangle(0, 4, 4, 8),
                           make_triangle(1, 999, 999, 8)])
    assert scene.average_reuse() == 1.0  # only the visible one counts


def test_footprint_model(screen):
    # One primitive, 3 attributes, 1 tile: 3*64 attribute bytes + 1 PMD.
    scene = Scene(screen, [make_triangle(0, 4, 4, 8, num_attributes=3)])
    assert scene.parameter_buffer_footprint() == 3 * 64 + 4


def test_max_primitives_in_a_tile(screen):
    prims = [make_triangle(i, 4, 4, 5) for i in range(7)]
    scene = Scene(screen, prims)
    assert scene.max_primitives_in_a_tile() == 7


def test_coverage_matches_scalar_binning():
    # A generated frame with off-screen primitives spliced in, so empty
    # coverage lists sit between non-empty ones.
    screen = ScreenConfig()
    generated = SceneGenerator(screen, SceneParameters(
        num_primitives=300, target_reuse=3.6, seed=4)).generate()
    vertices = []
    for prim in generated.primitives:
        vertices.append(prim.vertices)
        if prim.primitive_id % 50 == 0:
            vertices.append(make_triangle(0, -500, 900).vertices)
    prims = [Primitive(i, *tri) for i, tri in enumerate(vertices)]
    coverage = Scene(screen, prims).coverage()
    assert coverage == [tiles_overlapped_by(p, screen) for p in prims]
    assert sum(1 for tiles in coverage if not tiles) >= 6
    assert all(type(tile) is int for tiles in coverage for tile in tiles)


def test_coverage_is_cached(screen):
    scene = Scene(screen, [make_triangle(0, 4, 4, 8)])
    assert scene.coverage() is scene.coverage()


def test_malformed_draw_command():
    with pytest.raises(ValueError):
        DrawCommand(0, 0)
    with pytest.raises(ValueError):
        DrawCommand(-1, 5)
