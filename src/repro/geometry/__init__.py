"""Geometry substrate: primitives, tile overlap tests, traversal orders.

This package models the part of the graphics pipeline that TCOR's inputs
depend on: triangles in screen space, the tile grid, which tiles each
triangle overlaps (binning), and the fixed order in which the Tile Fetcher
walks the tiles.
"""

from repro.geometry.primitives import (
    Attribute,
    BoundingBox,
    Primitive,
    Vertex,
)
from repro.geometry.overlap import (
    bin_triangles,
    tile_rect,
    tiles_overlapped_by,
    triangle_overlaps_rect,
)
from repro.geometry.traversal import (
    TraversalOrder,
    tile_traversal,
    traversal_rank,
)
from repro.geometry.scene import DrawCommand, Scene
from repro.geometry.generator import (
    SceneGenerator,
    SceneParameters,
    calibrate_extent_for_reuse,
)
from repro.geometry.transform import (
    ScreenVertex,
    VertexTransform,
    look_at,
    perspective,
)
from repro.geometry.assembly import IndexedMesh, PrimitiveAssembly

__all__ = [
    "Attribute",
    "BoundingBox",
    "DrawCommand",
    "IndexedMesh",
    "Primitive",
    "PrimitiveAssembly",
    "Scene",
    "SceneGenerator",
    "SceneParameters",
    "ScreenVertex",
    "TraversalOrder",
    "Vertex",
    "VertexTransform",
    "calibrate_extent_for_reuse",
    "look_at",
    "perspective",
    "bin_triangles",
    "tile_rect",
    "tile_traversal",
    "tiles_overlapped_by",
    "traversal_rank",
    "triangle_overlaps_rect",
]
