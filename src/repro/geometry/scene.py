"""Scene and draw-command containers.

A :class:`Scene` is one frame's worth of geometry after the Geometry
Pipeline: primitives in program order, grouped into draw commands.  The
scene also computes (and caches) its binning — the per-primitive tile
coverage — which everything downstream (Parameter Buffer construction,
OPT numbers, footprint statistics) derives from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ParameterBufferConfig, ScreenConfig
from repro.geometry.overlap import bin_triangles
from repro.geometry.primitives import Primitive


@dataclass(frozen=True)
class DrawCommand:
    """A contiguous range of primitives issued by one draw call."""

    first_primitive: int
    primitive_count: int

    def __post_init__(self) -> None:
        if self.first_primitive < 0 or self.primitive_count <= 0:
            raise ValueError("malformed draw command range")


class Scene:
    """One frame of geometry in program order.

    Parameters
    ----------
    screen:
        Screen/tile geometry used for binning.
    primitives:
        Primitives in program order.  IDs must be dense, starting at 0,
        matching their position (this mirrors the Primitive Assembly
        numbering the Parameter Buffer relies on).
    draw_commands:
        Optional draw-call grouping; a single all-covering command is
        synthesized when omitted.
    """

    def __init__(self, screen: ScreenConfig, primitives: list[Primitive],
                 draw_commands: list[DrawCommand] | None = None) -> None:
        for index, prim in enumerate(primitives):
            if prim.primitive_id != index:
                raise ValueError(
                    f"primitive at position {index} has id "
                    f"{prim.primitive_id}; ids must be dense program order"
                )
        self.screen = screen
        self.primitives = list(primitives)
        if draw_commands is None:
            draw_commands = (
                [DrawCommand(0, len(primitives))] if primitives else []
            )
        self.draw_commands = draw_commands
        self._coverage: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self.primitives)

    # ------------------------------------------------------------------
    # Binning
    # ------------------------------------------------------------------
    def coverage(self) -> list[list[int]]:
        """Per-primitive list of overlapped tile IDs (row-major).

        Computed once (one :func:`bin_triangles` call for the whole
        scene) and cached; order within each list is row-major, which is
        *not* the traversal order — callers that need traversal ordering
        re-sort by rank.
        """
        if self._coverage is None:
            vertices = [prim.vertices for prim in self.primitives]
            prim_ids, tile_ids = bin_triangles(
                [[v.x for v in tri] for tri in vertices],
                [[v.y for v in tri] for tri in vertices], self.screen)
            tiles = tile_ids.tolist()
            ends = np.cumsum(
                np.bincount(prim_ids, minlength=len(vertices))).tolist()
            self._coverage = [tiles[start:end] for start, end
                              in zip([0] + ends[:-1], ends)]
        return self._coverage

    def tile_lists(self) -> list[list[int]]:
        """Per-tile list of primitive IDs in program order (the PB-Lists)."""
        lists: list[list[int]] = [[] for _ in range(self.screen.num_tiles)]
        for prim_id, tiles in enumerate(self.coverage()):
            for tile_id in tiles:
                lists[tile_id].append(prim_id)
        return lists

    # ------------------------------------------------------------------
    # Statistics (the Table II columns)
    # ------------------------------------------------------------------
    def average_reuse(self) -> float:
        """Average number of tiles overlapped per on-screen primitive."""
        sizes = [len(tiles) for tiles in self.coverage() if tiles]
        if not sizes:
            return 0.0
        return sum(sizes) / len(sizes)

    def average_attributes(self) -> float:
        if not self.primitives:
            return 0.0
        return sum(p.num_attributes for p in self.primitives) / len(self)

    def parameter_buffer_footprint(
        self, pbuffer: ParameterBufferConfig | None = None
    ) -> int:
        """Bytes of Parameter Buffer this scene produces.

        PB-Attributes stores each attribute block-aligned; PB-Lists stores
        one PMD per (tile, primitive) pair.
        """
        pbuffer = pbuffer or ParameterBufferConfig()
        attr_bytes = sum(
            prim.num_attributes * pbuffer.attribute_stride
            for prim, tiles in zip(self.primitives, self.coverage())
            if tiles
        )
        pmd_count = sum(len(tiles) for tiles in self.coverage())
        return attr_bytes + pmd_count * pbuffer.pmd_bytes

    def max_primitives_in_a_tile(self) -> int:
        return max((len(lst) for lst in self.tile_lists()), default=0)
