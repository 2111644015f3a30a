"""Synthetic scene generation with controlled statistics.

The paper evaluates on commercial Android games we cannot run, so we
substitute synthetic frames whose *measured* characteristics match the
published ones (Table II): number of primitives, average primitive reuse
(tiles overlapped per primitive), and attribute counts.

Two properties of real game geometry matter to cache behaviour and are
modelled explicitly:

- **Spatial coherence in program order** — consecutive primitives in a
  draw call belong to the same object and land near each other on screen.
  Primitives are generated in small "objects" whose members cluster
  around a shared center.
- **Size distribution** — primitive screen extents are lognormal around a
  calibrated median, so a frame mixes small and large triangles the way a
  real scene does.

Reuse is controlled by calibrating the median extent: the expected number
of 32x32 tiles covered grows monotonically with the triangle size, so a
bisection on the extent hits any target mean reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import ScreenConfig
from repro.geometry.primitives import Primitive, Vertex
from repro.geometry.overlap import bin_triangles
from repro.geometry.scene import DrawCommand, Scene


@dataclass(frozen=True)
class SceneParameters:
    """Knobs of a synthetic frame."""

    num_primitives: int
    target_reuse: float
    mean_attributes: float = 3.0
    is_2d: bool = False
    object_size: int = 8
    size_spread: float = 0.35
    coverage_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_primitives <= 0:
            raise ValueError("need at least one primitive")
        if self.target_reuse < 1.0:
            raise ValueError("a visible primitive overlaps at least 1 tile")
        if not (1.0 <= self.mean_attributes <= 15.0):
            raise ValueError("mean attributes must be within the PMD range")
        if self.object_size <= 0:
            raise ValueError("object size must be positive")
        if not (0.05 <= self.coverage_fraction <= 1.0):
            raise ValueError("coverage fraction must be in (0.05, 1]")


def _fat_triangle(prim_id: int, cx: float, cy: float, extent: float,
                  num_attributes: int, rng: np.random.Generator) -> Primitive:
    """A triangle filling most of an ``extent``-sized box around (cx, cy).

    "Fat" triangles (roughly half the bounding box plus protruding
    corners) make tile coverage track the bounding box closely, which is
    what calibration relies on.
    """
    half = extent / 2.0
    jitter = extent * 0.15
    points = []
    for base_x, base_y in ((-half, -half), (half, -half), (0.0, half)):
        points.append(Vertex(
            cx + base_x + rng.uniform(-jitter, jitter),
            cy + base_y + rng.uniform(-jitter, jitter),
            float(rng.uniform(0.0, 1.0)),
        ))
    return Primitive(prim_id, points[0], points[1], points[2],
                     num_attributes=num_attributes)


def _sample_attribute_count(mean: float, rng: np.random.Generator) -> int:
    """Attribute count in [1, 15] with the requested mean.

    A shifted binomial keeps the distribution tight around the mean the
    way real vertex formats are (position + a couple of varyings).
    """
    count = 1 + rng.binomial(14, (mean - 1.0) / 14.0)
    return int(min(15, max(1, count)))


def fat_triangle(prim_id: int, cx: float, cy: float, extent: float,
                 num_attributes: int, rng: np.random.Generator) -> Primitive:
    """Public entry for other geometry producers (the animation layer's
    object respawn) so churned objects share the suite's triangle shape."""
    return _fat_triangle(prim_id, cx, cy, extent, num_attributes, rng)


def sample_attribute_count(mean: float, rng: np.random.Generator) -> int:
    """Public counterpart of the suite's attribute-count distribution."""
    return _sample_attribute_count(mean, rng)


def _calibration_sample(screen: ScreenConfig, samples: int,
                        size_spread: float, rng: np.random.Generator
                        ) -> tuple[np.ndarray, ...]:
    """The random draws behind ``samples`` calibration triangles.

    None of them depends on the extent, so one set serves every bisection
    step.  They are drawn in the order the per-triangle path draws them:
    center, size factor, then per vertex the x and y jitter and the depth.
    Each jitter is kept as its unit draw ``u``, since numpy's
    ``uniform(low, high)`` is ``low + (high - low) * u``.
    """
    cx = np.empty(samples)
    cy = np.empty(samples)
    size = np.empty(samples)
    jitter_u = np.empty((samples, 2, 3))
    for i in range(samples):
        cx[i] = rng.uniform(0, screen.width)
        cy[i] = rng.uniform(0, screen.height)
        size[i] = rng.lognormal(0.0, size_spread)
        for k in range(3):
            jitter_u[i, 0, k] = rng.random()
            jitter_u[i, 1, k] = rng.random()
            rng.random()  # the vertex depth; binning ignores it
    return cx, cy, size, jitter_u


def _mean_coverage(screen: ScreenConfig, sample: tuple[np.ndarray, ...],
                   extent: float) -> float:
    """Mean tiles per calibration triangle (at least 1 each) at ``extent``.

    Builds every triangle's vertices with :func:`_fat_triangle`'s
    arithmetic on arrays, so each coordinate is the same double."""
    cx, cy, size, jitter_u = sample
    sampled = extent * size
    half = sampled / 2.0
    jitter = sampled * 0.15
    low = (-jitter)[:, None]
    span = jitter[:, None] - low
    base_x = np.stack((-half, half, np.zeros_like(half)), axis=1)
    base_y = np.stack((-half, -half, half), axis=1)
    xs = (cx[:, None] + base_x) + (low + span * jitter_u[:, 0])
    ys = (cy[:, None] + base_y) + (low + span * jitter_u[:, 1])
    prim_ids, _ = bin_triangles(xs, ys, screen)
    counts = np.bincount(prim_ids, minlength=len(size))
    return int(np.maximum(counts, 1).sum()) / len(size)


def calibrate_extent_for_reuse(screen: ScreenConfig, target_reuse: float,
                               seed: int = 1234, samples: int = 160,
                               size_spread: float = 0.0) -> float:
    """Median triangle extent (pixels) whose mean tile coverage hits
    ``target_reuse``.

    Bisection over the extent; coverage is measured by actually binning
    sample triangles drawn with the same size distribution the generator
    uses, so the calibration is exact for the binner in use.  The sample
    is drawn once and rescaled per step.
    """
    if target_reuse < 1.0:
        raise ValueError("target reuse must be >= 1")
    lo, hi = 1.0, float(4 * screen.tile_size * math.sqrt(target_reuse))
    sample = _calibration_sample(screen, samples, size_spread,
                                 np.random.default_rng(seed))

    def measure(extent: float) -> float:
        return _mean_coverage(screen, sample, extent)

    while measure(hi) < target_reuse:
        hi *= 2.0
        if hi > max(screen.width, screen.height) * 4:
            break
    for _ in range(24):
        mid = (lo + hi) / 2.0
        if measure(mid) < target_reuse:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class SceneGenerator:
    """Generates frames matching a :class:`SceneParameters` description."""

    def __init__(self, screen: ScreenConfig, params: SceneParameters) -> None:
        self.screen = screen
        self.params = params
        self._extent = calibrate_extent_for_reuse(
            screen, params.target_reuse, seed=params.seed ^ 0x5EED,
            size_spread=params.size_spread,
        )

    @property
    def calibrated_extent(self) -> float:
        return self._extent

    def generate(self, frame_index: int = 0) -> Scene:
        """One frame.  Different ``frame_index`` values give the animated
        sequence of a running game: same statistics, shifted geometry."""
        p = self.params
        rng = np.random.default_rng((p.seed << 8) ^ frame_index)
        primitives: list[Primitive] = []
        draws: list[DrawCommand] = []
        prim_id = 0
        # Geometry concentrates on a centered sub-rectangle covering
        # ``coverage_fraction`` of the screen area; real games leave sky,
        # HUD margins and far background tiles nearly empty, which is what
        # gives the paper's 11-21 primitives-per-occupied-tile densities.
        span = math.sqrt(p.coverage_fraction)
        active_w = self.screen.width * span
        active_h = self.screen.height * span
        min_x = (self.screen.width - active_w) / 2
        min_y = (self.screen.height - active_h) / 2

        def fresh_center() -> tuple[float, float]:
            if p.is_2d:
                return (rng.uniform(min_x, min_x + active_w),
                        rng.uniform(min_y, min_y + active_h))
            return (
                float(np.clip(rng.normal(self.screen.width / 2, active_w / 4),
                              min_x, min_x + active_w - 1)),
                float(np.clip(rng.normal(self.screen.height / 2, active_h / 4),
                              min_y, min_y + active_h - 1)),
            )

        # Draw order follows a spatial random walk with occasional jumps:
        # scene-graph traversal draws neighbouring objects consecutively,
        # which is where the Polygon List Builder's append locality (and a
        # dedicated Primitive List Cache's advantage) comes from.
        ocx, ocy = fresh_center()
        while prim_id < p.num_primitives:
            object_prims = min(p.object_size, p.num_primitives - prim_id)
            draws.append(DrawCommand(prim_id, object_prims))
            if rng.random() < 0.2:
                ocx, ocy = fresh_center()
            else:
                step = self._extent * 3.0
                ocx = float(np.clip(ocx + rng.normal(0, step),
                                    min_x, min_x + active_w - 1))
                ocy = float(np.clip(ocy + rng.normal(0, step),
                                    min_y, min_y + active_h - 1))
            spread = self._extent * 1.5
            for _ in range(object_prims):
                extent = float(self._extent * rng.lognormal(0.0, p.size_spread))
                cx = float(np.clip(ocx + rng.uniform(-spread, spread),
                                   1, self.screen.width - 2))
                cy = float(np.clip(ocy + rng.uniform(-spread, spread),
                                   1, self.screen.height - 2))
                primitives.append(_fat_triangle(
                    prim_id, cx, cy, extent,
                    _sample_attribute_count(p.mean_attributes, rng), rng,
                ))
                prim_id += 1
        return Scene(self.screen, primitives, draws)
