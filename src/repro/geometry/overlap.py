"""Tile overlap tests (binning geometry).

The Polygon List Builder must decide, for every primitive, exactly which
tiles it overlaps.  A cheap conservative test (bounding box) is refined by
an exact triangle/rectangle intersection test, mirroring the tile-aware
overlap tests of Antochi et al. that the paper builds on.

The exact test treats both shapes as closed regions: touching at a single
point or edge counts as overlap, which is the conservative choice a binner
must make (a missed tile would drop geometry from the image).

:func:`bin_triangles` is the binner every producer uses: one numpy pass
over all (triangle, tile) pairs of many triangles.  The scalar
:func:`triangle_overlaps_rect` / :func:`tiles_overlapped_by` pair is its
reference: the kernel evaluates the same closed-region test with the same
elementwise IEEE operations in the same order, so both return the same
tiles for every input (the property tests compare them).
"""

from __future__ import annotations

import numpy as np

from repro.config import ScreenConfig
from repro.geometry.primitives import BoundingBox, Primitive, Vertex


def tile_rect(screen: ScreenConfig, tile_id: int) -> BoundingBox:
    """Pixel-space rectangle of a tile (clipped to the screen edge)."""
    if not (0 <= tile_id < screen.num_tiles):
        raise ValueError(f"tile {tile_id} out of range")
    tx = tile_id % screen.tiles_x
    ty = tile_id // screen.tiles_x
    min_x = tx * screen.tile_size
    min_y = ty * screen.tile_size
    max_x = min(min_x + screen.tile_size, screen.width)
    max_y = min(min_y + screen.tile_size, screen.height)
    return BoundingBox(min_x, min_y, max_x, max_y)


def _point_in_rect(x: float, y: float, rect: BoundingBox) -> bool:
    return rect.min_x <= x <= rect.max_x and rect.min_y <= y <= rect.max_y


def _orient(ax: float, ay: float, bx: float, by: float,
            px: float, py: float) -> float:
    """Cross product sign of (b - a) x (p - a)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _point_in_triangle(px: float, py: float,
                       a: Vertex, b: Vertex, c: Vertex) -> bool:
    d1 = _orient(a.x, a.y, b.x, b.y, px, py)
    d2 = _orient(b.x, b.y, c.x, c.y, px, py)
    d3 = _orient(c.x, c.y, a.x, a.y, px, py)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _segments_intersect(p1: tuple[float, float], p2: tuple[float, float],
                        q1: tuple[float, float], q2: tuple[float, float]) -> bool:
    """Closed-segment intersection (collinear touching counts)."""
    d1 = _orient(*q1, *q2, *p1)
    d2 = _orient(*q1, *q2, *p2)
    d3 = _orient(*p1, *p2, *q1)
    d4 = _orient(*p1, *p2, *q2)
    if ((d1 > 0) != (d2 > 0) and (d1 != 0 or d2 != 0)
            and (d3 > 0) != (d4 > 0) and (d3 != 0 or d4 != 0)):
        return True

    def on_segment(a, b, p):
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def triangle_overlaps_rect(prim: Primitive, rect: BoundingBox) -> bool:
    """Exact closed-region triangle/rectangle overlap test."""
    bbox = prim.bounding_box()
    if not bbox.intersects(rect):
        return False

    # Any triangle vertex inside the rectangle.
    for v in prim.vertices:
        if _point_in_rect(v.x, v.y, rect):
            return True

    # Any rectangle corner inside the triangle.
    corners = (
        (rect.min_x, rect.min_y),
        (rect.max_x, rect.min_y),
        (rect.max_x, rect.max_y),
        (rect.min_x, rect.max_y),
    )
    for cx, cy in corners:
        if _point_in_triangle(cx, cy, prim.v0, prim.v1, prim.v2):
            return True

    # Any pair of edges intersecting.
    tri_edges = (
        ((prim.v0.x, prim.v0.y), (prim.v1.x, prim.v1.y)),
        ((prim.v1.x, prim.v1.y), (prim.v2.x, prim.v2.y)),
        ((prim.v2.x, prim.v2.y), (prim.v0.x, prim.v0.y)),
    )
    rect_edges = (
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[3]),
        (corners[3], corners[0]),
    )
    for te in tri_edges:
        for re in rect_edges:
            if _segments_intersect(te[0], te[1], re[0], re[1]):
                return True
    return False


def tiles_overlapped_by(prim: Primitive, screen: ScreenConfig) -> list[int]:
    """Row-major IDs of every tile the primitive overlaps.

    Primitives fully outside the screen yield an empty list (they would be
    clipped before binning).
    """
    bbox = prim.bounding_box()
    ts = screen.tile_size
    first_tx = max(0, int(bbox.min_x) // ts)
    first_ty = max(0, int(bbox.min_y) // ts)
    last_tx = min(screen.tiles_x - 1, int(bbox.max_x) // ts)
    last_ty = min(screen.tiles_y - 1, int(bbox.max_y) // ts)
    if bbox.max_x < 0 or bbox.max_y < 0:
        return []
    if bbox.min_x >= screen.width or bbox.min_y >= screen.height:
        return []

    overlapped = []
    for ty in range(first_ty, last_ty + 1):
        for tx in range(first_tx, last_tx + 1):
            tile_id = ty * screen.tiles_x + tx
            if triangle_overlaps_rect(prim, tile_rect(screen, tile_id)):
                overlapped.append(tile_id)
    return overlapped


#: Candidate (triangle, tile) pairs evaluated per kernel pass; bounds the
#: temporaries a batch of whole-screen triangles would otherwise allocate.
_CHUNK_PAIRS = 1 << 11

#: Index of each triangle vertex's / rectangle corner's successor.
_NEXT_VERTEX = [1, 2, 0]
_NEXT_CORNER = [1, 2, 3, 0]


def _on_segment(ax, ay, bx, by, px, py) -> np.ndarray:
    return ((np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by)))


def _overlaps(vx: np.ndarray, vy: np.ndarray,
              rect: tuple[np.ndarray, ...]) -> np.ndarray:
    """:func:`triangle_overlaps_rect` for M (triangle, rectangle) pairs.

    ``vx``/``vy`` hold the (3, M) vertices and ``rect`` the rectangles'
    (min_x, min_y, max_x, max_y) columns.  Each rectangle must be a tile
    of the triangle's bbox tile window (see :func:`bin_triangles`): such
    a tile always meets the triangle's bounding box, so the scalar test's
    bbox check is true and is skipped.  The rest is an OR of three
    clauses, so each clause runs only on the pairs every earlier clause
    left undecided.  Every orientation value is one :func:`_orient` call
    with the scalar test's arguments; the corner and edge clauses share
    the ones they both use.
    """
    x0, y0, x1, y1 = rect
    hit = np.zeros(len(x0), dtype=bool)
    undecided = np.arange(len(x0))
    # Corners in :func:`triangle_overlaps_rect`'s order, (4, M).
    px = np.stack((x0, x1, x1, x0))
    py = np.stack((y0, y0, y1, y1))

    def settle(found: np.ndarray) -> np.ndarray:
        hit[undecided[found]] = True
        return ~found

    # Any triangle vertex inside the rectangle.
    keep = settle(((x0 <= vx) & (vx <= x1) & (y0 <= vy) & (vy <= y1))
                  .any(axis=0))
    undecided = undecided[keep]
    vx, vy, px, py = vx[:, keep], vy[:, keep], px[:, keep], py[:, keep]

    # Any rectangle corner inside the triangle.  side[i, j] is corner j
    # against triangle edge i (from vertex i to its successor).
    ex, ey = vx[_NEXT_VERTEX], vy[_NEXT_VERTEX]
    side = _orient(vx[:, None], vy[:, None], ex[:, None], ey[:, None],
                   px[None], py[None])
    has_neg = (side < 0).any(axis=0)
    has_pos = (side > 0).any(axis=0)
    keep = settle((~(has_neg & has_pos)).any(axis=0))
    undecided = undecided[keep]
    vx, vy, ex, ey = vx[:, keep], vy[:, keep], ex[:, keep], ey[:, keep]
    px, py, side = px[:, keep], py[:, keep], side[:, :, keep]

    # Any pair of edges intersecting: triangle edge i (p1 -> p2) against
    # rectangle edge j (q1 -> q2), every term shaped (3, 4, M).
    p1x, p1y, p2x, p2y = (v[:, None] for v in (vx, vy, ex, ey))
    q1x, q1y = px[None], py[None]
    q2x, q2y = px[_NEXT_CORNER][None], py[_NEXT_CORNER][None]
    d1 = _orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = d1[_NEXT_VERTEX]
    d3 = side
    d4 = side[:, _NEXT_CORNER]
    cross = (((d1 > 0) != (d2 > 0)) & ((d1 != 0) | (d2 != 0))
             & ((d3 > 0) != (d4 > 0)) & ((d3 != 0) | (d4 != 0)))
    # The collinear-touch terms: a zero orientation is rare (exact
    # alignment), and without one the term is false everywhere.
    for d, segment, point in ((d1, (q1x, q1y, q2x, q2y), (p1x, p1y)),
                              (d2, (q1x, q1y, q2x, q2y), (p2x, p2y)),
                              (d3, (p1x, p1y, p2x, p2y), (q1x, q1y)),
                              (d4, (p1x, p1y, p2x, p2y), (q2x, q2y))):
        zero = d == 0
        if zero.any():
            cross |= zero & _on_segment(*segment, *point)
    settle(cross.any(axis=(0, 1)))
    return hit


def bin_triangles(xs: np.ndarray, ys: np.ndarray,
                  screen: ScreenConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every (triangle, tile) overlap of N triangles in one pass.

    ``xs`` and ``ys`` hold the ``(N, 3)`` vertex coordinates.  Returns the
    ``(primitive_index, tile_id)`` pairs as two int64 arrays, grouped by
    primitive in index order: the tiles paired with triangle ``i`` are
    ``tiles_overlapped_by`` of that triangle, row-major.
    """
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1, 3)
    ts = screen.tile_size
    min_x, max_x = xs.min(axis=1), xs.max(axis=1)
    min_y, max_y = ys.min(axis=1), ys.max(axis=1)
    visible = ~((max_x < 0) | (max_y < 0)
                | (min_x >= screen.width) | (min_y >= screen.height))

    def tile_of(coord: np.ndarray, limit: int) -> np.ndarray:
        # ``int(coord) // ts``: truncation toward zero, then floor
        # division.  Clipping to [-1, limit] first changes no clamped
        # window and keeps huge coordinates inside int64.
        return np.trunc(np.clip(coord, -1, limit)).astype(np.int64) // ts

    first_tx = np.maximum(0, tile_of(min_x, screen.width))
    first_ty = np.maximum(0, tile_of(min_y, screen.height))
    cols = np.maximum(0, np.minimum(screen.tiles_x - 1,
                                    tile_of(max_x, screen.width))
                      - first_tx + 1)
    rows = np.maximum(0, np.minimum(screen.tiles_y - 1,
                                    tile_of(max_y, screen.height))
                      - first_ty + 1)
    counts = np.where(visible, cols * rows, 0)
    ends = np.cumsum(counts)

    prims_out = [np.zeros(0, dtype=np.int64)]
    tiles_out = [np.zeros(0, dtype=np.int64)]
    start = 0
    while start < len(counts):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(
            ends, base + _CHUNK_PAIRS, side="right")))
        window = counts[start:stop]
        prim = np.repeat(np.arange(start, stop), window)
        # Each pair's position inside its triangle's tile window.
        slot = np.arange(base, base + len(prim)) - np.repeat(
            ends[start:stop] - window, window)
        tx = first_tx[prim] + slot % cols[prim]
        ty = first_ty[prim] + slot // cols[prim]
        rect_x0 = (tx * ts).astype(np.float64)
        rect_y0 = (ty * ts).astype(np.float64)
        hit = _overlaps(xs[prim].T, ys[prim].T, (
            rect_x0, rect_y0, np.minimum(rect_x0 + ts, screen.width),
            np.minimum(rect_y0 + ts, screen.height)))
        prims_out.append(prim[hit])
        tiles_out.append((ty * screen.tiles_x + tx)[hit])
        start = stop
    return np.concatenate(prims_out), np.concatenate(tiles_out)
