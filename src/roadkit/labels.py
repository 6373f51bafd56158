"""Training-label generation from road centerline graphs.

The pipeline: rasterize centerlines, compute the Euclidean distance to the
nearest road pixel, turn it into a Gaussian heatmap G = exp(-d^2 / (2 theta^2)),
threshold at lambda to get the road band, then stamp each junction
neighborhood with min(degree, 5). Interior road pixels stay class 2
(through-road), endpoints are 1, forks 3, crossroads 4, anything busier 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RoadGraph, node_degrees

#: Maximum connectivity class; higher degrees are clamped here.
MAX_CONNECTIVITY = 5

#: Connectivity class for an ordinary on-road pixel (two branches).
THROUGH_ROAD = 2


@dataclass(frozen=True)
class LabelParams:
    """Parameters of the connectivity-label pipeline.

    theta: Gaussian width in pixels.
    lam: heatmap threshold in (0, 1); pixels with G >= lam are road.
    node_radius: radius in pixels of the junction stamp around each node.

    Defaults give a road band about 5 px wide: at theta = 2 the heatmap
    crosses exp(-1/2) one theta away from the centerline.
    """

    theta: float = 2.0
    lam: float = math.exp(-0.5)
    node_radius: float = 4.0

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0 < self.lam < 1:
            raise ValueError(f"lambda must be in (0, 1), got {self.lam}")
        if self.node_radius < 1:
            raise ValueError(f"node_radius must be >= 1, got {self.node_radius}")


def bresenham(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Integer 8-connected line from (x0, y0) to (x1, y1), endpoints included."""
    points = []
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    x, y = x0, y0
    while True:
        points.append((x, y))
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy
    return points


def rasterize_centerline(g: RoadGraph, width: int, height: int) -> np.ndarray:
    """Rasterize every edge polyline onto a (height, width) 0/1 grid."""
    if width <= 0 or height <= 0:
        raise ValueError(f"grid dimensions must be positive, got {width}x{height}")
    mask = np.zeros((height, width), dtype=np.uint8)
    for e in g.edges:
        for p, q in zip(e.polyline, e.polyline[1:]):
            for x, y in bresenham(round(p[0]), round(p[1]), round(q[0]), round(q[1])):
                if 0 <= x < width and 0 <= y < height:
                    mask[y, x] = 1
    return mask


def distance_map(mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance (in pixels) to the nearest road pixel.

    Two-pass separable transform on squared distances; road pixels map to 0
    and an all-background mask maps to +inf everywhere. The row pass takes
    the nearest road pixel left and right of each pixel. The column pass is
    the lower envelope of parabolas (Felzenszwalb & Huttenlocher, *Distance
    Transforms of Sampled Functions*), built for all columns in lockstep over
    the rows that hold road; rows without road have infinite row distance and
    never enter an envelope. The Python loop runs once per road row, plus
    once per extra slot the busiest column pops at that row; its trip count
    does not grow with the distances in the image.

    The result is sqrt of the exact integer squared distance: every squared
    distance is an integer far below 2**53, and an envelope breakpoint is a
    ratio of such integers with a denominator below 2 * height, so its
    rounding never changes which pixel rows a parabola owns.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.size == 0:
        raise ValueError(f"mask must be a nonempty 2-D grid, got shape {mask.shape}")
    road = mask > 0
    height, width = road.shape
    rows = np.flatnonzero(road.any(axis=1))
    if rows.size == 0:
        return np.full(road.shape, np.inf)

    # Row pass: squared distance to the nearest road pixel in the same row.
    site = road[rows]
    cols = np.arange(width)
    left = np.maximum.accumulate(np.where(site, cols, -width), axis=1)
    right = np.minimum.accumulate(np.where(site, cols, 2 * width)[:, ::-1], axis=1)[:, ::-1]
    gap = np.minimum(cols - left, right - cols)
    # Each temporary is dropped once used: the three stacks below already take
    # 24 bytes per pixel of the road rows.
    del site, left, right

    # Column pass, building: slot k of column c holds a parabola with vertex
    # row r and key f + r^2, where f is the row pass's squared distance; the
    # parabola is lowest on (z[k, c], z[k + 1, c]]. A new parabola pops every
    # slot whose whole interval it undercuts; the popped slots are a suffix
    # of the stack. Stacks are flat (slot * width + column) so each step reads
    # and writes them with one index, ``at``.
    key = (gap * gap + (rows * rows)[:, None]).astype(np.float64)
    del gap
    slots = rows.size * width
    z = np.full(slots, np.inf)
    top_key = np.empty(slots)
    top_row = np.empty(slots, dtype=np.intp)
    z[:width] = -np.inf
    top_key[:width] = key[0]
    top_row[:width] = rows[0]
    at = cols.copy()
    for j in range(1, rows.size):
        s = (key[j] - top_key[at]) / (2 * (rows[j] - top_row[at]))
        pop = np.flatnonzero(s <= z[at])
        while pop.size:
            at[pop] -= width
            back = at[pop]
            s[pop] = (key[j, pop] - top_key[back]) / (2 * (rows[j] - top_row[back]))
            pop = pop[s[pop] <= z[back]]
        at += width
        z[at] = s
        top_key[at] = key[j]
        top_row[at] = rows[j]
    del key

    # Column pass, reading: pixel row y takes the last slot with z < y. Each
    # slot is stamped at the first pixel row it owns, then a running max
    # fills in the rows between. A slot owns no row when its first row is
    # past the image or when the next slot starts on the same row.
    depth = at // width
    first = np.floor(z.reshape(rows.size, width)[1:]).clip(-1, height - 1).astype(np.intp) + 1
    slot = np.arange(1, rows.size)[:, None]
    live = (slot <= depth) & (first < height)
    live[:-1] &= (first[1:] != first[:-1]) | (slot[1:] > depth)
    k, c = np.nonzero(live)
    owner = np.zeros((height, width), dtype=np.intp)
    owner[first[k, c], c] = k + 1
    owner = np.maximum.accumulate(owner, axis=0) * width + cols
    del first, live, k, c
    r = top_row[owner]
    d2 = top_key[owner]
    d2 -= r * r  # key - r^2 is the row pass's f
    r -= np.arange(height)[:, None]
    d2 += r * r
    return np.sqrt(d2, out=d2)


def brute_force_distance_map(mask: np.ndarray) -> np.ndarray:
    """O(N*M) nearest-road-pixel distance; the oracle distance_map is checked against."""
    mask = np.asarray(mask)
    ys, xs = np.nonzero(mask)
    out = np.full(mask.shape, np.inf)
    if len(xs) == 0:
        return out
    gy, gx = np.mgrid[0 : mask.shape[0], 0 : mask.shape[1]]
    for y, x in zip(ys, xs):
        d = np.sqrt((gy - y) ** 2.0 + (gx - x) ** 2.0)
        np.minimum(out, d, out=out)
    return out


def gaussian_heatmap(d: np.ndarray, theta: float) -> np.ndarray:
    """G = exp(-d^2 / (2 theta^2)); 1 on the centerline, 0 at infinite distance."""
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    d = np.asarray(d, dtype=np.float64)
    g = np.zeros_like(d)
    finite = np.isfinite(d)
    g[finite] = np.exp(-(d[finite] ** 2) / (2.0 * theta * theta))
    return g


def connectivity_label(
    g: RoadGraph, width: int, height: int, params: LabelParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Generate the road mask and the connectivity label map for a graph.

    Returns (mask, connectivity): mask is the G >= lambda thresholding of the
    centerline heatmap; connectivity assigns 2 to every road pixel, then
    reassigns pixels within node_radius of each non-boundary node to
    min(degree, 5). Boundary (window-cut) nodes are skipped: they are clipping
    artifacts, not endpoints.
    """
    params = params or LabelParams()
    center = rasterize_centerline(g, width, height)
    heat = gaussian_heatmap(distance_map(center), params.theta)
    road = heat >= params.lam
    mask = road.astype(np.uint8)
    conn = np.where(road, THROUGH_ROAD, 0).astype(np.uint8)

    degrees = node_degrees(g)
    gy, gx = np.mgrid[0:height, 0:width]
    for i, (x, y) in enumerate(g.nodes):
        if i in g.boundary_nodes or degrees[i] == 0:
            continue
        if degrees[i] == THROUGH_ROAD:
            continue  # pass-through vertices are ordinary road
        near = (gx - x) ** 2 + (gy - y) ** 2 <= params.node_radius**2
        conn[near & road] = min(degrees[i], MAX_CONNECTIVITY)
    return mask, conn


def pixel_connectivity_label(mask: np.ndarray, pattern: str) -> np.ndarray:
    """Per road pixel, the count of road neighbors under a 4- or 8-pattern.

    Background pixels stay 0; 8-pattern counts are clamped to 5 so values fit
    the connectivity-class range.
    """
    if pattern not in ("four", "eight"):
        raise ValueError(f"pattern must be 'four' or 'eight', got {pattern!r}")
    m = (np.asarray(mask) > 0).astype(np.int64)
    padded = np.pad(m, 1)
    if pattern == "four":
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    counts = np.zeros_like(m)
    h, w = m.shape
    for dy, dx in offsets:
        counts += padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    counts *= m
    return np.minimum(counts, MAX_CONNECTIVITY).astype(np.uint8)
